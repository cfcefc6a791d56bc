package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n, k, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randMat(rng, n, k), randMat(rng, k, p)
		got := MatMul(a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				var want float64
				for kk := 0; kk < k; kk++ {
					want += a.At(i, kk) * b.At(kk, j)
				}
				if math.Abs(got.At(i, j)-want) > 1e-10 {
					t.Fatalf("trial %d: (%d,%d): got %v want %v", trial, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMat(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransposeIdentity(t *testing.T) {
	// (A x B)^T == B^T x A^T — a property of the multiply kernel.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 1+rng.Intn(5), 1+rng.Intn(5))
		b := randMat(rng, a.Cols, 1+rng.Intn(5))
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.Row(0)[1] != 9 {
		t.Fatalf("Set/Row mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone aliases data")
	}
}

func TestRandomizeXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(10, 20)
	m.Randomize(rng)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside Xavier bound %v", v, limit)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||x - target||^2.
	target := FromRows([][]float64{{1, -2, 3}})
	x := NewMatrix(1, 3)
	opt := NewAdam(0.1)
	for step := 0; step < 400; step++ {
		tp := NewTape()
		xn := tp.Param(x)
		diff := tp.Add(xn, tp.Scale(tp.Input(target), -1))
		loss := tp.Sum(tp.Mul(diff, diff))
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step([]*Node{xn}, false)
	}
	for i, want := range target.Data {
		if math.Abs(x.Data[i]-want) > 1e-3 {
			t.Fatalf("Adam did not converge: x[%d]=%v want %v", i, x.Data[i], want)
		}
	}
}

func TestAdamMaximize(t *testing.T) {
	// Maximize -(x-2)^2: should drive x toward 2.
	x := NewMatrix(1, 1)
	opt := NewAdam(0.1)
	for step := 0; step < 300; step++ {
		tp := NewTape()
		xn := tp.Param(x)
		two := FromRows([][]float64{{2}})
		diff := tp.Add(xn, tp.Scale(tp.Input(two), -1))
		obj := tp.Scale(tp.Sum(tp.Mul(diff, diff)), -1)
		if err := tp.Backward(obj); err != nil {
			t.Fatal(err)
		}
		opt.Step([]*Node{xn}, true)
	}
	if math.Abs(x.Data[0]-2) > 1e-3 {
		t.Fatalf("maximize failed: x=%v", x.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	tp := NewTape()
	x := tp.Param(NewMatrix(1, 4))
	copy(x.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	norm := ClipGradNorm([]*Node{x}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("reported norm %v want 5", norm)
	}
	var clipped float64
	for _, g := range x.Grad.Data {
		clipped += g * g
	}
	if math.Abs(math.Sqrt(clipped)-1) > 1e-9 {
		t.Fatalf("clipped norm %v want 1", math.Sqrt(clipped))
	}
	// Below threshold: untouched.
	copy(x.Grad.Data, []float64{0.1, 0, 0, 0})
	ClipGradNorm([]*Node{x}, 1)
	if x.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified in-bounds gradient")
	}
}

func TestOptimizerStateZeroesGrads(t *testing.T) {
	x := NewMatrix(1, 2)
	opt := NewAdam(0.01)
	tp := NewTape()
	xn := tp.Param(x)
	xn.Grad.Data[0], xn.Grad.Data[1] = 1, -1
	opt.Step([]*Node{xn}, false)
	if xn.Grad.Data[0] != 0 || xn.Grad.Data[1] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

// naiveMatMulInto is the reference accumulation order of every multiply
// kernel: dst += a·b with the plain i-k-j loop, skipping zero a entries.
func naiveMatMulInto(dst, a, b *Matrix) {
	n, k, p := a.Rows, a.Cols, b.Cols
	for i := 0; i < n; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				dst.Data[i*p+j] += av * b.Data[kk*p+j]
			}
		}
	}
}

// sparseRandMat is randMat with about a quarter of the entries zero and one
// all-zero row, so the kernels' zero-skipping paths run.
func sparseRandMat(rng *rand.Rand, r, c int) *Matrix {
	m := randMat(rng, r, c)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
	if r > 1 {
		clear(m.Row(rng.Intn(r)))
	}
	return m
}

// TestKernelsBitEqualTransposePath checks the blocked kernels against the
// reference loop over materialized transposes, bit for bit, on random shapes
// that are not multiples of the 2x4 block, with a k range that crosses the
// k tile, zero entries and a non-zero starting dst.
func TestKernelsBitEqualTransposePath(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	dims := func() int { return 1 + rng.Intn(11) }
	for trial := 0; trial < 60; trial++ {
		n, k, p := dims(), dims(), dims()
		if trial%10 == 0 {
			k = tileK + 1 + rng.Intn(tileK)
		}
		start := randMat(rng, n, p)
		check := func(name string, kernel func(dst, a, b *Matrix), a, b, refA, refB *Matrix) {
			got, want := start.Clone(), start.Clone()
			kernel(got, a, b)
			naiveMatMulInto(want, refA, refB)
			assertBitEqual(t, name, n, k, p, got, want)
		}
		a, b := sparseRandMat(rng, n, k), randMat(rng, k, p)
		check("matmul", matmulInto, a, b, a, b)
		bt := randMat(rng, p, k) // a·bᵀ reads b as p x k
		check("matmulT", matmulTInto, a, bt, a, bt.Transpose())
		at := sparseRandMat(rng, k, n) // aᵀ·b reads a as k x n
		check("matmulTA", matmulTAInto, at, b, at.Transpose(), b)
	}
}

func assertBitEqual(t *testing.T, name string, n, k, p int, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s (%dx%d)x(%dx%d): element %d = %v, transpose path %v", name, n, k, k, p, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPoolRowsBitEqualDenseMembership checks the sparse mean pooling
// against the dense membership matmul it replaces: forward values and the
// gradient it passes back are bit-equal.
func TestPoolRowsBitEqualDenseMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, cols = 23, 6
	groups := [][]int{{0, 3, 4, 9, 22}, {1}, {2, 5, 6, 7, 8, 10, 11}, {}, {12, 13, 14, 15, 16, 17, 18, 19, 20, 21}}
	members := NewMatrix(len(groups), n)
	for g, ms := range groups {
		for _, m := range ms {
			members.Set(g, m, 1.0/float64(len(ms)))
		}
	}
	h := randMat(rng, n, cols)
	w := randMat(rng, len(groups), cols)
	run := func(pool func(tp *Tape, x *Node) *Node) (*Matrix, *Matrix) {
		tp := NewTape()
		x := tp.Param(h)
		out := pool(tp, x)
		if err := tp.Backward(tp.Sum(tp.Mul(out, tp.Input(w)))); err != nil {
			t.Fatal(err)
		}
		return out.Value, x.Grad
	}
	gotV, gotG := run(func(tp *Tape, x *Node) *Node { return tp.PoolRows(x, groups) })
	wantV, wantG := run(func(tp *Tape, x *Node) *Node { return tp.MatMul(tp.Input(members), x) })
	assertBitEqual(t, "pool value", len(groups), n, n, gotV, wantV)
	assertBitEqual(t, "pool grad", n, len(groups), len(groups), gotG, wantG)
}

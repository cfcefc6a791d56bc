package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// maxTestProcs is the highest GOMAXPROCS the banded tests run at.
const maxTestProcs = 4

// TestParallelRowsCoversEveryRowOnce checks the band split itself: every
// row lands in exactly one band, bands are contiguous and of equal length
// except the last, there are at most GOMAXPROCS of them, and work below two
// fork floors, or GOMAXPROCS=1, runs as the single band [0, n).
func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct{ n, work int }{
		{1, 1 << 20}, {2, 1 << 20}, {7, 1 << 20}, {301, 1 << 20},
		{301, 2*forkFloor - 1}, {301, 3 * forkFloor}, {1000, 1 << 30}, {0, 1 << 20},
	}
	for procs := 1; procs <= maxTestProcs; procs++ {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			hits := make([]int, c.n)
			var mu sync.Mutex
			var bands [][2]int
			band := func(lo, hi int) {
				mu.Lock()
				bands = append(bands, [2]int{lo, hi})
				mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			}
			size := bandRows(c.n, c.work)
			if size < c.n {
				parallelRows(c.n, size, band)
			} else {
				band(0, c.n)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d work=%d: row %d ran %d times", procs, c.n, c.work, i, h)
				}
			}
			want := max(min(procs, c.work/forkFloor, c.n), 1)
			if len(bands) > want {
				t.Fatalf("GOMAXPROCS=%d n=%d work=%d: %d bands, at most %d allowed", procs, c.n, c.work, len(bands), want)
			}
			if want == 1 && (len(bands) != 1 || bands[0] != [2]int{0, c.n}) {
				t.Fatalf("GOMAXPROCS=%d n=%d work=%d: bands %v, want the single band [0, %d)", procs, c.n, c.work, bands, c.n)
			}
			for _, b := range bands {
				if b[1] != c.n && b[1]-b[0] != size {
					t.Fatalf("GOMAXPROCS=%d n=%d work=%d: band %v, want length %d", procs, c.n, c.work, b, size)
				}
			}
		}
	}
}

// TestParallelRowsPanicReachesCaller checks that a panic in any band, one
// forked onto another goroutine or the caller's own, reaches a recover on
// the caller's goroutine, and only after every other band has finished.
func TestParallelRowsPanicReachesCaller(t *testing.T) {
	const n, size = 400, 100
	for _, bad := range []int{0, 100, 300} {
		var done [n / size]bool
		got := func() (r any) {
			defer func() { r = recover() }()
			parallelRows(n, size, func(lo, hi int) {
				if lo == bad {
					panic(lo)
				}
				time.Sleep(10 * time.Millisecond)
				done[lo/size] = true
			})
			return nil
		}()
		if got != bad {
			t.Fatalf("panic in band [%d, %d): caller recovered %v", bad, bad+size, got)
		}
		for b, ok := range done {
			if b != bad/size && !ok {
				t.Fatalf("panic in band [%d, %d): band %d had not finished when the panic reached the caller", bad, bad+size, b)
			}
		}
	}
}

// TestSerialKernelsAllocateNothing pins the serial path: at GOMAXPROCS=1,
// which testing.AllocsPerRun sets, the multiply kernels run inline on a
// shape that forks on more cores, and allocate nothing.
func TestSerialKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, k, p = 301, 37, 13
	a, b, bt, at := randMat(rng, n, k), randMat(rng, k, p), randMat(rng, p, k), randMat(rng, k, n)
	dst := NewMatrix(n, p)
	allocs := testing.AllocsPerRun(5, func() {
		matmulInto(dst, a, b)
		matmulTInto(dst, a, bt)
		matmulTAInto(dst, at, b)
	})
	if allocs != 0 {
		t.Fatalf("serial kernels allocated %v objects per run, want 0", allocs)
	}
}

// checkBandedBitEqual computes once at GOMAXPROCS=1, the serial path, and
// again at every GOMAXPROCS up to maxTestProcs, and requires each result
// bit-equal to the serial one. n and work are the row count and work of the
// banded op under test; the shape must be large enough to split into as
// many bands as there are procs. The GOMAXPROCS setting is restored.
func checkBandedBitEqual(t *testing.T, name string, n, work int, compute func() []*Matrix) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := compute()
	for procs := 2; procs <= maxTestProcs; procs++ {
		runtime.GOMAXPROCS(procs)
		if size := bandRows(n, work); (n+size-1)/size != procs {
			t.Fatalf("%s: %d rows of work %d split into bands of %d rows at GOMAXPROCS=%d, want %d bands", name, n, work, size, procs, procs)
		}
		got := compute()
		for m := range want {
			for i := range want[m].Data {
				if math.Float64bits(got[m].Data[i]) != math.Float64bits(want[m].Data[i]) {
					t.Fatalf("%s at GOMAXPROCS=%d: output %d element %d = %v, serial %v", name, procs, m, i, got[m].Data[i], want[m].Data[i])
				}
			}
		}
	}
}

// TestKernelsBitEqualBanded checks the three multiply kernels against the
// serial reference loop over materialized transposes, bit for bit, at
// GOMAXPROCS 1 to 4. The shapes split into one band per proc; their odd row
// counts leave a last band that ends on an odd row and so runs the
// kernels' single-row tail. The left operands have zero entries and a zero
// row, one k range crosses the k tile, and dst starts non-zero.
func TestKernelsBitEqualBanded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(32))
	for _, s := range [][3]int{{301, 37, 13}, {33, tileK + 44, 15}, {129, 64, 21}} {
		n, k, p := s[0], s[1], s[2]
		start := randMat(rng, n, p)
		a, b := sparseRandMat(rng, n, k), randMat(rng, k, p)
		bt := randMat(rng, p, k)
		at := sparseRandMat(rng, k, n)
		for _, c := range []struct {
			name             string
			kernel           func(dst, a, b *Matrix)
			a, b, refA, refB *Matrix
		}{
			{"matmul", matmulInto, a, b, a, b},
			{"matmulT", matmulTInto, a, bt, a, bt.Transpose()},
			{"matmulTA", matmulTAInto, at, b, at.Transpose(), b},
		} {
			want := start.Clone()
			naiveMatMulInto(want, c.refA, c.refB)
			for procs := 1; procs <= maxTestProcs; procs++ {
				runtime.GOMAXPROCS(procs)
				if size := bandRows(n, n*k*p); (n+size-1)/size != procs {
					t.Fatalf("%s (%dx%d)x(%dx%d): bands of %d rows at GOMAXPROCS=%d, want %d bands", c.name, n, k, k, p, size, procs, procs)
				}
				got := start.Clone()
				c.kernel(got, c.a, c.b)
				assertBitEqual(t, c.name, n, k, p, got, want)
			}
		}
	}
}

// TestSoftmaxRowsBitEqualBanded checks the banded row softmax, forward
// values and the gradient it passes back, against the serial path at
// GOMAXPROCS 1 to 4.
func TestSoftmaxRowsBitEqualBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const rows, cols = 301, 450
	x, w := randMat(rng, rows, cols), randMat(rng, rows, cols)
	checkBandedBitEqual(t, "softmax", rows, rows*cols, func() []*Matrix {
		tp := NewTape()
		a := tp.Param(x)
		y := tp.SoftmaxRows(a)
		if err := tp.Backward(tp.Sum(tp.Mul(y, tp.Input(w)))); err != nil {
			t.Fatal(err)
		}
		return []*Matrix{y.Value, a.Grad}
	})
}

// TestGraphAttentionBitEqualBanded checks the banded GraphAttention forward
// pass, and the serial backward pass behind it, against the serial path at
// GOMAXPROCS 1 to 4, on random self-inclusive neighbourhoods with one empty
// list, so a band's first CSR offset must skip it.
func TestGraphAttentionBitEqualBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n, f = 301, 97
	neighbors := make([][]int, n)
	edges := 0
	for i := range neighbors {
		if i == n/3 {
			continue
		}
		neighbors[i] = append(neighbors[i], i)
		for d := rng.Intn(9); d > 0; d-- {
			neighbors[i] = append(neighbors[i], rng.Intn(n))
		}
		edges += len(neighbors[i])
	}
	h, s1, s2 := randMat(rng, n, f), randMat(rng, n, 1), randMat(rng, n, 1)
	w := randMat(rng, n, f)
	checkBandedBitEqual(t, "GraphAttention", n, edges*f, func() []*Matrix {
		tp := NewTape()
		hn, s1n, s2n := tp.Param(h), tp.Param(s1), tp.Param(s2)
		out := tp.GraphAttention(hn, s1n, s2n, neighbors)
		if err := tp.Backward(tp.Sum(tp.Mul(out, tp.Input(w)))); err != nil {
			t.Fatal(err)
		}
		return []*Matrix{out.Value, hn.Grad, s1n.Grad, s2n.Grad}
	})
}

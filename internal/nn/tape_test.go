package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad computes the central finite difference of f w.r.t. x[idx].
func numericGrad(f func() float64, x *Matrix, idx int) float64 {
	const h = 1e-6
	orig := x.Data[idx]
	x.Data[idx] = orig + h
	up := f()
	x.Data[idx] = orig - h
	down := f()
	x.Data[idx] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies analytic gradients of a scalar-producing program
// against finite differences for every element of every input matrix.
func checkGrads(t *testing.T, name string, inputs []*Matrix, program func(tp *Tape, ins []*Node) *Node) {
	t.Helper()
	value := func() float64 {
		tp := NewTape()
		nodes := make([]*Node, len(inputs))
		for i, m := range inputs {
			nodes[i] = tp.Param(m)
		}
		return program(tp, nodes).Value.Data[0]
	}
	tp := NewTape()
	nodes := make([]*Node, len(inputs))
	for i, m := range inputs {
		nodes[i] = tp.Param(m)
	}
	out := program(tp, nodes)
	if err := tp.Backward(out); err != nil {
		t.Fatalf("%s: backward: %v", name, err)
	}
	for mi, m := range inputs {
		for idx := range m.Data {
			want := numericGrad(value, m, idx)
			got := nodes[mi].Grad.Data[idx]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("%s: input %d elem %d: grad %.8f, finite diff %.8f", name, mi, idx, got, want)
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkGrads(t, "matmul", []*Matrix{randMat(rng, 3, 4), randMat(rng, 4, 2)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.MatMul(ins[0], ins[1]))
		})
}

func TestGradAddMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkGrads(t, "add-mul-scale", []*Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Scale(tp.Mul(tp.Add(ins[0], ins[1]), ins[0]), 0.7))
		})
}

func TestGradAddRowVector(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkGrads(t, "addrow", []*Matrix{randMat(rng, 4, 3), randMat(rng, 1, 3)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.AddRowVector(ins[0], ins[1]), ins[0]))
		})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, x *Node) *Node
	}{
		{"elu", func(tp *Tape, x *Node) *Node { return tp.ELU(x, 1.0) }},
	} {
		checkGrads(t, tc.name, []*Matrix{randMat(rng, 3, 5)},
			func(tp *Tape, ins []*Node) *Node {
				return tp.Sum(tc.f(tp, ins[0]))
			})
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := randMat(rng, 3, 4)
	checkGrads(t, "softmax", []*Matrix{randMat(rng, 3, 4)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.SoftmaxRows(ins[0]), tp.Input(w)))
		})
}

func TestGradConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := randMat(rng, 3, 7)
	checkGrads(t, "concat", []*Matrix{randMat(rng, 3, 4), randMat(rng, 3, 3)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.ConcatCols(ins[0], ins[1]), tp.Input(w)))
		})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checkGrads(t, "layernorm", []*Matrix{randMat(rng, 3, 6), randMat(rng, 1, 6), randMat(rng, 1, 6)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.LayerNorm(ins[0], ins[1], ins[2]), ins[0]))
		})
}

func TestGradMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w := randMat(rng, 5, 3)
	checkGrads(t, "matmulT", []*Matrix{randMat(rng, 5, 4), randMat(rng, 3, 4)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.MatMulT(ins[0], ins[1]), tp.Input(w)))
		})
}

func TestGradPoolRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	groups := [][]int{{0, 2, 5}, {1}, {}, {3, 4}}
	w := randMat(rng, 4, 3)
	checkGrads(t, "pool-rows", []*Matrix{randMat(rng, 6, 3)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.PoolRows(ins[0], groups), tp.Input(w)))
		})
}

func TestGradGatherLogProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	picks := []int{1, 0, 2}
	weights := []float64{0.5, -0.2, 1.1}
	checkGrads(t, "gather-logprobs", []*Matrix{randMat(rng, 3, 3)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.GatherLogProbs(tp.SoftmaxRows(ins[0]), picks, weights)
		})
}

func TestGradEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checkGrads(t, "entropy", []*Matrix{randMat(rng, 3, 4)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Entropy(tp.SoftmaxRows(ins[0]))
		})
}

func TestGradGraphAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	neighbors := [][]int{{0, 1}, {1, 0, 2}, {2, 1}, {3}}
	w := randMat(rng, 4, 3)
	checkGrads(t, "graph-attention",
		[]*Matrix{randMat(rng, 4, 3), randMat(rng, 4, 1), randMat(rng, 4, 1)},
		func(tp *Tape, ins []*Node) *Node {
			return tp.Sum(tp.Mul(tp.GraphAttention(ins[0], ins[1], ins[2], neighbors), tp.Input(w)))
		})
}

func TestGradCompositeNetwork(t *testing.T) {
	// End-to-end gradient check through a small two-layer network with
	// layer norm and softmax — the shape of the real strategy network.
	rng := rand.New(rand.NewSource(14))
	picks := []int{2, 0}
	weights := []float64{1, 1}
	checkGrads(t, "composite",
		[]*Matrix{randMat(rng, 2, 3), randMat(rng, 3, 4), randMat(rng, 1, 4), randMat(rng, 1, 4), randMat(rng, 4, 3)},
		func(tp *Tape, ins []*Node) *Node {
			h := tp.ELU(tp.MatMul(ins[0], ins[1]), 1.0)
			h = tp.LayerNorm(h, ins[2], ins[3])
			probs := tp.SoftmaxRows(tp.MatMul(h, ins[4]))
			obj := tp.GatherLogProbs(probs, picks, weights)
			return tp.Add(obj, tp.Scale(tp.Entropy(probs), 0.01))
		})
}

func TestBackwardRequiresScalar(t *testing.T) {
	tp := NewTape()
	x := tp.Param(NewMatrix(2, 2))
	if err := tp.Backward(x); err == nil {
		t.Fatal("expected error for non-scalar backward target")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tp := NewTape()
	p := tp.SoftmaxRows(tp.Input(randMat(rng, 5, 7)))
	for i := 0; i < 5; i++ {
		var sum float64
		for _, v := range p.Value.Row(i) {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestEntropyNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		tp := NewTape()
		p := tp.SoftmaxRows(tp.Input(randMat(rng, 4, 6)))
		h := tp.Entropy(p)
		if h.Value.Data[0] < -1e-12 {
			t.Fatalf("entropy %v < 0", h.Value.Data[0])
		}
	}
}

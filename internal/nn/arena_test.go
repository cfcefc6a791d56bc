package nn

import (
	"math/rand"
	"testing"
)

// forwardProgram records a small network over an input, a constant layer
// norm gain and two parameters, touching every op kind that allocates
// scratch.
func forwardProgram(tp *Tape, x, gain, w1, w2 *Matrix) (*Node, *Node, []*Node) {
	in := tp.Input(x)
	p1, p2 := tp.Param(w1), tp.Param(w2)
	h := tp.ELU(tp.MatMul(in, p1), 1)
	nb := [][]int{{0, 1}, {1, 0, 2}, {2, 1}, {3}}
	s := tp.MatMul(h, p2)
	att := tp.GraphAttention(h, s, s, nb)
	pooled := tp.PoolRows(att, [][]int{{0, 1}, {2, 3}})
	ln := tp.LayerNorm(pooled, tp.Input(gain), tp.Input(NewMatrix(1, gain.Cols)))
	probs := tp.SoftmaxRows(tp.MatMulT(ln, ln))
	return in, tp.Entropy(probs), []*Node{p1, p2}
}

func TestInputsAndForwardOnlyTapesAllocateNoGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x, gain, w1, w2 := randMat(rng, 4, 3), randMat(rng, 1, 5), randMat(rng, 3, 5), randMat(rng, 5, 1)
	tp := NewTape()
	in, out, params := forwardProgram(tp, x, gain, w1, w2)
	for _, n := range tp.nodes {
		isParam := n == params[0] || n == params[1]
		if (n.Grad != nil) != isParam {
			t.Fatalf("node %d: forward-only tape has Grad=%v, want a Grad on Params only", n.id, n.Grad != nil)
		}
	}
	if err := tp.Backward(out); err != nil {
		t.Fatal(err)
	}
	if in.Grad != nil || in.requiresGrad {
		t.Fatal("an Input node must never get a Grad")
	}
	for _, n := range tp.nodes {
		if !n.requiresGrad && n.Grad != nil && n != out {
			t.Fatalf("node %d requires no gradient but got a Grad", n.id)
		}
	}
	for _, p := range params {
		nonzero := false
		for _, g := range p.Grad.Data {
			nonzero = nonzero || g != 0
		}
		if !nonzero {
			t.Fatal("a gradient must reach every Param")
		}
	}
}

func TestResetRecyclesZeroedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, gain, w1, w2 := randMat(rng, 4, 3), randMat(rng, 1, 5), randMat(rng, 3, 5), randMat(rng, 5, 1)
	tp := NewTape()
	_, out, _ := forwardProgram(tp, x, gain, w1, w2)
	if err := tp.Backward(out); err != nil {
		t.Fatal(err)
	}
	first := make(map[*Matrix]bool)
	var want [][]float64
	for _, m := range tp.owned {
		first[m] = true
		want = append(want, append([]float64(nil), m.Data...))
		m.Fill(7) // dirty every buffer before handing it back
	}
	tp.Reset()
	if len(tp.nodes) != 0 || len(tp.owned) != 0 {
		t.Fatal("Reset must forget every node and owned buffer")
	}
	_, out, _ = forwardProgram(tp, x, gain, w1, w2)
	if err := tp.Backward(out); err != nil {
		t.Fatal(err)
	}
	if len(tp.owned) != len(want) {
		t.Fatalf("repeated computation used %d buffers, first run %d", len(tp.owned), len(want))
	}
	for i, m := range tp.owned {
		if !first[m] {
			t.Fatalf("a %dx%d buffer was freshly allocated on a repeated computation", m.Rows, m.Cols)
		}
		for j, v := range m.Data {
			if v != want[i][j] {
				t.Fatal("values and gradients on recycled buffers differ from the first run's")
			}
		}
	}
	tp.Reset()
	m := tp.alloc(3, 5)
	if !first[m] {
		t.Fatal("alloc after Reset must reuse a returned buffer")
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("a recycled buffer must come back zeroed")
		}
	}
}

func TestPooledTapeRecycles(t *testing.T) {
	tp := GetTape()
	tp.alloc(3, 3)
	tp.Param(NewMatrix(2, 2))
	PutTape(tp)
	if len(tp.nodes) != 0 || len(tp.owned) != 0 {
		t.Fatal("PutTape must reset the tape")
	}
}

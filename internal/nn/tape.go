package nn

import (
	"fmt"
	"math"
	"sync"
)

// Tape records a computation for reverse-mode differentiation. Build the
// forward pass through the Tape's operation methods, then call Backward on a
// scalar output to populate gradients.
//
// A Tape is also an arena: every value, gradient and scratch buffer its
// operations allocate comes from per-tape free lists, and Reset hands them
// all back for the next computation. Matrices a tape hands out are valid
// until its next Reset; nothing that outlives the computation may alias
// them. Long-lived callers take tapes from GetTape and return them with
// PutTape instead of holding one.
type Tape struct {
	nodes []*Node
	spare []*Node
	// owned lists the matrices handed out since the last Reset; free holds
	// the ones the previous computation returned, keyed by element count.
	owned []*Matrix
	free  map[int][]*Matrix
}

// Node is one value in the recorded computation.
type Node struct {
	id    int
	Value *Matrix
	// Grad is the gradient of the Backward target with respect to Value.
	// Param nodes get a zeroed Grad when recorded, so optimizers can read
	// every parameter's gradient; any other node that requires one gets it
	// when Backward first reaches it. Nodes that do not require a gradient
	// (Inputs, and everything computed from Inputs alone) never get one.
	Grad *Matrix
	// requiresGrad is set on Params and on every node computed from one:
	// only these nodes need a gradient, and only their back functions run.
	requiresGrad bool
	back         func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// tapePool recycles tapes, and with them their arenas, across callers.
var tapePool = sync.Pool{New: func() any { return NewTape() }}

// GetTape returns an empty tape from a process-wide pool. Return it with
// PutTape once nothing reads its matrices any more.
func GetTape() *Tape { return tapePool.Get().(*Tape) }

// PutTape resets t and returns it to the pool GetTape draws from.
func PutTape(t *Tape) {
	t.Reset()
	tapePool.Put(t)
}

// Reset forgets every recorded node and returns every matrix the tape
// handed out to its free lists, where later operations reuse them (zeroed)
// in place of fresh allocations. Buffers still free from before are kept
// only while they do not outweigh the computation just finished, so a tape
// moving to smaller graphs sheds the larger graphs' memory.
func (t *Tape) Reset() {
	var owned, left int
	for _, m := range t.owned {
		owned += len(m.Data)
	}
	for _, l := range t.free {
		for _, m := range l {
			left += len(m.Data)
		}
	}
	if left > owned {
		for k, l := range t.free {
			clear(l)
			t.free[k] = l[:0]
		}
	}
	if t.free == nil && len(t.owned) > 0 {
		t.free = make(map[int][]*Matrix)
	}
	for _, m := range t.owned {
		t.free[len(m.Data)] = append(t.free[len(m.Data)], m)
	}
	for k, l := range t.free {
		if len(l) == 0 {
			delete(t.free, k)
		}
	}
	clear(t.owned)
	t.owned = t.owned[:0]
	for _, n := range t.nodes {
		*n = Node{}
		t.spare = append(t.spare, n)
	}
	clear(t.nodes)
	t.nodes = t.nodes[:0]
}

// alloc returns a zeroed rows x cols matrix from the arena.
func (t *Tape) alloc(rows, cols int) *Matrix { return t.take(rows, cols, true) }

// take returns a rows x cols matrix from the arena. A recycled one is
// zeroed only when zero is set; otherwise it holds stale values, and the
// caller must overwrite every element.
func (t *Tape) take(rows, cols int, zero bool) *Matrix {
	size := rows * cols
	var m *Matrix
	if l := t.free[size]; len(l) > 0 {
		m = l[len(l)-1]
		l[len(l)-1] = nil
		t.free[size] = l[:len(l)-1]
		m.Rows, m.Cols = rows, cols
		if zero {
			clear(m.Data)
		}
	} else {
		m = NewMatrix(rows, cols)
	}
	t.owned = append(t.owned, m)
	return m
}

// scratch returns a zeroed float buffer of length n from the arena.
func (t *Tape) scratch(n int) []float64 { return t.alloc(1, n).Data }

// clone returns an arena copy of m. The copy overwrites every element, so
// the buffer is not zeroed first.
func (t *Tape) clone(m *Matrix) *Matrix {
	out := t.take(m.Rows, m.Cols, false)
	copy(out.Data, m.Data)
	return out
}

// grad returns n's gradient, allocating it zeroed on first use.
func (t *Tape) grad(n *Node) *Matrix {
	if n.Grad == nil {
		n.Grad = t.alloc(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// node appends a recorded value computed from deps; it requires a gradient
// when any dep does.
func (t *Tape) node(v *Matrix, deps ...*Node) *Node {
	var n *Node
	if k := len(t.spare); k > 0 {
		n = t.spare[k-1]
		t.spare = t.spare[:k-1]
	} else {
		n = new(Node)
	}
	n.id, n.Value = len(t.nodes), v
	for _, d := range deps {
		n.requiresGrad = n.requiresGrad || d.requiresGrad
	}
	t.nodes = append(t.nodes, n)
	return n
}

// Input records a constant leaf. No gradient flows into it, so it never
// gets a Grad.
func (t *Tape) Input(v *Matrix) *Node { return t.node(v) }

// Param records a trainable parameter leaf with a zeroed Grad.
func (t *Tape) Param(v *Matrix) *Node {
	n := t.node(v)
	n.requiresGrad = true
	t.grad(n)
	return n
}

// Backward runs reverse-mode accumulation from the given scalar node. A
// node's back function runs only if a gradient reached it.
func (t *Tape) Backward(out *Node) error {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		return fmt.Errorf("nn: Backward requires a 1x1 scalar output, got %dx%d", out.Value.Rows, out.Value.Cols)
	}
	t.grad(out).Data[0] = 1
	for i := out.id; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
	return nil
}

// MatMul records c = a x b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, b.Value.Cols)
	matmulInto(v, a.Value, b.Value)
	n := t.node(v, a, b)
	if n.requiresGrad {
		n.back = func() {
			// dA += dC x Bᵀ ; dB += Aᵀ x dC
			if a.requiresGrad {
				matmulTInto(t.grad(a), n.Grad, b.Value)
			}
			if b.requiresGrad {
				matmulTAInto(t.grad(b), a.Value, n.Grad)
			}
		}
	}
	return n
}

// MatMulT records c = a x bᵀ without materializing the transpose.
func (t *Tape) MatMulT(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, b.Value.Rows)
	matmulTInto(v, a.Value, b.Value)
	n := t.node(v, a, b)
	if n.requiresGrad {
		n.back = func() {
			// dA += dC x B ; dB += dCᵀ x A. dB skips zero dC entries where
			// the transpose path (A x Bᵀ through a materialized Bᵀ) skipped
			// zero A entries; the sums agree bit for bit because a skipped
			// term is ±0 and a gradient, accumulated from +0, is never −0.
			if a.requiresGrad {
				matmulInto(t.grad(a), n.Grad, b.Value)
			}
			if b.requiresGrad {
				matmulTAInto(t.grad(b), n.Grad, a.Value)
			}
		}
	}
	return n
}

// Add records elementwise a + b.
func (t *Tape) Add(a, b *Node) *Node {
	v := t.clone(a.Value)
	addInto(v, b.Value)
	n := t.node(v, a, b)
	if n.requiresGrad {
		n.back = func() {
			if a.requiresGrad {
				addInto(t.grad(a), n.Grad)
			}
			if b.requiresGrad {
				addInto(t.grad(b), n.Grad)
			}
		}
	}
	return n
}

// Scale records s * a for a constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := t.clone(a.Value)
	for i := range v.Data {
		v.Data[i] *= s
	}
	n := t.node(v, a)
	if n.requiresGrad {
		n.back = func() {
			ga := t.grad(a).Data
			for i, g := range n.Grad.Data {
				ga[i] += s * g
			}
		}
	}
	return n
}

// Mul records elementwise a * b (Hadamard).
func (t *Tape) Mul(a, b *Node) *Node {
	if a.Value.Rows != b.Value.Rows || a.Value.Cols != b.Value.Cols {
		panic("nn: Mul shape mismatch")
	}
	v := t.clone(a.Value)
	for i := range v.Data {
		v.Data[i] *= b.Value.Data[i]
	}
	n := t.node(v, a, b)
	if n.requiresGrad {
		n.back = func() {
			if a.requiresGrad {
				ga := t.grad(a).Data
				for i, g := range n.Grad.Data {
					ga[i] += g * b.Value.Data[i]
				}
			}
			if b.requiresGrad {
				gb := t.grad(b).Data
				for i, g := range n.Grad.Data {
					gb[i] += g * a.Value.Data[i]
				}
			}
		}
	}
	return n
}

// AddRowVector records a + broadcast(row) where row is 1 x Cols.
func (t *Tape) AddRowVector(a, row *Node) *Node {
	if row.Value.Rows != 1 || row.Value.Cols != a.Value.Cols {
		panic("nn: AddRowVector shape mismatch")
	}
	v := t.clone(a.Value)
	for i := 0; i < v.Rows; i++ {
		r := v.Row(i)
		for j := range r {
			r[j] += row.Value.Data[j]
		}
	}
	n := t.node(v, a, row)
	if n.requiresGrad {
		n.back = func() {
			if a.requiresGrad {
				addInto(t.grad(a), n.Grad)
			}
			if row.requiresGrad {
				gr := t.grad(row).Data
				for i := 0; i < n.Grad.Rows; i++ {
					r := n.Grad.Row(i)
					for j := range r {
						gr[j] += r[j]
					}
				}
			}
		}
	}
	return n
}

// ELU records x for x>0, alpha*(e^x - 1) otherwise.
func (t *Tape) ELU(a *Node, alpha float64) *Node {
	v := t.clone(a.Value)
	for i, x := range v.Data {
		if x < 0 {
			v.Data[i] = alpha * (math.Exp(x) - 1)
		}
	}
	n := t.node(v, a)
	if n.requiresGrad {
		n.back = func() {
			ga := t.grad(a).Data
			for i, g := range n.Grad.Data {
				if a.Value.Data[i] < 0 {
					g *= n.Value.Data[i] + alpha // d/dx alpha(e^x-1) = alpha e^x
				}
				ga[i] += g
			}
		}
	}
	return n
}

// SoftmaxRows records a row-wise softmax. Rows are independent, so both
// passes run in row bands across cores.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	v := t.alloc(a.Value.Rows, a.Value.Cols)
	rows := v.Rows
	if size := bandRows(rows, len(v.Data)); size < rows {
		parallelRows(rows, size, func(lo, hi int) { softmaxBand(v, a.Value, lo, hi) })
	} else {
		softmaxBand(v, a.Value, 0, rows)
	}
	n := t.node(v, a)
	if n.requiresGrad {
		n.back = func() {
			ga := t.grad(a)
			if size := bandRows(rows, len(v.Data)); size < rows {
				parallelRows(rows, size, func(lo, hi int) { softmaxGradBand(ga, v, n.Grad, lo, hi) })
			} else {
				softmaxGradBand(ga, v, n.Grad, 0, rows)
			}
		}
	}
	return n
}

// softmaxBand writes rows [lo, hi) of the row softmax of x into v.
func softmaxBand(v, x *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		in := x.Row(i)
		out := v.Row(i)
		maxv := math.Inf(-1)
		for _, x := range in {
			if x > maxv {
				maxv = x
			}
		}
		if math.IsInf(maxv, -1) {
			continue
		}
		var sum float64
		for j, x := range in {
			out[j] = math.Exp(x - maxv)
			sum += out[j]
		}
		for j := range out {
			out[j] /= sum
		}
	}
}

// softmaxGradBand adds rows [lo, hi) of the softmax gradient into gx, given
// the softmax output y and its gradient gy.
func softmaxGradBand(gx, y, gy *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		yr, gyr, gxr := y.Row(i), gy.Row(i), gx.Row(i)
		var dot float64
		for j := range yr {
			dot += yr[j] * gyr[j]
		}
		for j := range yr {
			gxr[j] += yr[j] * (gyr[j] - dot)
		}
	}
}

// ConcatCols records [a | b].
func (t *Tape) ConcatCols(a, b *Node) *Node {
	if a.Value.Rows != b.Value.Rows {
		panic("nn: ConcatCols row mismatch")
	}
	v := t.alloc(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	for i := 0; i < v.Rows; i++ {
		copy(v.Row(i), a.Value.Row(i))
		copy(v.Row(i)[a.Value.Cols:], b.Value.Row(i))
	}
	n := t.node(v, a, b)
	if n.requiresGrad {
		n.back = func() {
			for i := 0; i < v.Rows; i++ {
				g := n.Grad.Row(i)
				if a.requiresGrad {
					ag := t.grad(a).Row(i)
					for j := range ag {
						ag[j] += g[j]
					}
				}
				if b.requiresGrad {
					bg := t.grad(b).Row(i)
					for j := range bg {
						bg[j] += g[a.Value.Cols+j]
					}
				}
			}
		}
	}
	return n
}

// LayerNorm records per-row normalisation with learnable gain and bias
// (1 x Cols each): y = gain * (x - mean)/sqrt(var + eps) + bias.
func (t *Tape) LayerNorm(a, gain, bias *Node) *Node {
	const eps = 1e-5
	rows, cols := a.Value.Rows, a.Value.Cols
	v := t.alloc(rows, cols)
	invStd := t.scratch(rows)
	norm := t.alloc(rows, cols)
	for i := 0; i < rows; i++ {
		in := a.Value.Row(i)
		var mean float64
		for _, x := range in {
			mean += x
		}
		mean /= float64(cols)
		var variance float64
		for _, x := range in {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(cols)
		is := 1 / math.Sqrt(variance+eps)
		invStd[i] = is
		out := v.Row(i)
		nr := norm.Row(i)
		for j, x := range in {
			nr[j] = (x - mean) * is
			out[j] = gain.Value.Data[j]*nr[j] + bias.Value.Data[j]
		}
	}
	n := t.node(v, a, gain, bias)
	if n.requiresGrad {
		n.back = func() {
			gn := t.scratch(cols)
			var gg, gb []float64
			if gain.requiresGrad {
				gg = t.grad(gain).Data
			}
			if bias.requiresGrad {
				gb = t.grad(bias).Data
			}
			for i := 0; i < rows; i++ {
				gy := n.Grad.Row(i)
				nr := norm.Row(i)
				var sumG, sumGN float64
				for j := range gy {
					if gg != nil {
						gg[j] += gy[j] * nr[j]
					}
					if gb != nil {
						gb[j] += gy[j]
					}
					gn[j] = gy[j] * gain.Value.Data[j]
					sumG += gn[j]
					sumGN += gn[j] * nr[j]
				}
				if !a.requiresGrad {
					continue
				}
				gx := t.grad(a).Row(i)
				is := invStd[i]
				for j := range gy {
					gx[j] += is * (gn[j] - sumG/float64(cols) - nr[j]*sumGN/float64(cols))
				}
			}
		}
	}
	return n
}

// PoolRows records per-group mean pooling: row g of the result is
// Σ_{m ∈ groups[g]} (1/|groups[g]|)·a_m, summed in the order the group
// lists its members (ascending row index, for sums that match a dense
// membership matmul bit for bit). An empty group pools to a zero row.
func (t *Tape) PoolRows(a *Node, groups [][]int) *Node {
	cols := a.Value.Cols
	v := t.alloc(len(groups), cols)
	for g, ms := range groups {
		if len(ms) == 0 {
			continue
		}
		w := 1.0 / float64(len(ms))
		out := v.Row(g)
		for _, m := range ms {
			ar := a.Value.Row(m)
			for c := range out {
				out[c] += w * ar[c]
			}
		}
	}
	n := t.node(v, a)
	if n.requiresGrad {
		n.back = func() {
			ga := t.grad(a)
			for g, ms := range groups {
				if len(ms) == 0 {
					continue
				}
				w := 1.0 / float64(len(ms))
				gout := n.Grad.Row(g)
				for _, m := range ms {
					gr := ga.Row(m)
					for c := range gout {
						gr[c] += w * gout[c]
					}
				}
			}
		}
	}
	return n
}

// Sum records the scalar sum of all elements.
func (t *Tape) Sum(a *Node) *Node {
	v := t.alloc(1, 1)
	for _, x := range a.Value.Data {
		v.Data[0] += x
	}
	n := t.node(v, a)
	if n.requiresGrad {
		n.back = func() {
			g := n.Grad.Data[0]
			ga := t.grad(a).Data
			for i := range ga {
				ga[i] += g
			}
		}
	}
	return n
}

// GatherLogProbs records sum_i weight[i] * log(p[i][pick[i]] + eps): the
// REINFORCE surrogate over per-row categorical distributions p.
func (t *Tape) GatherLogProbs(p *Node, pick []int, weight []float64) *Node {
	const eps = 1e-12
	if len(pick) != p.Value.Rows || len(weight) != p.Value.Rows {
		panic("nn: GatherLogProbs length mismatch")
	}
	v := t.alloc(1, 1)
	for i, a := range pick {
		v.Data[0] += weight[i] * math.Log(p.Value.At(i, a)+eps)
	}
	n := t.node(v, p)
	if n.requiresGrad {
		n.back = func() {
			g := n.Grad.Data[0]
			gp := t.grad(p).Data
			for i, a := range pick {
				gp[i*p.Value.Cols+a] += g * weight[i] / (p.Value.At(i, a) + eps)
			}
		}
	}
	return n
}

// Entropy records sum_i -sum_j p log p over per-row distributions (the
// exploration bonus H(pi) of the paper's objective).
func (t *Tape) Entropy(p *Node) *Node {
	const eps = 1e-12
	v := t.alloc(1, 1)
	for _, x := range p.Value.Data {
		if x > 0 {
			v.Data[0] -= x * math.Log(x+eps)
		}
	}
	n := t.node(v, p)
	if n.requiresGrad {
		n.back = func() {
			g := n.Grad.Data[0]
			gp := t.grad(p).Data
			for i, x := range p.Value.Data {
				if x > 0 {
					gp[i] += g * (-math.Log(x+eps) - 1)
				}
			}
		}
	}
	return n
}

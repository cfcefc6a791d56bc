// Package policy implements the strategy network: a self-attention encoder
// over the group-embedding sequence followed by a per-group softmax over the
// M+4 action space (MP on each of M devices, or one of the four DP schemes).
// The paper uses Transformer-XL; at N <= 2000 groups its segment recurrence
// is unnecessary, so this is a standard pre-norm self-attention encoder — a
// documented simplification (see DESIGN.md).
package policy

import (
	"fmt"
	"math"
	"math/rand"

	"heterog/internal/nn"
)

// block is one encoder block: single-head self-attention + feed-forward,
// each with residual connection and layer normalisation.
type block struct {
	Wq, Wk, Wv, Wo *nn.Matrix
	FF1, FF2       *nn.Matrix
	B1, B2         *nn.Matrix // feed-forward biases (1 x dim)
	G1, Bb1        *nn.Matrix // layer norm 1 gain/bias
	G2, Bb2        *nn.Matrix // layer norm 2 gain/bias
}

// Network maps G x InDim group embeddings to G x Actions logits.
type Network struct {
	Blocks []*block
	Out    *nn.Matrix // dim x actions
	OutB   *nn.Matrix // 1 x actions
	Proj   *nn.Matrix // InDim x dim input projection

	InDim, Dim, FFDim, Actions int
}

// Config sizes the strategy network. The paper stacks 8 Transformer-XL
// layers; 2 blocks train far faster on CPU.
type Config struct {
	InDim   int
	Dim     int
	FFDim   int
	Blocks  int
	Actions int
}

// DefaultConfig returns a CPU-friendly network shape.
func DefaultConfig(inDim, actions int) Config {
	return Config{InDim: inDim, Dim: 32, FFDim: 64, Blocks: 2, Actions: actions}
}

// PaperConfig returns the paper's published 8-block strategy network.
func PaperConfig(inDim, actions int) Config {
	return Config{InDim: inDim, Dim: 64, FFDim: 128, Blocks: 8, Actions: actions}
}

// New builds a strategy network with Xavier-initialized weights.
func New(cfg Config, rng *rand.Rand) (*Network, error) {
	if cfg.InDim < 1 || cfg.Dim < 1 || cfg.FFDim < 1 || cfg.Blocks < 1 || cfg.Actions < 2 {
		return nil, fmt.Errorf("policy: invalid config %+v", cfg)
	}
	net := &Network{InDim: cfg.InDim, Dim: cfg.Dim, FFDim: cfg.FFDim, Actions: cfg.Actions}
	mk := func(r, c int) *nn.Matrix {
		m := nn.NewMatrix(r, c)
		m.Randomize(rng)
		return m
	}
	net.Proj = mk(cfg.InDim, cfg.Dim)
	for i := 0; i < cfg.Blocks; i++ {
		b := &block{
			Wq: mk(cfg.Dim, cfg.Dim), Wk: mk(cfg.Dim, cfg.Dim),
			Wv: mk(cfg.Dim, cfg.Dim), Wo: mk(cfg.Dim, cfg.Dim),
			FF1: mk(cfg.Dim, cfg.FFDim), FF2: mk(cfg.FFDim, cfg.Dim),
			B1: nn.NewMatrix(1, cfg.FFDim), B2: nn.NewMatrix(1, cfg.Dim),
			G1: ones(1, cfg.Dim), Bb1: nn.NewMatrix(1, cfg.Dim),
			G2: ones(1, cfg.Dim), Bb2: nn.NewMatrix(1, cfg.Dim),
		}
		net.Blocks = append(net.Blocks, b)
	}
	net.Out = mk(cfg.Dim, cfg.Actions)
	net.OutB = nn.NewMatrix(1, cfg.Actions)
	return net, nil
}

func ones(r, c int) *nn.Matrix {
	m := nn.NewMatrix(r, c)
	m.Fill(1)
	return m
}

// Forward computes per-group action probabilities (G x Actions) from group
// embeddings, registering parameter nodes in params.
func (net *Network) Forward(t *nn.Tape, groups *nn.Node, params *[]*nn.Node) (*nn.Node, error) {
	if groups.Value.Cols != net.InDim {
		return nil, fmt.Errorf("policy: embeddings have width %d, want %d", groups.Value.Cols, net.InDim)
	}
	p := func(m *nn.Matrix) *nn.Node {
		node := t.Param(m)
		*params = append(*params, node)
		return node
	}
	x := t.MatMul(groups, p(net.Proj))
	scale := 1.0 / math.Sqrt(float64(net.Dim))
	for _, b := range net.Blocks {
		// Self-attention with residual + layer norm.
		q := t.MatMul(x, p(b.Wq))
		k := t.MatMul(x, p(b.Wk))
		v := t.MatMul(x, p(b.Wv))
		scores := t.Scale(t.MatMulT(q, k), scale)
		attn := t.SoftmaxRows(scores)
		ctx := t.MatMul(t.MatMul(attn, v), p(b.Wo))
		x = t.LayerNorm(t.Add(x, ctx), p(b.G1), p(b.Bb1))
		// Feed-forward with residual + layer norm.
		ff := t.AddRowVector(t.MatMul(x, p(b.FF1)), p(b.B1))
		ff = t.ELU(ff, 1.0)
		ff = t.AddRowVector(t.MatMul(ff, p(b.FF2)), p(b.B2))
		x = t.LayerNorm(t.Add(x, ff), p(b.G2), p(b.Bb2))
	}
	logits := t.AddRowVector(t.MatMul(x, p(net.Out)), p(net.OutB))
	return t.SoftmaxRows(logits), nil
}

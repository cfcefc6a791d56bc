// Package gnn implements the graph attention network (GAT) of the paper's
// Agent: multi-head attention layers that aggregate each operation's features
// over its graph neighbourhood, followed by group pooling that reduces
// per-node embeddings to per-group embeddings. Built on the from-scratch
// autodiff engine in internal/nn.
package gnn

import (
	"fmt"
	"math/rand"

	"heterog/internal/nn"
)

// Head holds one attention head's parameters.
type Head struct {
	W  *nn.Matrix // in x out projection
	A1 *nn.Matrix // out x 1 source attention vector
	A2 *nn.Matrix // out x 1 target attention vector
}

// Layer is one multi-head GAT layer; head outputs are concatenated.
type Layer struct {
	Heads []*Head
	In    int
	Out   int // per-head output dim
}

// GAT is a stack of multi-head attention layers plus a group-pooling
// projection producing per-group embeddings.
type GAT struct {
	Layers []*Layer
	// Pool projects pooled member embeddings to the group embedding (the
	// paper's g_n = sigma(sum W e_o), with the sum taken as a mean so group
	// embeddings share a scale regardless of group size).
	Pool *nn.Matrix

	InDim, HiddenDim, OutDim int
}

// Config sizes the network. The paper uses 12 layers x 8 heads; smaller
// configurations train much faster on CPU with modest quality loss.
type Config struct {
	InDim     int // node feature width
	HiddenDim int // per-head hidden width
	OutDim    int // group embedding width
	Layers    int
	Heads     int
}

// DefaultConfig returns a CPU-friendly GAT shape.
func DefaultConfig(inDim int) Config {
	return Config{InDim: inDim, HiddenDim: 16, OutDim: 32, Layers: 2, Heads: 4}
}

// PaperConfig returns the paper's published GAT shape (12 layers, 8 heads).
func PaperConfig(inDim int) Config {
	return Config{InDim: inDim, HiddenDim: 16, OutDim: 64, Layers: 12, Heads: 8}
}

// New builds a GAT with Xavier-initialized weights.
func New(cfg Config, rng *rand.Rand) (*GAT, error) {
	if cfg.Layers < 1 || cfg.Heads < 1 || cfg.InDim < 1 || cfg.HiddenDim < 1 || cfg.OutDim < 1 {
		return nil, fmt.Errorf("gnn: invalid config %+v", cfg)
	}
	g := &GAT{InDim: cfg.InDim, HiddenDim: cfg.HiddenDim, OutDim: cfg.OutDim}
	in := cfg.InDim
	for l := 0; l < cfg.Layers; l++ {
		layer := &Layer{In: in, Out: cfg.HiddenDim}
		for h := 0; h < cfg.Heads; h++ {
			head := &Head{
				W:  nn.NewMatrix(in, cfg.HiddenDim),
				A1: nn.NewMatrix(cfg.HiddenDim, 1),
				A2: nn.NewMatrix(cfg.HiddenDim, 1),
			}
			head.W.Randomize(rng)
			head.A1.Randomize(rng)
			head.A2.Randomize(rng)
			layer.Heads = append(layer.Heads, head)
		}
		g.Layers = append(g.Layers, layer)
		in = cfg.HiddenDim * cfg.Heads
	}
	g.Pool = nn.NewMatrix(in, cfg.OutDim)
	g.Pool.Randomize(rng)
	return g, nil
}

// Neighborhoods builds the self-inclusive undirected neighbour lists the
// sparse attention op consumes, from directed edge pairs (src, dst).
func Neighborhoods(n int, edges [][2]int) [][]int {
	nb := make([][]int, n)
	for i := 0; i < n; i++ {
		nb[i] = append(nb[i], i)
	}
	for _, e := range edges {
		nb[e[0]] = append(nb[e[0]], e[1])
		nb[e[1]] = append(nb[e[1]], e[0])
	}
	return nb
}

// Forward runs the GAT on node features (N x InDim) with self-inclusive
// neighbour lists (see Neighborhoods) and per-group member lists (each a
// strictly ascending list of node indices), returning per-group embeddings
// (G x OutDim) and registering every parameter node in params. A group's
// embedding pools the mean of its members' final-layer embeddings.
// Attention is computed sparsely per edge, so cost is O(E), not O(N²).
func (g *GAT) Forward(t *nn.Tape, features *nn.Matrix, neighbors [][]int, members [][]int, params *[]*nn.Node) (*nn.Node, error) {
	n := features.Rows
	if len(neighbors) != n {
		return nil, fmt.Errorf("gnn: %d neighbour lists for %d nodes", len(neighbors), n)
	}
	for gi, ms := range members {
		for k, m := range ms {
			if m < 0 || m >= n || (k > 0 && m <= ms[k-1]) {
				return nil, fmt.Errorf("gnn: group %d members %v are not ascending node indices below %d", gi, ms, n)
			}
		}
	}
	if features.Cols != g.InDim {
		return nil, fmt.Errorf("gnn: features have width %d, want %d", features.Cols, g.InDim)
	}
	h := t.Input(features)
	for _, layer := range g.Layers {
		var heads []*nn.Node
		for _, head := range layer.Heads {
			w := t.Param(head.W)
			a1 := t.Param(head.A1)
			a2 := t.Param(head.A2)
			*params = append(*params, w, a1, a2)
			hw := t.MatMul(h, w)   // N x out
			s1 := t.MatMul(hw, a1) // N x 1
			s2 := t.MatMul(hw, a2) // N x 1
			agg := t.GraphAttention(hw, s1, s2, neighbors)
			heads = append(heads, t.ELU(agg, 1.0))
		}
		out := heads[0]
		for i := 1; i < len(heads); i++ {
			out = t.ConcatCols(out, heads[i])
		}
		h = out
	}
	// Group pooling: mean of member embeddings, project, non-linearity.
	pooled := t.PoolRows(h, members) // G x hidden
	pw := t.Param(g.Pool)
	*params = append(*params, pw)
	return t.ELU(t.MatMul(pooled, pw), 1.0), nil
}

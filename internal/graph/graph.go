// Package graph defines the computation-DAG intermediate representation used
// throughout HeteroG-Go. A Graph is a directed acyclic graph whose nodes are
// operations (Conv2D, MatMul, gradient ops, ...) and whose edges are tensors.
// It plays the role of TensorFlow's graphdef in the paper: the Graph Analyzer
// consumes it, the Strategy Maker annotates it, and the Graph Compiler
// rewrites it into a distributed training graph.
package graph

import (
	"fmt"
	"sort"
)

// OpKind identifies the computational flavour of an operation. The profiler
// assigns per-kind efficiency factors, and the compiler treats some kinds
// (Split, Concat, communication ops) specially.
type OpKind int

const (
	// Forward computation kinds.
	KindConv2D OpKind = iota
	KindConv1D
	KindMatMul
	KindDepthwiseConv
	KindPool
	KindBatchNorm
	KindLayerNorm
	KindActivation
	KindSoftmax
	KindEmbeddingLookup
	KindAttention
	KindElementwise
	KindLoss

	// Backward computation kinds.
	KindConv2DBpFilter
	KindConv2DBpInput
	KindConv1DBp
	KindMatMulBp
	KindDepthwiseConvBp
	KindPoolBp
	KindBatchNormBp
	KindLayerNormBp
	KindActivationBp
	KindSoftmaxBp
	KindEmbeddingBp
	KindAttentionBp
	KindElementwiseBp

	// Parameter update.
	KindApplyGradient

	// Graph-rewrite kinds inserted by the compiler.
	KindSplit
	KindConcat
	KindGradAgg   // PS-side gradient aggregation
	KindSend      // tensor transfer over a link (placed on a link device)
	KindAllReduce // NCCL collective chunk (placed on a link device)
	KindNoOp
)

var kindNames = map[OpKind]string{
	KindConv2D:          "Conv2D",
	KindConv1D:          "Conv1D",
	KindMatMul:          "MatMul",
	KindDepthwiseConv:   "DepthwiseConv",
	KindPool:            "Pool",
	KindBatchNorm:       "BatchNorm",
	KindLayerNorm:       "LayerNorm",
	KindActivation:      "Activation",
	KindSoftmax:         "Softmax",
	KindEmbeddingLookup: "EmbeddingLookup",
	KindAttention:       "Attention",
	KindElementwise:     "Elementwise",
	KindLoss:            "Loss",
	KindConv2DBpFilter:  "Conv2DBpFilter",
	KindConv2DBpInput:   "Conv2DBpInput",
	KindConv1DBp:        "Conv1DBp",
	KindMatMulBp:        "MatMulBp",
	KindDepthwiseConvBp: "DepthwiseConvBp",
	KindPoolBp:          "PoolBp",
	KindBatchNormBp:     "BatchNormBp",
	KindLayerNormBp:     "LayerNormBp",
	KindActivationBp:    "ActivationBp",
	KindSoftmaxBp:       "SoftmaxBp",
	KindEmbeddingBp:     "EmbeddingBp",
	KindAttentionBp:     "AttentionBp",
	KindElementwiseBp:   "ElementwiseBp",
	KindApplyGradient:   "ApplyGradient",
	KindSplit:           "Split",
	KindConcat:          "Concat",
	KindGradAgg:         "GradAgg",
	KindSend:            "Send",
	KindAllReduce:       "AllReduce",
	KindNoOp:            "NoOp",
}

func (k OpKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsBackward reports whether the kind is a backward-propagation computation.
func (k OpKind) IsBackward() bool {
	return k >= KindConv2DBpFilter && k <= KindElementwiseBp
}

// IsComm reports whether the kind is a communication operation (executed on a
// link device rather than a GPU).
func (k OpKind) IsComm() bool {
	return k == KindSend || k == KindAllReduce
}

// Op is a single operation node. FLOPs drive its computation cost, ParamBytes
// is the size of trainable parameters it owns (gradient-aggregation volume),
// and OutputBytes is the size of its output tensor at the graph's reference
// batch size.
type Op struct {
	ID   int
	Name string
	Kind OpKind

	// FLOPs is floating-point operations at the reference batch size.
	FLOPs float64
	// ParamBytes is the byte size of trainable parameters owned by this op.
	// Non-zero only for parameterized forward ops; the matching backward op
	// produces a gradient of this size that must be aggregated under DP.
	ParamBytes int64
	// OutputBytes is the output tensor size at the reference batch size.
	OutputBytes int64
	// BatchDim reports whether the output carries the batch dimension and
	// may therefore be split across replicas.
	BatchDim bool

	// Inputs are producer ops whose outputs this op consumes.
	Inputs []*Op
	// ControlDeps are extra ordering-only dependencies (no tensor flows).
	ControlDeps []*Op

	// Layer is a model-specific layer index used for grouping diagnostics.
	Layer int

	// Forward links a backward op to the forward op whose parameters it
	// differentiates. Nil for ops without a forward counterpart.
	Forward *Op

	// MemScale multiplies the op's resident-memory footprint relative to
	// OutputBytes (default 1 when zero). Attention Q/K/V projections keep a
	// second, head-transposed copy of their output, for example.
	MemScale float64

	// SparseGradBytes, when non-zero on a weight-gradient op, is the size of
	// the gradient in sparse (IndexedSlices) form: embedding lookups touch
	// only the rows of the batch's tokens. Parameter-server aggregation can
	// ship the sparse form; AllReduce must densify to the full ParamBytes
	// (the Parallax observation the paper builds on).
	SparseGradBytes int64
}

// ComputeScales reports whether the op's computation cost scales with the
// per-replica batch fraction. Backward parameter-gradient ops produce a
// batch-independent output (the gradient has parameter shape) but their work
// still scales with the local shard size; ApplyGradient always touches the
// full parameter tensor.
func (op *Op) ComputeScales() bool {
	if op.Kind == KindApplyGradient {
		return false
	}
	return op.BatchDim || op.Kind.IsBackward()
}

// Graph is a DAG of operations plus model-level metadata.
type Graph struct {
	Name string
	Ops  []*Op
	// BatchSize is the reference global batch size all FLOPs/OutputBytes
	// figures in this graph were computed at.
	BatchSize int
	// OptimizerSlots is how many parameter-sized tensors training keeps
	// resident per parameter: 3 for SGD with momentum (params, grads,
	// momentum — the ImageNet CNNs), 4 for Adam (two moment tensors — the
	// NLP models). Zero means the default of 3.
	OptimizerSlots int

	nextID int
}

// New returns an empty graph with the given name and reference batch size.
func New(name string, batchSize int) *Graph {
	return &Graph{Name: name, BatchSize: batchSize}
}

// AddOp appends a new operation with the given attributes and input edges and
// returns it. IDs are assigned densely in insertion order.
func (g *Graph) AddOp(name string, kind OpKind, inputs ...*Op) *Op {
	op := &Op{ID: g.nextID, Name: name, Kind: kind, Inputs: inputs}
	g.nextID++
	g.Ops = append(g.Ops, op)
	return op
}

// NumOps returns the number of operations in the graph.
func (g *Graph) NumOps() int { return len(g.Ops) }

// Successors builds the successor adjacency list (tensor edges and control
// dependencies combined).
func (g *Graph) Successors() [][]*Op {
	succ := make([][]*Op, len(g.Ops))
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			succ[in.ID] = append(succ[in.ID], op)
		}
		for _, in := range op.ControlDeps {
			succ[in.ID] = append(succ[in.ID], op)
		}
	}
	return succ
}

// TopoSort returns the ops in a topological order, or an error if the graph
// contains a cycle. The order is deterministic (Kahn's algorithm with a
// smallest-ID tie-break).
func (g *Graph) TopoSort() ([]*Op, error) {
	indeg := make([]int, len(g.Ops))
	succ := g.Successors()
	for _, op := range g.Ops {
		indeg[op.ID] = len(op.Inputs) + len(op.ControlDeps)
	}
	// Min-ID ready set for determinism.
	ready := make([]int, 0, len(g.Ops))
	for _, op := range g.Ops {
		if indeg[op.ID] == 0 {
			ready = append(ready, op.ID)
		}
	}
	byID := make(map[int]*Op, len(g.Ops))
	for _, op := range g.Ops {
		byID[op.ID] = op
	}
	sort.Ints(ready)
	order := make([]*Op, 0, len(g.Ops))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		op := byID[id]
		order = append(order, op)
		for _, s := range succ[id] {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				// Insert keeping ready sorted.
				i := sort.SearchInts(ready, s.ID)
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = s.ID
			}
		}
	}
	if len(order) != len(g.Ops) {
		return nil, fmt.Errorf("graph %q contains a cycle (%d of %d ops ordered)", g.Name, len(order), len(g.Ops))
	}
	return order, nil
}

// Validate checks structural invariants: dense unique IDs, acyclicity, and
// that every input edge references an op present in the graph.
func (g *Graph) Validate() error {
	seen := make(map[int]bool, len(g.Ops))
	for i, op := range g.Ops {
		if op == nil {
			return fmt.Errorf("graph %q: nil op at index %d", g.Name, i)
		}
		if seen[op.ID] {
			return fmt.Errorf("graph %q: duplicate op ID %d", g.Name, op.ID)
		}
		seen[op.ID] = true
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if in == nil {
				return fmt.Errorf("graph %q: op %q has nil input", g.Name, op.Name)
			}
			if !seen[in.ID] {
				return fmt.Errorf("graph %q: op %q input %q not in graph", g.Name, op.Name, in.Name)
			}
		}
		for _, in := range op.ControlDeps {
			if !seen[in.ID] {
				return fmt.Errorf("graph %q: op %q control dep %q not in graph", g.Name, op.Name, in.Name)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Stats summarizes a graph for reports and features.
type Stats struct {
	Ops          int
	Edges        int
	ParamBytes   int64
	TotalFLOPs   float64
	OutputBytes  int64
	ParamizedOps int
}

// ComputeStats walks the graph once and returns aggregate statistics.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Ops = len(g.Ops)
	for _, op := range g.Ops {
		s.Edges += len(op.Inputs)
		s.ParamBytes += op.ParamBytes
		s.TotalFLOPs += op.FLOPs
		s.OutputBytes += op.OutputBytes
		if op.ParamBytes > 0 {
			s.ParamizedOps++
		}
	}
	return s
}

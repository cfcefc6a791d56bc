// Package plan implements the planning pipeline: an ordered sequence of
// deterministic passes that lower a logical training graph plus a Part-I
// strategy into the distributed execution graph the scheduler and simulator
// consume. Where the original compiler interleaved placement, edge lowering,
// aggregation lowering and memory accounting in one routine, each concern is
// now an individually testable Pass over a shared set of Artifacts:
//
//	Layout               placement + replica fractions per logical op
//	EdgeLowering         op instances + Split/Concat/Send glue across layouts
//	AggregationLowering  local apply / AllReduce / parameter-server backends
//	MemoryPlanning       activation buffers + optimizer-slot residency
//	Materialize          dense IDs + NIC-lane assignment in emission order
//	Verify               structural invariants (typed errors, see verify.go)
//	Ordering             execution priorities (upward ranks or FIFO)
//
// The pipeline is behavior-preserving with respect to the monolithic
// compiler: for any (graph, cluster, strategy, cost, iterations, ablations)
// input it emits a bit-identical DistGraph. Determinism hinges on emission
// order — dist-op IDs feed FIFO priorities and simulator tie-breaks, and NIC
// lanes are handed out round-robin per transfer — so lowering passes append
// nodes into per-(iteration, topo-position) buckets and Materialize flattens
// them in exactly the order the monolith created ops.
package plan

import (
	"fmt"
	"time"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// Pass is one stage of the planning pipeline. Passes communicate only
// through the Artifacts they receive; a pass must be deterministic in its
// inputs.
type Pass interface {
	Name() string
	Run(a *Artifacts) error
}

// PassMetrics records one pass execution for instrumentation: wall time, how
// many ops/nodes it produced or checked, and how many bytes of tensor traffic
// it routed.
type PassMetrics struct {
	Pass     string        `json:"pass"`
	Duration time.Duration `json:"duration_ns"`
	Ops      int           `json:"ops"`
	Bytes    int64         `json:"bytes"`
}

// Pipeline runs passes in order, recording per-pass metrics on the
// artifacts. A pass failure aborts the run with the pass name wrapped around
// the underlying (possibly typed) error.
type Pipeline struct {
	Passes []Pass
}

// NewPipeline builds a pipeline over an explicit pass list; use
// LoweringPasses/Passes for the standard sequences.
func NewPipeline(passes ...Pass) *Pipeline { return &Pipeline{Passes: passes} }

// Run executes the pipeline over the artifacts.
func (p *Pipeline) Run(a *Artifacts) error {
	for _, ps := range p.Passes {
		start := time.Now()
		a.statOps, a.statBytes = 0, 0
		if err := ps.Run(a); err != nil {
			return fmt.Errorf("pass %s: %w", ps.Name(), err)
		}
		a.Metrics = append(a.Metrics, PassMetrics{
			Pass:     ps.Name(),
			Duration: time.Since(start),
			Ops:      a.statOps,
			Bytes:    a.statBytes,
		})
	}
	return nil
}

// LoweringPasses is the compile-side pipeline: everything from placement
// through the verified DistGraph, excluding Ordering. Lowered artifacts are
// order-independent, so an evaluator can cache them and re-run only Ordering
// when switching between ranked and FIFO execution.
func LoweringPasses() []Pass {
	return []Pass{
		LayoutPass{},
		EdgeLoweringPass{},
		NewAggregationLowering(),
		MemoryPlanningPass{},
		MaterializePass{},
		VerifyPass{},
	}
}

// Passes is the full standard pipeline including Ordering.
func Passes() []Pass { return append(LoweringPasses(), OrderingPass{}) }

// PassOrder lists the canonical pass names in pipeline order (for stable
// reporting).
func PassOrder() []string {
	ps := Passes()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}

// Artifacts is the shared state threaded through the pipeline: the immutable
// inputs, the products of each pass, and per-pass metrics. Zero-value fields
// are filled in by the pass that owns them.
type Artifacts struct {
	// Inputs (set before running the pipeline).
	Graph      *graph.Graph
	Cluster    *cluster.Cluster
	Strategy   *strategy.Strategy
	Cost       compiler.Coster
	Iterations int
	Ablate     compiler.Ablations
	// UseFIFO selects the Ordering pass output: true falls back to the
	// framework's FIFO order, false uses upward-rank list scheduling.
	UseFIFO bool

	// Layout products.
	Order   []*graph.Op // logical ops in deterministic topo order
	Layouts []Layout    // logical op ID -> replica layout (zero: not placed)

	// Lowering state (internal to the lowering passes).
	prog *program
	slab slab
	// nodeOf maps a dense dist-op ID to its plan node; built by Materialize.
	nodeOf []*Node
	// devs is the cluster's device count, the width of an instance row.
	devs int
	// instances[iter] holds one row of devs entries per logical op ID: the
	// op's instance on each device, nil where it has no replica.
	instances [][]*Node
	// ready[iter] holds one row per forward op ID: the op that delivers the
	// op's updated parameters on each device (see SetReady).
	ready        [][]*compiler.DistOp
	unitIDs      []int    // unitIDs[u] == u; backs the shared single-unit lists
	synth        graph.Op // scratch op for pricing synthesized glue
	deferredCtrl []ctrlEdge
	psSites      map[int]*psSiteRec // applyOpID -> PS load-balancer record

	// MemoryPlanning product.
	PersistentBytes []int64

	// Materialize product: the finished distributed graph. Read-only once
	// built — cached artifacts are shared across concurrent simulations.
	Dist *compiler.DistGraph

	// Verify product: a topological order of Dist.Ops, taken from the
	// adjacency Verify builds for its own checks. Ordering and the
	// evaluator's critical-path bound read it instead of rebuilding the
	// adjacency. Read-only, like Dist.
	Topo []*compiler.DistOp

	// Ordering product.
	Priorities []float64

	// Metrics accumulates one entry per executed pass.
	Metrics []PassMetrics

	// Per-pass counters, reset by Pipeline.Run around each pass.
	statOps   int
	statBytes int64
}

// NewArtifacts seeds artifacts with the pipeline inputs.
func NewArtifacts(g *graph.Graph, c *cluster.Cluster, s *strategy.Strategy, cost compiler.Coster, iters int, ab compiler.Ablations) *Artifacts {
	return &Artifacts{Graph: g, Cluster: c, Strategy: s, Cost: cost, Iterations: iters, Ablate: ab}
}

// inst returns op id's instance row in iteration it: its instance on each
// device, nil where it has none.
func (a *Artifacts) inst(it, id int) []*Node {
	return a.instances[it][id*a.devs : (id+1)*a.devs : (id+1)*a.devs]
}

// readyRow returns forward op id's parameter-ready row in iteration it.
func (a *Artifacts) readyRow(it, id int) []*compiler.DistOp {
	return a.ready[it][id*a.devs : (id+1)*a.devs : (id+1)*a.devs]
}

// unit returns the one-element unit list {u}. The list is shared by every op
// on that unit and must not be modified.
func (a *Artifacts) unit(u int) []int { return a.unitIDs[u : u+1 : u+1] }

// synthTime prices a compiler-synthesized op (Concat, Split, GradAgg) with
// the given output on dev, at batch fraction 1.
func (a *Artifacts) synthTime(name string, kind graph.OpKind, outBytes int64, batchDim bool, dev int) float64 {
	a.synth = graph.Op{Name: name, Kind: kind, OutputBytes: outBytes, BatchDim: batchDim}
	return a.Cost.SyntheticOpTime(&a.synth, dev, 1)
}

// nodeFor returns the plan node of a materialized dist op, or nil when the
// op did not come from this pipeline run.
func (a *Artifacts) nodeFor(op *compiler.DistOp) *Node {
	if op.ID < 0 || op.ID >= len(a.nodeOf) || a.nodeOf[op.ID].Op != op {
		return nil
	}
	return a.nodeOf[op.ID]
}

// note records a pass's op/byte counters (picked up by Pipeline.Run).
func (a *Artifacts) note(ops int, bytes int64) {
	a.statOps += ops
	a.statBytes += bytes
}

// ForOrder returns a lightweight copy of lowered artifacts for running the
// Ordering pass under a different execution order. The lowered products
// (Dist, PersistentBytes, Topo) are shared read-only; priorities and metrics
// are fresh, so concurrent ordering runs over one cached artifact never race.
func (a *Artifacts) ForOrder(useFIFO bool) *Artifacts {
	return &Artifacts{
		Graph: a.Graph, Cluster: a.Cluster, Strategy: a.Strategy, Cost: a.Cost,
		Iterations: a.Iterations, Ablate: a.Ablate,
		UseFIFO:         useFIFO,
		PersistentBytes: a.PersistentBytes,
		Dist:            a.Dist,
		Topo:            a.Topo,
	}
}

// Lower runs the lowering pipeline (Layout through Verify) over the
// artifacts, leaving a verified DistGraph in a.Dist.
func Lower(a *Artifacts) error { return NewPipeline(LoweringPasses()...).Run(a) }

// Order runs the Ordering pass, filling a.Priorities from a.Dist according
// to a.UseFIFO. It is the only pass that must re-run when switching
// execution orders over one lowered graph.
func Order(a *Artifacts) error { return NewPipeline(OrderingPass{}).Run(a) }

// Compile applies the strategy to the graph and returns the distributed
// training graph for a single iteration.
func Compile(g *graph.Graph, c *cluster.Cluster, s *strategy.Strategy, cost compiler.Coster) (*compiler.DistGraph, error) {
	return CompileIter(g, c, s, cost, 1)
}

// CompileIter compiles `iters` back-to-back training iterations into one
// distributed graph. A forward op that owns parameters in iteration k
// depends on the arrival of its updated parameters from iteration k-1 (the
// PS pull, or the post-AllReduce local apply), so simulating several
// iterations reproduces the steady-state pipelining the paper measures when
// averaging over 500 real iterations: late parameter pulls of one iteration
// overlap the early forward pass of the next.
func CompileIter(g *graph.Graph, c *cluster.Cluster, s *strategy.Strategy, cost compiler.Coster, iters int) (*compiler.DistGraph, error) {
	return CompileAblated(g, c, s, cost, iters, compiler.Ablations{})
}

// CompileAblated is CompileIter with ablation switches.
func CompileAblated(g *graph.Graph, c *cluster.Cluster, s *strategy.Strategy, cost compiler.Coster, iters int, ab compiler.Ablations) (*compiler.DistGraph, error) {
	a := NewArtifacts(g, c, s, cost, iters, ab)
	if err := Lower(a); err != nil {
		return nil, err
	}
	return a.Dist, nil
}

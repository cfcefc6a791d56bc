package plan

import (
	"fmt"
	"strconv"

	"heterog/internal/compiler"
	"heterog/internal/graph"
)

// Node is the plan IR: a pending DistOp plus the lowering metadata the later
// passes need (transfer endpoints for NIC-lane assignment, memory-planning
// inputs, concat shard provenance, which input edges are ordering-only).
// The wrapped DistOp is the final object — Materialize assigns its dense ID
// and, for transfers, its comm units; nothing is copied afterwards.
type Node struct {
	Op *compiler.DistOp

	// Send marks a transfer; SrcDev/DstDev are its endpoints. Units are
	// assigned by Materialize so NIC-lane round-robin follows global
	// emission order.
	//
	// PlanMem marks a compute instance whose activation buffer is sized by
	// MemoryPlanning from the source op and the batch fraction Frac.
	Send, PlanMem  bool
	SrcDev, DstDev int
	Frac           float64

	// ShardDevs records, for a Concat, the origin device of each input
	// shard in input order; Verify checks they ascend.
	ShardDevs []int

	// ctrl marks ordering-only input edges by producer identity.
	ctrl map[*compiler.DistOp]bool
}

// markCtrl flags an input edge as ordering-only (a control dependency).
func (n *Node) markCtrl(in *compiler.DistOp) {
	if n.ctrl == nil {
		n.ctrl = make(map[*compiler.DistOp]bool)
	}
	n.ctrl[in] = true
}

// link appends a producer to the node's inputs.
func (n *Node) link(in *compiler.DistOp) { n.Op.Inputs = append(n.Op.Inputs, in) }

// isCtrl reports whether the edge from `in` is ordering-only.
func (n *Node) isCtrl(in *compiler.DistOp) bool { return n.ctrl[in] }

// ctrlEdge is a control dependency whose source is an ApplyGradient op:
// EdgeLowering runs before AggregationLowering, so the source instances do
// not exist yet and the edge is wired by the aggregation pass's link step.
type ctrlEdge struct {
	iter     int
	consumer *graph.Op
	src      *graph.Op
}

// program collects lowered nodes into per-(iteration, topo-position)
// buckets. Each logical op is lowered by exactly one pass, so the buckets
// partition cleanly; flattening them in (iteration, topo-position) order
// reproduces the op creation order of the monolithic compiler, which the
// simulator's tie-breaking and NIC-lane round-robin depend on.
//
// A bucket is the lowering of one logical op in one iteration, and each is
// emitted in one go, so a bucket is a span of a single append-only node list
// rather than a slice of its own. Rebuilding a bucket (the delta path)
// abandons its old span and emits a new one at the end of the list.
type program struct {
	width int     // ops per iteration = len(Artifacts.Order)
	nodes []*Node // every emitted node, bucket by bucket in emission order
	spans []span  // per bucket: its range of nodes
	live  int     // nodes in some bucket's span
}

// span is a bucket's range [start, end) of program.nodes.
type span struct{ start, end int }

func newProgram(iters, width, sizeHint int) *program {
	return &program{width: width, nodes: make([]*Node, 0, sizeHint), spans: make([]span, iters*width)}
}

func (p *program) emit(iter, slot int, n *Node) {
	sp := &p.spans[iter*p.width+slot]
	switch {
	case sp.start == sp.end:
		sp.start, sp.end = len(p.nodes), len(p.nodes)
	case sp.end != len(p.nodes):
		panic(fmt.Sprintf("plan: bucket (%d, %d) emitted in two pieces", iter, slot))
	}
	p.nodes = append(p.nodes, n)
	sp.end++
	p.live++
}

// clear empties one bucket. Its nodes stay in the list until compact.
func (p *program) clear(iter, slot int) {
	sp := &p.spans[iter*p.width+slot]
	p.live -= sp.end - sp.start
	*sp = span{}
}

// compact drops the nodes of cleared buckets once they outnumber the live
// ones, so a long run of delta patches does not keep every node it replaced.
func (p *program) compact() {
	if len(p.nodes) <= 2*p.live {
		return
	}
	nodes := make([]*Node, 0, p.live)
	for i, sp := range p.spans {
		start := len(nodes)
		nodes = append(nodes, p.nodes[sp.start:sp.end]...)
		p.spans[i] = span{start, len(nodes)}
	}
	p.nodes = nodes
}

// each visits every node in materialization order.
func (p *program) each(f func(n *Node)) {
	for _, sp := range p.spans {
		for _, n := range p.nodes[sp.start:sp.end] {
			f(n)
		}
	}
}

func (p *program) count() int { return p.live }

// slabChunk is how many nodes (or input and unit slots) one slab chunk holds.
const slabChunk = 256

// slab allocates the lowering's nodes, their DistOps, input lists and unit
// lists from chunks, so lowering pays one allocation per chunk instead of
// several per node. Chunks are never reused: a handed-out element lives as
// long as anything references its chunk.
type slab struct {
	pairs []nodePair
	ptrs  []*compiler.DistOp
	ints  []int
}

// nodePair co-locates a node and the DistOp it wraps.
type nodePair struct {
	n  Node
	op compiler.DistOp
}

// node returns a zeroed node wrapping a zeroed DistOp.
func (s *slab) node() *Node {
	if len(s.pairs) == cap(s.pairs) {
		s.pairs = make([]nodePair, 0, slabChunk)
	}
	s.pairs = s.pairs[:len(s.pairs)+1]
	p := &s.pairs[len(s.pairs)-1]
	p.n.Op = &p.op
	return &p.n
}

// inputs returns an empty producer list with room for k entries. Appending
// past k reallocates, as for any slice.
func (s *slab) inputs(k int) []*compiler.DistOp {
	if k > cap(s.ptrs)-len(s.ptrs) {
		s.ptrs = make([]*compiler.DistOp, 0, max(slabChunk, k))
	}
	n := len(s.ptrs)
	s.ptrs = s.ptrs[:n+k]
	return s.ptrs[n : n : n+k]
}

// units returns an empty unit list with room for k entries.
func (s *slab) units(k int) []int {
	if k > cap(s.ints)-len(s.ints) {
		s.ints = make([]int, 0, max(slabChunk, k))
	}
	n := len(s.ints)
	s.ints = s.ints[:n+k]
	return s.ints[n : n : n+k]
}

// emitter scopes node creation to one (iteration, topo-position) bucket —
// the lowering of one logical op.
type emitter struct {
	a          *Artifacts
	iter, slot int
}

// add creates a node. Units may be nil for transfers (assigned later). The
// inputs are copied, so callers may pass a scratch slice.
func (e *emitter) add(name string, kind graph.OpKind, units []int, t float64, outBytes int64, memDev int, src *graph.Op, inputs ...*compiler.DistOp) *Node {
	n := e.a.slab.node()
	op := n.Op
	op.ID, op.Name, op.Kind, op.Src = -1, name, kind, src
	op.Units, op.Time, op.OutBytes, op.MemDevice = units, t, outBytes, memDev
	if len(inputs) > 0 {
		op.Inputs = append(e.a.slab.inputs(len(inputs)), inputs...)
	}
	e.a.prog.emit(e.iter, e.slot, n)
	return n
}

// addSend creates a transfer node occupying the comm units between src and
// dst; the units themselves are assigned at Materialize so lane round-robin
// matches global emission order.
func (e *emitter) addSend(name string, srcDev, dstDev int, bytes int64, inputs ...*compiler.DistOp) (*Node, error) {
	if _, err := e.a.Cluster.LinkBetween(srcDev, dstDev); err != nil {
		return nil, err
	}
	t := e.a.Cost.TransferTime(srcDev, dstDev, bytes)
	n := e.add(name, graph.KindSend, nil, t, bytes, dstDev, nil, inputs...)
	n.Send = true
	n.SrcDev, n.DstDev = srcDev, dstDev
	return n, nil
}

// firstInstance returns the first instance of a row in device order, or nil
// for an op with no instances.
func firstInstance(row []*Node) *Node {
	for _, n := range row {
		if n != nil {
			return n
		}
	}
	return nil
}

// instName names an instance on dev in iteration iter:
// "it<iter>/<name><suffix>@<dev>".
func instName(iter int, name, suffix string, dev int) string {
	return "it" + strconv.Itoa(iter) + "/" + name + suffix + "@" + strconv.Itoa(dev)
}

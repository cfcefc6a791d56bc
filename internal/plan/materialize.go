package plan

import (
	"fmt"

	"heterog/internal/compiler"
)

// MaterializePass flattens the lowered program into the final DistGraph:
// dense IDs in (iteration, topo-position, emission) order, and comm-unit
// assignment for transfers. Both are order-sensitive — IDs drive FIFO
// priorities and simulator tie-breaking, and NIC lanes are handed out
// round-robin per (server, direction) — so this is the single place where
// global order is realized, reproducing the monolithic compiler's op
// creation sequence exactly.
type MaterializePass struct{}

// Name implements Pass.
func (MaterializePass) Name() string { return "materialize" }

// Run implements Pass.
func (MaterializePass) Run(a *Artifacts) error {
	a.prog.compact()
	n := a.prog.count()
	dg := &compiler.DistGraph{
		Source:          a.Graph,
		Cluster:         a.Cluster,
		Iterations:      a.Iterations,
		PersistentBytes: a.PersistentBytes,
		Ops:             make([]*compiler.DistOp, 0, n),
	}
	if cap(a.nodeOf) < n {
		a.nodeOf = make([]*Node, 0, n)
	}
	a.nodeOf = a.nodeOf[:0]
	var moved int64
	var fail error
	a.prog.each(func(n *Node) {
		if fail != nil {
			return
		}
		op := n.Op
		op.ID = len(dg.Ops)
		if n.Send {
			op.Units = sendUnits(a, dg, n)
			moved += op.OutBytes
		} else if len(op.Units) == 0 {
			fail = fmt.Errorf("node %q has no units and is not a transfer", op.Name)
			return
		}
		dg.Ops = append(dg.Ops, op)
		a.nodeOf = append(a.nodeOf, n)
	})
	if fail != nil {
		return fail
	}
	a.Dist = dg
	a.note(len(dg.Ops), moved)
	return nil
}

// sendUnits assigns a transfer its comm units: the shared PCIe bus within a
// server, else the next egress lane of the source NIC and ingress lane of the
// destination NIC.
func sendUnits(a *Artifacts, dg *compiler.DistGraph, n *Node) []int {
	ss := a.Cluster.Devices[n.SrcDev].Server
	ds := a.Cluster.Devices[n.DstDev].Server
	if ss == ds {
		return a.unit(dg.PCIeUnit(ss))
	}
	out, in := dg.NICLanePair(ss, ds)
	return append(a.slab.units(2), out, in)
}

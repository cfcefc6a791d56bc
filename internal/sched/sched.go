// Package sched implements Part-II of the strategy framework: execution-order
// scheduling of the distributed training graph. It computes HEFT-style upward
// ranks — rank(o) = p(o) + max over successors of rank — and exposes them as
// per-op priorities for list scheduling, where every GPU runs at most one
// computation op and every link carries at most one transfer at a time. The
// appendix worst-case instance generator lives here too.
package sched

import (
	"heterog/internal/compiler"
)

// Ranks computes the upward rank of every dist op:
//
//	rank(o) = p(o) + max_{s in succ(o)} rank(s)
//
// indexed by DistOp.ID. Higher rank means schedule earlier.
func Ranks(dg *compiler.DistGraph) []float64 { return RanksFrom(dg, dg.TopoOrder()) }

// RanksFrom is Ranks over a topological order of dg.Ops the caller already
// built (the planning pipeline's Verify pass keeps one). Walking the order
// backwards, each op's rank is final once its successors are done, and it is
// pushed to its inputs; the max over a successor set does not depend on the
// visiting order, so the ranks equal the successor-list definition exactly.
func RanksFrom(dg *compiler.DistGraph, order []*compiler.DistOp) []float64 {
	ranks := make([]float64, len(dg.Ops))
	// succMax[id] is the largest rank among op id's successors seen so far.
	succMax := make([]float64, len(dg.Ops))
	for i := len(order) - 1; i >= 0; i-- {
		op := order[i]
		r := op.Time + succMax[op.ID]
		ranks[op.ID] = r
		for _, in := range op.Inputs {
			if r > succMax[in.ID] {
				succMax[in.ID] = r
			}
		}
	}
	return ranks
}

// FIFO returns priorities reproducing TensorFlow's default first-in-first-out
// execution: every op gets priority by reverse insertion order, so earlier-
// created ops win ties and the ready queues behave like FIFO queues.
func FIFO(dg *compiler.DistGraph) []float64 {
	pr := make([]float64, len(dg.Ops))
	for _, op := range dg.Ops {
		pr[op.ID] = -float64(op.ID)
	}
	return pr
}

// LowerBound returns a makespan lower bound for the distributed graph:
// max(critical path, busiest unit's total work). The true optimum T* is at
// least this, so Theorem 1 (T_LS <= (M+M^2) T*) can be checked against it.
func LowerBound(dg *compiler.DistGraph) float64 {
	lb := dg.CriticalPath()
	for _, w := range dg.TotalWorkOn() {
		if w > lb {
			lb = w
		}
	}
	return lb
}

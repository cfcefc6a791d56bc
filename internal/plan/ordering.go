package plan

import (
	"fmt"

	"heterog/internal/sched"
)

// OrderingPass computes execution priorities over the materialized graph:
// upward-rank list scheduling (Part II of the paper) by default, or the
// framework's FIFO order when Artifacts.UseFIFO is set. It is deliberately
// the last pass and depends only on a.Dist and the topological order Verify
// left in a.Topo, so one cached lowered artifact
// serves both execution orders — switching orders re-runs Ordering alone.
type OrderingPass struct{}

// Name implements Pass.
func (OrderingPass) Name() string { return "ordering" }

// Run implements Pass.
func (OrderingPass) Run(a *Artifacts) error {
	if a.Dist == nil || a.Topo == nil {
		return fmt.Errorf("ordering requires a verified graph (run the lowering passes first)")
	}
	if a.UseFIFO {
		a.Priorities = sched.FIFO(a.Dist)
	} else {
		a.Priorities = sched.RanksFrom(a.Dist, a.Topo)
	}
	a.note(len(a.Priorities), 0)
	return nil
}

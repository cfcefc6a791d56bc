package plan

import (
	"fmt"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// Layout is an op's replica arrangement: the fraction of the global batch
// each device processes. MP layouts have a single 1.0 entry. Layouts are
// shared between ops and read-only.
type Layout struct {
	Fracs []float64
	devs  []int // Devices(), computed once by newLayout
}

// newLayout builds a layout and lists its devices once.
func newLayout(fracs []float64) Layout {
	return Layout{Fracs: fracs, devs: devicesOf(fracs)}
}

func devicesOf(fracs []float64) []int {
	n := 0
	for _, f := range fracs {
		if f > 0 {
			n++
		}
	}
	ds := make([]int, 0, n)
	for d, f := range fracs {
		if f > 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// Devices lists the devices holding a replica, in ascending order. The
// slice is shared; callers must not modify it.
func (l Layout) Devices() []int {
	if l.devs == nil {
		return devicesOf(l.Fracs)
	}
	return l.devs
}

// Equal reports whether two layouts place identical fractions everywhere.
func (l Layout) Equal(o Layout) bool {
	if len(l.Fracs) != len(o.Fracs) {
		return false
	}
	for i := range l.Fracs {
		if l.Fracs[i] != o.Fracs[i] {
			return false
		}
	}
	return true
}

// LayoutFor derives the replica layout of a decision on a cluster.
func LayoutFor(d strategy.Decision, c *cluster.Cluster) Layout {
	return layoutFor(d, c, nil)
}

// layoutFor is LayoutFor with the cluster's proportional replica counts
// already computed (nil computes them when needed).
func layoutFor(d strategy.Decision, c *cluster.Cluster, counts []int) Layout {
	m := c.NumDevices()
	fr := make([]float64, m)
	switch d.Kind {
	case strategy.MP:
		fr[d.Device] = 1
	case strategy.DPEvenPS, strategy.DPEvenAR:
		for i := range fr {
			fr[i] = 1 / float64(m)
		}
	case strategy.DPPropPS, strategy.DPPropAR:
		if counts == nil {
			counts = compiler.PropReplicaCounts(c)
		}
		total := 0
		for _, k := range counts {
			total += k
		}
		for i, k := range counts {
			fr[i] = float64(k) / float64(total)
		}
	}
	return newLayout(fr)
}

// groupLayouts resolves the layout of every group decision of s, once per
// distinct decision: ops share their group's layout. counts are the
// cluster's proportional replica counts.
func groupLayouts(s *strategy.Strategy, c *cluster.Cluster, counts []int) []Layout {
	out := make([]Layout, len(s.Decisions))
	seen := make(map[strategy.Decision]Layout)
	for gi, d := range s.Decisions {
		l, ok := seen[d]
		if !ok {
			l = layoutFor(d, c, counts)
			seen[d] = l
		}
		out[gi] = l
	}
	return out
}

// oneHot is the layout holding everything on device i of n.
func oneHot(n, i int) Layout {
	v := make([]float64, n)
	v[i] = 1
	return newLayout(v)
}

// LayoutPass validates the pipeline inputs, fixes the deterministic logical
// topo order, and derives every compute op's replica layout from its
// effective strategy decision. ApplyGradient layouts are owned by
// AggregationLowering (a parameter server collapses the layout to the chosen
// PS device).
type LayoutPass struct{}

// Name implements Pass.
func (LayoutPass) Name() string { return "layout" }

// Run implements Pass.
func (LayoutPass) Run(a *Artifacts) error {
	if err := a.Strategy.Validate(a.Cluster); err != nil {
		return fmt.Errorf("invalid strategy: %w", err)
	}
	if a.Iterations < 1 {
		return fmt.Errorf("iterations must be >= 1, got %d", a.Iterations)
	}
	order, err := a.Graph.TopoSort()
	if err != nil {
		return err
	}
	a.Order = order
	a.Layouts = make([]Layout, len(a.Graph.Ops))
	gl := groupLayouts(a.Strategy, a.Cluster, compiler.PropReplicaCounts(a.Cluster))
	placed := 0
	for _, op := range order {
		if op.ID < 0 || op.ID >= len(a.Graph.Ops) || a.Graph.Ops[op.ID] != op {
			return fmt.Errorf("op %q has ID %d, not its index in the graph", op.Name, op.ID)
		}
		if op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient {
			continue
		}
		a.Layouts[op.ID] = gl[compiler.EffectiveGroup(a.Strategy, op)]
		placed++
	}
	a.note(placed, 0)
	return nil
}

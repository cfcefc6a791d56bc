package plan

import (
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// activationFudge inflates transient activation allocations for framework
// workspace (cuDNN scratch, fragmentation).
const activationFudge = 1.12

// activationBytes sizes the resident activation buffer of one compute
// instance: the (batch-fraction-scaled) output, inflated by the workspace
// fudge, scaled by the op's memory multiplier and divided by the kernel
// fusion discount for its kind. The two-step int64 truncation mirrors the
// original compiler exactly.
func activationBytes(op *graph.Op, frac float64) int64 {
	out := op.OutputBytes
	if op.BatchDim {
		out = int64(float64(out) * frac)
	}
	scale := op.MemScale
	if scale == 0 {
		scale = 1
	}
	return int64(float64(out) * activationFudge * scale / compiler.FusionDiscount(op.Kind))
}

// optimizerSlots resolves the graph's resident parameter-tensor multiple.
func optimizerSlots(g *graph.Graph) int64 {
	if s := g.OptimizerSlots; s > 0 {
		return int64(s)
	}
	return 3
}

// persistentBytes computes per-device resident memory — parameters,
// gradients and optimizer state for every parameterized forward op placed on
// the device — purely from the pipeline inputs. MemoryPlanning installs the
// result; Verify recomputes it independently to cross-check the built graph.
func persistentBytes(a *Artifacts) []int64 {
	res := make([]int64, a.Cluster.NumDevices())
	slots := optimizerSlots(a.Graph)
	counts := compiler.PropReplicaCounts(a.Cluster)
	layouts := groupLayouts(a.Strategy, a.Cluster, counts)
	for _, op := range a.Order {
		if op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient {
			continue
		}
		if op.ParamBytes <= 0 || op.Kind.IsBackward() {
			continue
		}
		gi := compiler.EffectiveGroup(a.Strategy, op)
		d := a.Strategy.Decisions[gi]
		for _, dev := range layouts[gi].Devices() {
			// Parameters are stored once per device; every replica tower on
			// the device additionally materializes its own gradient tensor
			// and optimizer slots (TF in-graph replication keeps one
			// gradient buffer per tower until aggregation, and per-tower
			// momentum accumulators).
			towers := int64(1)
			if d.Kind == strategy.DPPropPS || d.Kind == strategy.DPPropAR {
				towers = int64(counts[dev])
			}
			res[dev] += op.ParamBytes * (1 + (slots-1)*towers)
		}
	}
	return res
}

// MemoryPlanningPass sizes every compute instance's activation buffer and
// computes the per-device persistent residency (parameters + gradient towers
// + optimizer slots). It runs after lowering so the buffer set is complete,
// and before Materialize so the finished DistGraph carries final sizes.
type MemoryPlanningPass struct{}

// Name implements Pass.
func (MemoryPlanningPass) Name() string { return "memory-planning" }

// Run implements Pass.
func (MemoryPlanningPass) Run(a *Artifacts) error {
	var planned int
	var bytes int64
	a.prog.each(func(n *Node) {
		if !n.PlanMem {
			return
		}
		n.Op.OutBytes = activationBytes(n.Op.Src, n.Frac)
		planned++
		bytes += n.Op.OutBytes
	})
	a.PersistentBytes = persistentBytes(a)
	for _, b := range a.PersistentBytes {
		bytes += b
	}
	a.note(planned, bytes)
	return nil
}

package compiler

import (
	"heterog/internal/cluster"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// The compilation pipeline itself lives in internal/plan: placement, edge
// lowering, aggregation lowering, memory planning, materialization and
// verification are individual passes over a shared plan IR (plan.Compile and
// friends are the entry points). This package retains the distributed-graph
// IR (dist.go) and the contracts shared by the pipeline and its consumers:
// the cost-model interface, strategy-resolution and replica-count helpers,
// ablation switches, and the memory fusion discount.

// IRVersion identifies the lowering scheme producing DistGraphs. It is mixed
// into evaluation-cache fingerprints so cached results from an older
// compiler/pipeline can never be served after the lowering changes. Bump it
// whenever a change alters the emitted distributed graph.
const IRVersion = "plan-ir/1"

// Coster supplies profiled cost predictions. *profile.CostModel satisfies it.
type Coster interface {
	OpTime(op *graph.Op, device int, batchFrac float64) float64
	SyntheticOpTime(op *graph.Op, device int, batchFrac float64) float64
	TransferTime(src, dst int, bytes int64) float64
}

// EffectiveDecision resolves the strategy decision applying to an op:
// backward and apply ops follow their forward op's group decision so that a
// parameter's gradient flow is always consistent with its replication.
func EffectiveDecision(s *strategy.Strategy, op *graph.Op) strategy.Decision {
	return s.Decisions[EffectiveGroup(s, op)]
}

// EffectiveGroup is the index of the group whose decision applies to op
// (see EffectiveDecision).
func EffectiveGroup(s *strategy.Strategy, op *graph.Op) int {
	if op.Forward != nil {
		return s.Grouping.GroupOf[op.Forward.ID]
	}
	return s.Grouping.GroupOf[op.ID]
}

// PropReplicaCounts returns per-device replica counts proportional to compute
// power, normalized so the least powerful device gets one replica (the
// paper's CP scheme: two replicas per V100, one per 1080Ti/P100).
func PropReplicaCounts(c *cluster.Cluster) []int {
	minPower := c.Devices[0].Model.Power
	for _, d := range c.Devices {
		if d.Model.Power < minPower {
			minPower = d.Model.Power
		}
	}
	counts := make([]int, c.NumDevices())
	for i, d := range c.Devices {
		counts[i] = int(d.Model.Power/minPower + 0.5)
		if counts[i] < 1 {
			counts[i] = 1
		}
	}
	return counts
}

// Ablations switches off individual design mechanisms for the ablation
// studies (DESIGN.md's per-experiment index); the zero value is the full
// system.
type Ablations struct {
	// NoNCCLSerialization lets AllReduce collectives for different ops
	// overlap (drops the global NCCL mutex the paper says NCCL imposes).
	// Note that cross-server collectives still contend for NIC lanes.
	NoNCCLSerialization bool
	// FreeCollectiveLaunch drops the per-collective NCCL launch/rendezvous
	// overhead, isolating how much the many-small-tensors penalty costs.
	FreeCollectiveLaunch bool
	// DensePS ships embedding gradients in dense form under PS, removing
	// the sparse-push advantage.
	DensePS bool
	// NoHierarchicalPull pulls updated parameters once per GPU instead of
	// once per server with PCIe relays.
	NoHierarchicalPull bool
}

// FusionDiscount returns how much of an op kind's nominal output survives as
// a distinct resident buffer (1 = all of it). Batch norm is folded entirely
// into the convolution epilogue by cuDNN; ReLU/residual adds are mostly
// in-place or recomputable from signs; layer norm keeps its normalized
// output for backward.
func FusionDiscount(k graph.OpKind) float64 {
	switch k {
	case graph.KindBatchNorm, graph.KindBatchNormBp:
		return 16
	case graph.KindActivation, graph.KindActivationBp,
		graph.KindElementwise, graph.KindElementwiseBp:
		return 4
	case graph.KindLayerNorm, graph.KindLayerNormBp:
		return 4
	default:
		return 1
	}
}

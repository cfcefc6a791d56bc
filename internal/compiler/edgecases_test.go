package compiler

import (
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/graph"
)

func TestUnitLayout(t *testing.T) {
	c := cluster.Testbed8()
	dg := &DistGraph{Source: graph.New("x", 1), Cluster: c, PersistentBytes: make([]int64, 8)}
	// 8 GPUs + server0 (2 lanes: 2 in + 2 out + pcie = 5) + 3 servers x
	// (1+1+1) + NCCL = 8 + 5 + 9 + 1 = 23.
	if got := dg.NumUnits(); got != 23 {
		t.Fatalf("NumUnits %d, want 23", got)
	}
	if dg.UnitKindOf(0) != UnitGPU || dg.UnitKindOf(7) != UnitGPU {
		t.Fatal("GPU units misclassified")
	}
	if dg.UnitKindOf(8) != UnitComm {
		t.Fatal("comm units misclassified")
	}
	if dg.UnitKindOf(dg.NumUnits()-1) != UnitNCCL {
		t.Fatal("NCCL unit misclassified")
	}
	// Intra-server transfers ride the PCIe bus; cross-server ones take one
	// egress lane and one ingress lane.
	s0, s1 := c.Devices[0].Server, c.Devices[2].Server
	if c.Devices[1].Server != s0 || s1 == s0 {
		t.Fatalf("testbed layout changed: devices 0,1,2 on servers %d,%d,%d", s0, c.Devices[1].Server, s1)
	}
	pcie := dg.PCIeUnit(s0)
	if dg.UnitKindOf(pcie) != UnitComm {
		t.Fatalf("intra-server unit %d is not a comm unit", pcie)
	}
	out, in := dg.NICLanePair(s0, s1)
	if dg.UnitKindOf(out) != UnitComm || dg.UnitKindOf(in) != UnitComm {
		t.Fatalf("cross-server units %d,%d are not comm units", out, in)
	}
	if out == in || out == pcie || in == pcie {
		t.Fatalf("cross-server transfer must hold two distinct NIC units, got %d,%d (pcie %d)", out, in, pcie)
	}
}

func TestNICLaneRoundRobin(t *testing.T) {
	c := cluster.Testbed8()
	dg := &DistGraph{Source: graph.New("x", 1), Cluster: c, PersistentBytes: make([]int64, 8)}
	// Server 0 has two ingress lanes: consecutive inbound transfers must
	// alternate between them.
	src, dst := c.Devices[2].Server, c.Devices[0].Server
	_, a := dg.NICLanePair(src, dst)
	_, b := dg.NICLanePair(src, dst)
	if a == b {
		t.Fatal("100GbE ingress lanes must round-robin")
	}
	if _, c2 := dg.NICLanePair(src, dst); c2 != a {
		t.Fatal("lane rotation must cycle with period 2")
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	c := cluster.Testbed4()
	mk := func() *DistGraph {
		return &DistGraph{Source: graph.New("x", 1), Cluster: c, PersistentBytes: make([]int64, 4)}
	}
	// Non-dense IDs.
	dg := mk()
	dg.Ops = append(dg.Ops, &DistOp{ID: 5, Units: []int{0}, Kind: graph.KindMatMul})
	if err := dg.Validate(); err == nil {
		t.Fatal("non-dense IDs must fail")
	}
	// No units.
	dg = mk()
	dg.Ops = append(dg.Ops, &DistOp{ID: 0, Kind: graph.KindMatMul})
	if err := dg.Validate(); err == nil {
		t.Fatal("unit-less op must fail")
	}
	// Compute op on comm unit.
	dg = mk()
	dg.Ops = append(dg.Ops, &DistOp{ID: 0, Kind: graph.KindMatMul, Units: []int{4}})
	if err := dg.Validate(); err == nil {
		t.Fatal("compute op on a comm unit must fail")
	}
	// Comm op on GPU.
	dg = mk()
	dg.Ops = append(dg.Ops, &DistOp{ID: 0, Kind: graph.KindSend, Units: []int{0}})
	if err := dg.Validate(); err == nil {
		t.Fatal("comm op on a GPU must fail")
	}
	// Negative time.
	dg = mk()
	dg.Ops = append(dg.Ops, &DistOp{ID: 0, Kind: graph.KindMatMul, Units: []int{0}, Time: -1})
	if err := dg.Validate(); err == nil {
		t.Fatal("negative duration must fail")
	}
	// Cycle.
	dg = mk()
	x := &DistOp{ID: 0, Kind: graph.KindMatMul, Units: []int{0}}
	y := &DistOp{ID: 1, Kind: graph.KindMatMul, Units: []int{0}, Inputs: []*DistOp{x}}
	x.Inputs = []*DistOp{y}
	dg.Ops = append(dg.Ops, x, y)
	if err := dg.Validate(); err == nil {
		t.Fatal("cyclic dist graph must fail")
	}
}

func TestFusionDiscountTable(t *testing.T) {
	if FusionDiscount(graph.KindBatchNorm) <= FusionDiscount(graph.KindActivation) {
		t.Fatal("batch norm folds more aggressively than activations")
	}
	if FusionDiscount(graph.KindConv2D) != 1 {
		t.Fatal("conv outputs are retained in full")
	}
}

package plan

// Corruption tests: lower a real model, deliberately break one invariant in
// the materialized IR, and check the Verify pass rejects it with the right
// typed error. Verify is read-only, so re-running it on untampered artifacts
// must keep succeeding.

import (
	"errors"
	"testing"

	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// lowerUniform runs the lowering pipeline (including the initial Verify) on
// vgg19/Testbed8 under a uniform decision and returns the artifacts for
// tampering.
func lowerUniform(t *testing.T, kind strategy.DecisionKind) *Artifacts {
	t.Helper()
	g, c, cm, gr := setup(t, "vgg19", 64)
	s := strategy.Uniform(gr, strategy.Decision{Kind: kind})
	a := NewArtifacts(g, c, s, cm, 2, compiler.Ablations{})
	if err := Lower(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// lowerSplitMP lowers vgg19 with the front half on device 0 and the back half
// on device 5 (another server), guaranteeing cross-server Sends.
func lowerSplitMP(t *testing.T) *Artifacts {
	t.Helper()
	g, c, cm, gr := setup(t, "vgg19", 64)
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.MP, Device: 0})
	for gi := range s.Decisions {
		if g.Ops[gr.Anchors[gi]].Layer > 4 {
			s.Decisions[gi] = strategy.Decision{Kind: strategy.MP, Device: 5}
		}
	}
	a := NewArtifacts(g, c, s, cm, 1, compiler.Ablations{})
	if err := Lower(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// reverify runs only the Verify pass over (possibly tampered) artifacts.
func reverify(a *Artifacts) error { return VerifyPass{}.Run(a) }

func wantViolation(t *testing.T, err, sentinel error) {
	t.Helper()
	if err == nil {
		t.Fatal("verify accepted corrupted IR")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("verify rejected with %v, want %v", err, sentinel)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("verify error %T is not a *VerifyError", err)
	}
	if ve.Detail == "" {
		t.Fatal("verify error carries no detail")
	}
}

func TestVerifyIsIdempotentOnValidIR(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenPS)
	for i := 0; i < 2; i++ {
		if err := reverify(a); err != nil {
			t.Fatalf("re-verify %d: %v", i, err)
		}
	}
}

func TestVerifyRejectsUnmaterializedArtifacts(t *testing.T) {
	wantViolation(t, reverify(&Artifacts{}), ErrBadStructure)
}

func TestVerifyRejectsCycle(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	// Close a 2-cycle: make some op's producer depend back on its consumer.
	for _, op := range a.Dist.Ops {
		if len(op.Inputs) > 0 {
			op.Inputs[0].Inputs = append(op.Inputs[0].Inputs, op)
			break
		}
	}
	wantViolation(t, reverify(a), ErrCycle)
}

// TestVerifyRebuildsAdjacencyAfterRanking: Verify keeps the topological
// order it derives for Ordering to reuse, but never trusts one. A graph that
// passed Verify and was ranked from that order, then changed, is checked as
// it is now: a cycle closed after the first Verify is still rejected, and
// the stale order is not left behind for Ordering.
func TestVerifyRebuildsAdjacencyAfterRanking(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	if a.Topo == nil {
		t.Fatal("Verify left no topological order")
	}
	if err := Order(a.ForOrder(false)); err != nil {
		t.Fatal(err)
	}
	for _, op := range a.Dist.Ops {
		if len(op.Inputs) > 0 {
			op.Inputs[0].Inputs = append(op.Inputs[0].Inputs, op)
			break
		}
	}
	wantViolation(t, reverify(a), ErrCycle)
	if a.Topo != nil {
		t.Fatal("a rejected graph kept the order of an earlier Verify")
	}
	if err := Order(a.ForOrder(false)); err == nil {
		t.Fatal("Ordering ran on a graph Verify rejected")
	}
}

func TestVerifyRejectsDenseIDCorruption(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	a.Dist.Ops[7].ID = 99999
	wantViolation(t, reverify(a), ErrBadStructure)
}

func TestVerifyRejectsOrphanReceive(t *testing.T) {
	a := lowerSplitMP(t)
	// Bypass a transfer: rewire a consumer to read the send's producer
	// directly, leaving the tensor resident on the wrong device.
	tampered := false
	for _, op := range a.Dist.Ops {
		for i, in := range op.Inputs {
			n := a.nodeFor(in)
			if n == nil || !n.Send || len(in.Inputs) == 0 {
				continue
			}
			prod := in.Inputs[0]
			cn := a.nodeFor(op)
			need, check := consumeDevice(cn)
			if pn := a.nodeFor(prod); pn != nil && !pn.Send && check && prod.MemDevice >= 0 && prod.MemDevice != need {
				op.Inputs[i] = prod
				tampered = true
			}
			if tampered {
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Fatal("found no send to bypass (expected cross-device MP transfers)")
	}
	wantViolation(t, reverify(a), ErrOrphanRecv)
}

func TestVerifyRejectsSendOffItsLink(t *testing.T) {
	a := lowerSplitMP(t)
	// Move a cross-server send onto the wrong server's egress lane.
	dg := a.Dist
	tampered := false
	a.prog.each(func(n *Node) {
		if tampered || !n.Send {
			return
		}
		ss := a.Cluster.Devices[n.SrcDev].Server
		ds := a.Cluster.Devices[n.DstDev].Server
		if ss == ds {
			return
		}
		other := (ss + 1) % len(a.Cluster.Servers)
		if other == ds {
			other = (other + 1) % len(a.Cluster.Servers)
		}
		n.Op.Units[0] = dg.NICOutUnit(other, 0)
		tampered = true
	})
	if !tampered {
		t.Fatal("found no cross-server send to tamper with")
	}
	wantViolation(t, reverify(a), ErrOrphanRecv)
}

func TestVerifyRejectsConcatShardDisorder(t *testing.T) {
	// Mismatched layouts (even vs proportional DP) force Concat glue at the
	// boundary.
	g, c, cm, gr := setup(t, "vgg19", 64)
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenAR})
	for gi := range s.Decisions {
		if g.Ops[gr.Anchors[gi]].Layer > 4 {
			s.Decisions[gi] = strategy.Decision{Kind: strategy.DPPropAR}
		}
	}
	a := NewArtifacts(g, c, s, cm, 1, compiler.Ablations{})
	if err := Lower(a); err != nil {
		t.Fatal(err)
	}
	tampered := false
	a.prog.each(func(n *Node) {
		if tampered || n.Op.Kind != graph.KindConcat || len(n.ShardDevs) < 2 {
			return
		}
		n.ShardDevs[0], n.ShardDevs[1] = n.ShardDevs[1], n.ShardDevs[0]
		tampered = true
	})
	if !tampered {
		t.Fatal("mismatched layouts produced no Concat to tamper with")
	}
	wantViolation(t, reverify(a), ErrConcatOrder)
}

func TestVerifyRejectsPersistentMemoryDrift(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenPS)
	a.Dist.PersistentBytes[0]++
	wantViolation(t, reverify(a), ErrMemoryMismatch)
}

func TestVerifyRejectsActivationBufferDrift(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	tampered := false
	a.prog.each(func(n *Node) {
		if tampered || !n.PlanMem || n.Op.OutBytes == 0 {
			return
		}
		n.Op.OutBytes += 4096
		tampered = true
	})
	if !tampered {
		t.Fatal("no memory-planned instance found")
	}
	wantViolation(t, reverify(a), ErrMemoryMismatch)
}

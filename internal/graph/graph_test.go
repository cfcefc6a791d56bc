package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func chainGraph(n int) *Graph {
	g := New("chain", 32)
	var prev *Op
	for i := 0; i < n; i++ {
		if prev == nil {
			prev = g.AddOp("op0", KindConv2D)
		} else {
			prev = g.AddOp("op", KindConv2D, prev)
		}
	}
	return g
}

// randomDAG builds a random DAG where op i may depend on any subset of
// earlier ops — always acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New("random", 16)
	for i := 0; i < n; i++ {
		var ins []*Op
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				ins = append(ins, g.Ops[j])
			}
		}
		op := g.AddOp("op", KindMatMul, ins...)
		op.FLOPs = rng.Float64() * 1e9
		op.OutputBytes = int64(rng.Intn(1 << 20))
	}
	return g
}

func TestTopoSortChain(t *testing.T) {
	g := chainGraph(10)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range order {
		if op.ID != i {
			t.Fatalf("chain order broken at %d: got op %d", i, op.ID)
		}
	}
}

func TestTopoSortRespectsEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40))
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[int]int)
		for i, op := range order {
			pos[op.ID] = i
		}
		for _, op := range g.Ops {
			for _, in := range op.Inputs {
				if pos[in.ID] >= pos[op.ID] {
					return false
				}
			}
		}
		return len(order) == g.NumOps()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New("cyclic", 1)
	a := g.AddOp("a", KindMatMul)
	b := g.AddOp("b", KindMatMul, a)
	a.Inputs = append(a.Inputs, b) // cycle
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must reject cycles")
	}
}

func TestValidateCatchesForeignInput(t *testing.T) {
	g := New("a", 1)
	other := New("b", 1)
	foreign := other.AddOp("x", KindMatMul)
	g.AddOp("y", KindMatMul, foreign)
	if err := g.Validate(); err == nil {
		t.Fatal("expected foreign-input error")
	}
}

func TestValidateCatchesNilInput(t *testing.T) {
	g := New("a", 1)
	op := g.AddOp("y", KindMatMul)
	op.Inputs = append(op.Inputs, nil)
	if err := g.Validate(); err == nil {
		t.Fatal("expected nil-input error")
	}
}

func TestComputeStats(t *testing.T) {
	g := New("s", 8)
	a := g.AddOp("a", KindConv2D)
	a.ParamBytes = 100
	a.FLOPs = 1e6
	a.OutputBytes = 50
	b := g.AddOp("b", KindMatMul, a)
	b.ParamBytes = 200
	b.FLOPs = 2e6
	st := g.ComputeStats()
	if st.Ops != 2 || st.Edges != 1 || st.ParamBytes != 300 || st.TotalFLOPs != 3e6 || st.ParamizedOps != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestKindHelpers(t *testing.T) {
	if !KindConv2DBpInput.IsBackward() || KindConv2D.IsBackward() {
		t.Fatal("IsBackward misclassifies")
	}
	if !KindSend.IsComm() || !KindAllReduce.IsComm() || KindConv2D.IsComm() {
		t.Fatal("IsComm misclassifies")
	}
	if KindConv2D.String() != "Conv2D" || KindAllReduce.String() != "AllReduce" {
		t.Fatal("String misnames")
	}
	if OpKind(999).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestComputeScales(t *testing.T) {
	apply := &Op{Kind: KindApplyGradient}
	if apply.ComputeScales() {
		t.Fatal("ApplyGradient must not scale with batch")
	}
	fwd := &Op{Kind: KindConv2D, BatchDim: true}
	if !fwd.ComputeScales() {
		t.Fatal("batched forward op must scale")
	}
	gradW := &Op{Kind: KindConv2DBpFilter, BatchDim: false}
	if !gradW.ComputeScales() {
		t.Fatal("weight gradients scale with local shard even without batch dim")
	}
	embedTable := &Op{Kind: KindEmbeddingLookup, BatchDim: false}
	if embedTable.ComputeScales() {
		t.Fatal("non-batch forward op must not scale")
	}
}

func TestSuccessorsIncludeControlDeps(t *testing.T) {
	g := New("cd", 1)
	a := g.AddOp("a", KindMatMul)
	b := g.AddOp("b", KindMatMul)
	b.ControlDeps = append(b.ControlDeps, a)
	succ := g.Successors()
	if len(succ[a.ID]) != 1 || succ[a.ID][0] != b {
		t.Fatal("control dep missing from successors")
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != a {
		t.Fatal("control dep must order a before b")
	}
}

func TestIDsAreDense(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(1)), 20)
	for i, op := range g.Ops {
		if op.ID != i {
			t.Fatalf("op %d has ID %d", i, op.ID)
		}
	}
}

package strategy

import (
	"testing"
	"testing/quick"

	"heterog/internal/cluster"
	"heterog/internal/graph"
)

// constTimer ranks ops by their FLOPs for grouping tests.
type constTimer struct{}

func (constTimer) AvgOpTime(op *graph.Op) float64 { return op.FLOPs }

func lineGraph(n int) *graph.Graph {
	g := graph.New("line", 8)
	var prev *graph.Op
	for i := 0; i < n; i++ {
		var ins []*graph.Op
		if prev != nil {
			ins = append(ins, prev)
		}
		op := g.AddOp("op", graph.KindMatMul, ins...)
		op.FLOPs = float64(i)
		prev = op
	}
	return g
}

func TestActionRoundTripProperty(t *testing.T) {
	const m = 8
	f := func(raw uint8) bool {
		action := int(raw) % ActionSpaceSize(m)
		d, err := DecisionFromAction(action, m)
		if err != nil {
			return false
		}
		return d.ActionIndex(m) == action
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionFromActionBounds(t *testing.T) {
	if _, err := DecisionFromAction(-1, 4); err == nil {
		t.Fatal("negative action must error")
	}
	if _, err := DecisionFromAction(ActionSpaceSize(4), 4); err == nil {
		t.Fatal("out-of-range action must error")
	}
	d, err := DecisionFromAction(2, 4)
	if err != nil || d.Kind != MP || d.Device != 2 {
		t.Fatalf("action 2 should be MP@2, got %+v (%v)", d, err)
	}
	d, err = DecisionFromAction(4, 4) // first DP slot
	if err != nil || d.Kind != DPEvenPS {
		t.Fatalf("action M should be EV-PS, got %+v", d)
	}
	d, err = DecisionFromAction(7, 4) // last DP slot
	if err != nil || d.Kind != DPPropAR {
		t.Fatalf("action M+3 should be CP-AR, got %+v", d)
	}
}

func TestDecisionKindHelpers(t *testing.T) {
	if MP.IsDP() {
		t.Fatal("MP is not DP")
	}
	for _, k := range []DecisionKind{DPEvenPS, DPEvenAR, DPPropPS, DPPropAR} {
		if !k.IsDP() {
			t.Fatalf("%v should be DP", k)
		}
	}
	if !DPEvenAR.UsesAllReduce() || !DPPropAR.UsesAllReduce() {
		t.Fatal("AR kinds misdetected")
	}
	if DPEvenPS.UsesAllReduce() || MP.UsesAllReduce() {
		t.Fatal("non-AR kinds misdetected")
	}
	if MP.String() != "MP" || DPPropAR.String() != "CP-AR" {
		t.Fatal("decision names drifted from the paper's labels")
	}
}

func TestGroupSmallGraphOneGroupPerOp(t *testing.T) {
	g := lineGraph(5)
	gr, err := Group(g, constTimer{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumGroups() != 5 {
		t.Fatalf("want one group per op, got %d", gr.NumGroups())
	}
	for _, op := range g.Ops {
		if gr.Members[gr.GroupOf[op.ID]][0] != op.ID {
			t.Fatal("identity grouping broken")
		}
	}
}

func TestGroupCapsAndCovers(t *testing.T) {
	g := lineGraph(50)
	gr, err := Group(g, constTimer{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumGroups() != 7 {
		t.Fatalf("want 7 groups, got %d", gr.NumGroups())
	}
	seen := make([]bool, g.NumOps())
	total := 0
	for gi, members := range gr.Members {
		for _, opID := range members {
			if seen[opID] {
				t.Fatalf("op %d in two groups", opID)
			}
			seen[opID] = true
			total++
			if gr.GroupOf[opID] != gi {
				t.Fatal("GroupOf inconsistent with Members")
			}
		}
	}
	if total != g.NumOps() {
		t.Fatalf("grouping covers %d of %d ops", total, g.NumOps())
	}
}

func TestGroupAnchorsAreLongestOps(t *testing.T) {
	g := lineGraph(30) // FLOPs increase with index: anchors are the last 4
	gr, err := Group(g, constTimer{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range gr.Anchors {
		if a < 26 {
			t.Fatalf("anchor %d is not among the top-4 longest ops", a)
		}
	}
}

func TestGroupNearestNeighborAttachment(t *testing.T) {
	// Chain with anchors at both ends: ops must join their closer anchor.
	g := graph.New("twoends", 8)
	var prev *graph.Op
	for i := 0; i < 9; i++ {
		var ins []*graph.Op
		if prev != nil {
			ins = append(ins, prev)
		}
		op := g.AddOp("op", graph.KindMatMul, ins...)
		prev = op
	}
	g.Ops[0].FLOPs = 100
	g.Ops[8].FLOPs = 100
	gr, err := Group(g, constTimer{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	left := gr.GroupOf[0]
	right := gr.GroupOf[8]
	if gr.GroupOf[1] != left || gr.GroupOf[2] != left {
		t.Fatal("ops near the left anchor should join it")
	}
	if gr.GroupOf[7] != right || gr.GroupOf[6] != right {
		t.Fatal("ops near the right anchor should join it")
	}
}

func TestGroupInvalidMax(t *testing.T) {
	g := lineGraph(3)
	if _, err := Group(g, constTimer{}, 0); err == nil {
		t.Fatal("non-positive maxGroups must error")
	}
}

func TestUniformAndValidate(t *testing.T) {
	g := lineGraph(6)
	gr, err := Group(g, constTimer{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Testbed4()
	s := Uniform(gr, Decision{Kind: DPPropAR})
	if err := s.Validate(c); err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops {
		if s.Decisions[gr.GroupOf[op.ID]].Kind != DPPropAR {
			t.Fatal("uniform strategy must apply everywhere")
		}
	}
	// Bad MP device.
	s.Decisions[0] = Decision{Kind: MP, Device: 99}
	if err := s.Validate(c); err == nil {
		t.Fatal("out-of-range MP device must fail validation")
	}
	// Mismatched lengths.
	bad := &Strategy{Grouping: gr, Decisions: s.Decisions[:2]}
	if err := bad.Validate(c); err == nil {
		t.Fatal("length mismatch must fail validation")
	}
	if err := (&Strategy{}).Validate(c); err == nil {
		t.Fatal("nil grouping must fail validation")
	}
}

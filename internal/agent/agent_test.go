package agent

import (
	"math"
	"testing"

	"heterog/internal/baselines"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/models"
	"heterog/internal/strategy"
)

func smallEvaluator(t *testing.T) *core.Evaluator {
	t.Helper()
	g, err := models.VGG19(64)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed4().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func newAgent(t *testing.T, m int) *Agent {
	t.Helper()
	cfg := DefaultConfig(m)
	a, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFeatureEncoding(t *testing.T) {
	ev := smallEvaluator(t)
	feats := encodeFeatures(ev)
	m := ev.Cluster.NumDevices()
	if feats.Rows != ev.Graph.NumOps() || feats.Cols != FeatureDim(m) {
		t.Fatalf("features %dx%d, want %dx%d", feats.Rows, feats.Cols, ev.Graph.NumOps(), FeatureDim(m))
	}
	for _, v := range feats.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite feature value")
		}
	}
	// Per-device time features must reflect heterogeneity: V100 column
	// faster than 1080Ti column for a conv op.
	var convRow []float64
	for i, op := range ev.Graph.Ops {
		if op.Name == "conv3_1" {
			convRow = feats.Row(i)
		}
	}
	if convRow == nil {
		t.Fatal("conv3_1 not found")
	}
	if convRow[0] >= convRow[2] {
		t.Fatalf("V100 time %v should beat 1080Ti %v", convRow[0], convRow[2])
	}
}

// TestGroupMembersAscendingPartition checks what the GAT's mean pooling
// relies on: the agent's groupings list every op exactly once, and each
// group's members in strictly ascending op order, so pooling sums member
// embeddings in op order.
func TestGroupMembersAscendingPartition(t *testing.T) {
	ev := smallEvaluator(t)
	for _, maxGroups := range []int{10, 500} {
		gr, err := strategy.Group(ev.Graph, ev.Cost, maxGroups)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, ev.Graph.NumOps())
		for gi, ms := range gr.Members {
			for k, op := range ms {
				if k > 0 && op <= ms[k-1] {
					t.Fatalf("maxGroups %d: group %d members not strictly ascending: %v", maxGroups, gi, ms)
				}
				if seen[op] {
					t.Fatalf("maxGroups %d: op %d in two groups", maxGroups, op)
				}
				seen[op] = true
			}
		}
		for op, ok := range seen {
			if !ok {
				t.Fatalf("maxGroups %d: op %d in no group", maxGroups, op)
			}
		}
	}
}

func TestHeuristicCandidatesAreValid(t *testing.T) {
	ev := smallEvaluator(t)
	gr, err := strategy.Group(ev.Graph, ev.Cost, 200)
	if err != nil {
		t.Fatal(err)
	}
	cands := HeuristicCandidates(ev, gr)
	if len(cands) < 10 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for i, cand := range cands {
		if err := cand.Validate(ev.Cluster.Cluster); err != nil {
			t.Fatalf("candidate %d invalid: %v", i, err)
		}
	}
	// The first four are the uniform DP schemes, in the canonical order.
	wantFirst := []strategy.DecisionKind{strategy.DPEvenPS, strategy.DPEvenAR, strategy.DPPropPS, strategy.DPPropAR}
	for i, kind := range wantFirst {
		if cands[i].Decisions[0].Kind != kind {
			t.Fatalf("candidate %d is %v, want %v", i, cands[i].Decisions[0].Kind, kind)
		}
	}
}

func TestRunEpisodeProducesValidStrategy(t *testing.T) {
	ev := smallEvaluator(t)
	a := newAgent(t, 4)
	ep, err := a.RunEpisode(ev, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Strategy.Validate(ev.Cluster.Cluster); err != nil {
		t.Fatal(err)
	}
	if ep.Reward >= 0 {
		t.Fatalf("reward %v should be negative (-sqrt T)", ep.Reward)
	}
	if math.Abs(ep.Reward+math.Sqrt(ep.Eval.PerIter)) > 1e-9 && !ep.Eval.Result.OOM() {
		t.Fatalf("reward %v inconsistent with per-iter %v", ep.Reward, ep.Eval.PerIter)
	}
}

func TestGreedyEpisodeIsDeterministic(t *testing.T) {
	ev := smallEvaluator(t)
	a := newAgent(t, 4)
	e1, err := a.RunEpisode(ev, false, true)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := a.RunEpisode(ev, false, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1.Strategy.Decisions {
		if e1.Strategy.Decisions[i] != e2.Strategy.Decisions[i] {
			t.Fatal("greedy decoding must be deterministic without learning")
		}
	}
}

func TestPlanBeatsOrMatchesAllDPBaselines(t *testing.T) {
	ev := smallEvaluator(t)
	a := newAgent(t, 4)
	plan, err := a.Plan(ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.OOM() {
		t.Fatal("plan must be feasible")
	}
	for _, kind := range []strategy.DecisionKind{
		strategy.DPEvenPS, strategy.DPEvenAR, strategy.DPPropPS, strategy.DPPropAR,
	} {
		be, err := baselines.EvaluateDP(ev, kind)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Time() > be.Time()+1e-9 {
			t.Fatalf("HeteroG plan (%.4f) lost to %v (%.4f)", plan.Time(), kind, be.Time())
		}
	}
}

func TestPlanFindsFeasibleWhenDPOOMs(t *testing.T) {
	g, err := models.BertLarge(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed8().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	be, err := baselines.EvaluateDP(ev, strategy.DPEvenAR)
	if err != nil {
		t.Fatal(err)
	}
	if !be.Result.OOM() {
		t.Fatal("precondition: EV-AR should OOM for BERT-48 at batch 24")
	}
	a := newAgent(t, 8)
	plan, err := a.Plan(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Result.OOM() {
		t.Fatal("HeteroG should find a feasible strategy where DP cannot")
	}
	stats := plan.StrategyStats()
	var mp float64
	for _, v := range stats.MPShare {
		mp += v
	}
	if mp < 0.3 {
		t.Fatalf("large-model plan uses only %.0f%% MP; expected heavy model parallelism", 100*mp)
	}
}

func TestTrainConvergesAndStops(t *testing.T) {
	ev := smallEvaluator(t)
	a := newAgent(t, 4)
	results, err := a.Train([]*core.Evaluator{ev}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Episodes == 0 || r.Episodes > 12 {
		t.Fatalf("episodes %d out of range", r.Episodes)
	}
	if len(r.RewardsTrace) != r.Episodes {
		t.Fatal("trace length mismatch")
	}
	if r.BestReward <= -1e17 {
		t.Fatal("no reward recorded")
	}
	if r.BestTime <= 0 {
		t.Fatal("no best time recorded")
	}
}

func TestActionSpaceMatchesCluster(t *testing.T) {
	a := newAgent(t, 4)
	if a.Net.Actions != strategy.ActionSpaceSize(4) {
		t.Fatalf("network emits %d actions, want %d", a.Net.Actions, strategy.ActionSpaceSize(4))
	}
}

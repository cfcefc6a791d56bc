package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/faults"
	"heterog/internal/models"
	"heterog/internal/strategy"
)

// mutateStrategy flips k random group decisions.
func mutateStrategy(s *strategy.Strategy, m, k int, rng *rand.Rand) *strategy.Strategy {
	ds := append([]strategy.Decision(nil), s.Decisions...)
	for i := 0; i < k; i++ {
		d, err := strategy.DecisionFromAction(rng.Intn(strategy.ActionSpaceSize(m)), m)
		if err != nil {
			panic(err)
		}
		ds[rng.Intn(len(ds))] = d
	}
	return &strategy.Strategy{Grouping: s.Grouping, Decisions: ds}
}

func sameDeltaEval(t *testing.T, what string, got, want *Evaluation) {
	t.Helper()
	if got.Pruned != want.Pruned {
		t.Fatalf("%s: pruned %v != %v", what, got.Pruned, want.Pruned)
	}
	if got.PerIter != want.PerIter || got.ComputeTime != want.ComputeTime || got.CommTime != want.CommTime {
		t.Fatalf("%s: per-iter/compute/comm %v/%v/%v, want %v/%v/%v",
			what, got.PerIter, got.ComputeTime, got.CommTime, want.PerIter, want.ComputeTime, want.CommTime)
	}
	if got.Result.Makespan != want.Result.Makespan ||
		!reflect.DeepEqual(got.Result.Starts, want.Result.Starts) ||
		!reflect.DeepEqual(got.Result.Finishes, want.Result.Finishes) ||
		!reflect.DeepEqual(got.Result.PeakMem, want.Result.PeakMem) {
		t.Fatalf("%s: simulated schedules diverge", what)
	}
	if (got.Robust == nil) != (want.Robust == nil) {
		t.Fatalf("%s: robust report presence differs", what)
	}
	if got.Robust != nil {
		if !reflect.DeepEqual(got.Robust.Times, want.Robust.Times) ||
			got.Robust.Worst != want.Robust.Worst || got.Robust.P95 != want.Robust.P95 ||
			got.Robust.WorstScenario != want.Robust.WorstScenario {
			t.Fatalf("%s: robust reports diverge:\n got %+v\nwant %+v", what, got.Robust, want.Robust)
		}
	}
	if Reward(got) != Reward(want) || got.Score() != want.Score() {
		t.Fatalf("%s: reward/score diverge", what)
	}
}

// TestEvaluateDeltaGoldenAcrossZoo pins the acceptance invariant: a seeded
// mutation walk evaluated through the delta path must be bit-identical to a
// fresh evaluator's full compile + simulate at every step, across the model
// zoo.
func TestEvaluateDeltaGoldenAcrossZoo(t *testing.T) {
	for _, tc := range []struct {
		key   string
		batch int
	}{
		{"vgg19", 64},
		{"mobilenet_v2", 48},
		{"bert24", 24},
	} {
		t.Run(tc.key, func(t *testing.T) {
			evD := evaluatorFor(t, tc.key, tc.batch, 8)
			evD.EnableDelta(nil)
			evF := evaluatorFor(t, tc.key, tc.batch, 8)
			m := evD.Cluster.NumDevices()
			rng := rand.New(rand.NewSource(42))
			cur := uniform(t, evD, strategy.DPEvenPS)
			for step := 0; step < 8; step++ {
				next := mutateStrategy(cur, m, 1+rng.Intn(2), rng)
				got, err := evD.EvaluateDelta(next, math.Inf(1))
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if got.Dist != nil {
					t.Fatal("delta evaluations must not leak the patched DistGraph")
				}
				want, err := evF.Evaluate(next)
				if err != nil {
					t.Fatalf("step %d full: %v", step, err)
				}
				sameDeltaEval(t, tc.key, got, want)
				cur = next
			}
			rep := evD.PipelineReport().Pruning
			if rep.DeltaCompiles == 0 || rep.OpsRelowered == 0 {
				t.Fatalf("walk never exercised the patch path: %+v", rep)
			}
		})
	}
}

// TestEvaluateDeltaIncumbentWalk pins the delta path under a search-style
// walk: proposals of at most two edits against an incumbent that moves only
// on a strict improvement, so rejected proposals leave the retained baseline
// on a strategy the next proposal does not extend. Every result must equal a
// fresh full evaluation bit for bit, the patch counters must advance, and an
// immediate repeat of a proposal must be answered by the zero-diff memo with
// the same numbers.
func TestEvaluateDeltaIncumbentWalk(t *testing.T) {
	evD := evaluatorFor(t, "vgg19", 64, 4)
	evD.EnableDelta(nil)
	evF := evaluatorFor(t, "vgg19", 64, 4)
	m := evD.Cluster.NumDevices()
	rng := rand.New(rand.NewSource(3))
	inc := uniform(t, evD, strategy.DPEvenPS)
	first, err := evD.EvaluateDelta(inc, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	best := first.Score()
	for step := 0; step < 12; step++ {
		next := mutateStrategy(inc, m, 1+rng.Intn(2), rng)
		got, err := evD.EvaluateDelta(next, math.Inf(1))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := evF.Evaluate(next)
		if err != nil {
			t.Fatalf("step %d full: %v", step, err)
		}
		sameDeltaEval(t, "walk", got, want)
		reused := evD.PipelineReport().Reused
		again, err := evD.EvaluateDelta(next, math.Inf(1))
		if err != nil {
			t.Fatalf("step %d repeat: %v", step, err)
		}
		if evD.PipelineReport().Reused != reused+1 {
			t.Fatalf("step %d: repeated proposal missed the zero-diff memo", step)
		}
		sameDeltaEval(t, "memo", again, want)
		if got.Score() < best {
			best, inc = got.Score(), next
		}
	}
	rep := evD.PipelineReport().Pruning
	if rep.DeltaCompiles == 0 || rep.OpsRelowered == 0 {
		t.Fatalf("walk never exercised the patch path: %+v", rep)
	}
}

// TestEvaluateDeltaGoldenRobustTwins extends the golden pin to robustness
// mode: the sequential per-scenario delta baselines must reproduce the
// parallel full-path scenario evaluations exactly.
func TestEvaluateDeltaGoldenRobustTwins(t *testing.T) {
	build := func() *Evaluator {
		ev := evaluatorFor(t, "mobilenet_v2", 48, 4)
		scs := faults.Generate(ev.Cluster, faults.DefaultModel(3, 7))
		if err := ev.EnableRobustness(scs, 0.5); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	evD := build()
	evD.EnableDelta(nil)
	evF := build()
	m := evD.Cluster.NumDevices()
	rng := rand.New(rand.NewSource(9))
	cur := uniform(t, evD, strategy.DPPropPS)
	for step := 0; step < 5; step++ {
		next := mutateStrategy(cur, m, 1, rng)
		got, err := evD.EvaluateDelta(next, math.Inf(1))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, err := evF.Evaluate(next)
		if err != nil {
			t.Fatalf("step %d full: %v", step, err)
		}
		sameDeltaEval(t, "robust", got, want)
		cur = next
	}
}

// TestEvaluateDeltaPrunesAgainstBound checks the screens still fire on the
// delta path: a bound far below any feasible time must come back Pruned
// without an exact simulation.
func TestEvaluateDeltaPrunesAgainstBound(t *testing.T) {
	ev := evaluatorFor(t, "vgg19", 64, 8)
	ev.EnablePruning(nil)
	ev.EnableDelta(nil)
	s := uniform(t, ev, strategy.DPEvenPS)
	// Seed the baseline with an exact evaluation first.
	if _, err := ev.EvaluateDelta(s, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	m := ev.Cluster.NumDevices()
	rng := rand.New(rand.NewSource(5))
	next := mutateStrategy(s, m, 1, rng)
	e, err := ev.EvaluateDelta(next, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Pruned {
		t.Fatal("a 1ns incumbent bound must certify any candidate a loser")
	}
	if !math.IsInf(e.Score(), 1) {
		t.Fatal("pruned delta evaluations must never win comparisons")
	}
}

// TestEvaluateDeltaGoldenTestbed64 extends the golden pin to the 64-device
// regime, where the delta path's graphs are largest.
func TestEvaluateDeltaGoldenTestbed64(t *testing.T) {
	g, err := models.Build("mobilenet_v2", 64)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g, cluster.Testbed64().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev.EnableDelta(nil)
	evF, err := NewEvaluator(g, cluster.Testbed64().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := strategy.Group(g, ev.Cost, g.NumOps())
	if err != nil {
		t.Fatal(err)
	}
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPPropPS})
	got, err := ev.EvaluateDelta(s, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := evF.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	sameDeltaEval(t, "testbed64", got, want)
}

// TestEvaluateDeltaWithoutEnableDegrades keeps the API safe to call blind.
func TestEvaluateDeltaWithoutEnableDegrades(t *testing.T) {
	ev := evaluatorFor(t, "vgg19", 64, 4)
	s := uniform(t, ev, strategy.DPEvenAR)
	got, err := ev.EvaluateDelta(s, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dist == nil {
		t.Fatal("without EnableDelta the full path runs and keeps its DistGraph")
	}
}

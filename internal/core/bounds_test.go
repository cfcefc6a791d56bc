package core

import (
	"math"
	"math/rand"
	"testing"

	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/plan"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

// randomStrategy samples a mixed MP/DP strategy over ~40 groups, the same
// action space the agent decodes from.
func randomStrategy(t *testing.T, ev *Evaluator, rng *rand.Rand) *strategy.Strategy {
	t.Helper()
	gr, err := strategy.Group(ev.Graph, ev.Cost, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := ev.Cluster.NumDevices()
	s := &strategy.Strategy{Grouping: gr, Decisions: make([]strategy.Decision, gr.NumGroups())}
	for i := range s.Decisions {
		d, err := strategy.DecisionFromAction(rng.Intn(strategy.ActionSpaceSize(m)), m)
		if err != nil {
			t.Fatal(err)
		}
		s.Decisions[i] = d
	}
	return s
}

// TestAnalyticBoundsAreSound: both screening bounds are true lower bounds on
// the exact steady-state per-iteration time, for arbitrary mixed strategies.
// An unsound bound would let the planner prune a candidate it should have
// kept, silently changing the winner.
func TestAnalyticBoundsAreSound(t *testing.T) {
	ev := evaluatorFor(t, "vgg19", 64, 4)
	ev.EnablePruning(nil)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		s := randomStrategy(t, ev, rng)
		e, err := ev.Evaluate(s) // unbounded: always exact
		if err != nil {
			t.Fatal(err)
		}
		if e.Pruned {
			t.Fatal("unbounded Evaluate must never prune")
		}
		pre := ev.PreLowerBound(s)
		if pre <= 0 {
			t.Fatalf("trial %d: pre-lowering bound %v, want > 0", trial, pre)
		}
		if pre > e.PerIter*(1+1e-9) {
			t.Fatalf("trial %d: pre-lowering bound %.6f exceeds exact per-iter %.6f", trial, pre, e.PerIter)
		}
		post := DistLowerBound(e.Dist)
		if post > e.PerIter*(1+1e-9) {
			t.Fatalf("trial %d: post-lowering bound %.6f exceeds exact per-iter %.6f", trial, post, e.PerIter)
		}
		// Cross-check the simulator's own invariants on the exact result:
		// makespan covers the critical path and every unit's total work.
		if err := sim.Validate(e.Dist, e.Result); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPreLowerBoundBitEqualToDirectSum: the screen reads per-op times from
// a table built once per evaluator. Summed per device in graph op order, the
// table gives the same float as asking the cost model for every op's
// instance time under its decision's layout, on 4 and 8 devices.
func TestPreLowerBoundBitEqualToDirectSum(t *testing.T) {
	for _, devs := range []int{4, 8} {
		ev := evaluatorFor(t, "inception_v3", 64, devs)
		ev.EnablePruning(nil)
		rng := rand.New(rand.NewSource(int64(devs)))
		for trial := 0; trial < 10; trial++ {
			s := randomStrategy(t, ev, rng)
			work := make([]float64, devs)
			for _, op := range ev.Graph.Ops {
				if op.Kind == graph.KindApplyGradient || op.Kind.IsComm() {
					continue
				}
				fr := plan.LayoutFor(compiler.EffectiveDecision(s, op), ev.Cluster.Cluster).Fracs
				for dev, f := range fr {
					if f > 0 {
						work[dev] += ev.Cost.OpTime(op, dev, f)
					}
				}
			}
			var want float64
			for _, w := range work {
				want = math.Max(want, w)
			}
			if got := ev.PreLowerBound(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d devices, trial %d: bound %v, direct sum %v", devs, trial, got, want)
			}
		}
	}
}

// TestEvaluateBoundedPruneIsCertified: a pruned verdict is a proof, not a
// guess — whenever EvaluateBounded prunes, the candidate's exact score really
// is worse than the bound it was screened against.
func TestEvaluateBoundedPruneIsCertified(t *testing.T) {
	ev := evaluatorFor(t, "vgg19", 64, 4)
	ev.EnablePruning(nil)
	exact := evaluatorFor(t, "vgg19", 64, 4) // pruning off: ground truth
	rng := rand.New(rand.NewSource(13))
	pruned := 0
	for trial := 0; trial < 25; trial++ {
		s := randomStrategy(t, ev, rng)
		truth, err := exact.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		// Bounds straddling the exact score: all must satisfy the guarantee
		// pruned ⟹ exact score > bound.
		for _, bound := range []float64{truth.Score() * 0.5, truth.Score(), truth.Score() * 2} {
			e, err := ev.EvaluateBounded(s, bound)
			if err != nil {
				t.Fatal(err)
			}
			if e.Pruned {
				pruned++
				if truth.Score() <= bound {
					t.Fatalf("trial %d: pruned at bound %.6f but exact score %.6f beats it", trial, bound, truth.Score())
				}
			} else if e.Score() != truth.Score() {
				t.Fatalf("trial %d: bounded eval score %.6f != exact %.6f", trial, e.Score(), truth.Score())
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no candidate was ever pruned; the test exercised nothing")
	}
}

// TestPrunedNeverCached: a pruned verdict depends on the caller's incumbent,
// so it must not poison the evaluation cache — re-evaluating the same
// strategy without a bound must produce the full exact result.
func TestPrunedNeverCached(t *testing.T) {
	ev := evaluatorFor(t, "vgg19", 64, 4)
	ev.EnablePruning(nil)
	rng := rand.New(rand.NewSource(3))
	var s *strategy.Strategy
	var prunedEval *Evaluation
	for trial := 0; trial < 50; trial++ {
		cand := randomStrategy(t, ev, rng)
		e, err := ev.EvaluateBounded(cand, 1e-9) // absurdly tight incumbent
		if err != nil {
			t.Fatal(err)
		}
		if e.Pruned {
			s, prunedEval = cand, e
			break
		}
	}
	if s == nil {
		t.Fatal("could not produce a pruned evaluation")
	}
	if prunedEval.Dist != nil || prunedEval.Result != nil {
		t.Fatal("pruned evaluation must not carry compiled or simulated payloads")
	}
	if !math.IsInf(prunedEval.Score(), 1) || !math.IsInf(prunedEval.Time(), 1) {
		t.Fatal("pruned evaluation must score +Inf")
	}
	e, err := ev.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	if e.Pruned || e.Result == nil || math.IsInf(e.Score(), 1) {
		t.Fatal("exact re-evaluation after a pruned attempt must be full: the pruned verdict leaked into the cache")
	}
	rep := ev.PipelineReport()
	if rep.Pruning.BoundsTried == 0 || rep.Pruning.PrunedPreLower+rep.Pruning.PrunedPostLower+rep.Pruning.SimsAborted == 0 {
		t.Fatalf("pruning counters not recorded: %+v", rep.Pruning)
	}
}

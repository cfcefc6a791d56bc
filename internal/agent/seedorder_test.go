package agent

import (
	"context"
	"math"
	"reflect"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/models"
	"heterog/internal/strategy"
)

// seedOrders are the seed evaluation orders the planner's winner must not
// depend on: generation order, the planner's own ascending-bound order, and
// generation order reversed.
var seedOrders = map[string]func(pre []float64) []int{
	"generation": func(pre []float64) []int {
		idx := make([]int, len(pre))
		for i := range idx {
			idx[i] = i
		}
		return idx
	},
	"bound": boundOrder,
	"reversed": func(pre []float64) []int {
		idx := make([]int, len(pre))
		for i := range idx {
			idx[i] = len(pre) - 1 - i
		}
		return idx
	},
}

// plannedWinner is what a plan returns that a caller can observe: the
// strategy, its per-iteration time and the execution order it ships with.
type plannedWinner struct {
	decisions []strategy.Decision
	perIter   uint64
	ranked    bool
}

// TestSeedOrderIndependentWinner plans each cold-mix model on Testbed4 and
// Testbed8 with the seed pool evaluated in three orders, each on a fresh
// evaluator and agent, and requires the same winner every time: the
// evaluation order may change only how much work the bounds skip.
func TestSeedOrderIndependentWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("plans twelve model/testbed pairs three times each")
	}
	if raceEnabled {
		t.Skip("a determinism check, slow under the race detector")
	}
	testbeds := map[int]func() *cluster.Cluster{4: cluster.Testbed4, 8: cluster.Testbed8}
	for _, key := range []string{"vgg19", "resnet200", "inception_v3", "mobilenet_v2", "transformer6", "bert24"} {
		for _, gpus := range []int{4, 8} {
			key, gpus := key, gpus
			t.Run(key+"/"+map[int]string{4: "Testbed4", 8: "Testbed8"}[gpus], func(t *testing.T) {
				g, err := models.Build(key, 64)
				if err != nil {
					t.Fatal(err)
				}
				var want *plannedWinner
				for _, name := range []string{"generation", "bound", "reversed"} {
					ev, err := core.NewEvaluator(g, testbeds[gpus]().FullView(), 1)
					if err != nil {
						t.Fatal(err)
					}
					ev.EnablePruning(nil)
					a, err := New(DefaultConfig(gpus), gpus)
					if err != nil {
						t.Fatal(err)
					}
					best, err := a.plan(context.Background(), ev, 2, seedOrders[name])
					if err != nil {
						t.Fatal(err)
					}
					got := winnerOf(t, ev, best)
					if want == nil {
						want = got
						continue
					}
					if !reflect.DeepEqual(got.decisions, want.decisions) {
						t.Errorf("%s order picks a different strategy than generation order", name)
					}
					if got.perIter != want.perIter {
						t.Errorf("%s order: per-iter %v, generation order %v", name, math.Float64frombits(got.perIter), math.Float64frombits(want.perIter))
					}
					if got.ranked != want.ranked {
						t.Errorf("%s order ships ranked=%v, generation order ranked=%v", name, got.ranked, want.ranked)
					}
				}
			})
		}
	}
}

// winnerOf records a planned winner. The execution order is read off the
// schedule: the winner ships the ranked order when its start times are
// those of the ranked evaluation of its strategy.
func winnerOf(t *testing.T, ev *core.Evaluator, best *core.Evaluation) *plannedWinner {
	t.Helper()
	rk, err := ev.Evaluate(best.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return &plannedWinner{
		decisions: best.Strategy.Decisions,
		perIter:   math.Float64bits(best.PerIter),
		ranked:    reflect.DeepEqual(rk.Result.Starts, best.Result.Starts),
	}
}

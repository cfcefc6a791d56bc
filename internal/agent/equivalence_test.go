package agent

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/models"
)

// -update regenerates the golden winners from the current exact planner.
var updatePlanGolden = flag.Bool("update-plan", false, "rewrite testdata/golden_plan.json from current exact-planner behavior")

type planGolden struct {
	Case    string `json:"case"`
	Score   uint64 `json:"score_bits"`
	PerIter uint64 `json:"per_iter_bits"`
	OOM     bool   `json:"oom"`
}

const planGoldenPath = "testdata/golden_plan.json"

func planOnce(t *testing.T, key string, batch int, pruned bool) *core.Evaluation {
	t.Helper()
	g, err := models.Build(key, batch)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed4().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	if pruned {
		ev.EnablePruning(nil)
	}
	a, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := a.Plan(ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPrunedPlannerWinnerEquivalent is the equivalence guarantee behind the
// WithPruning default: across the standard model zoo, the planner with
// bound screening and early-abort simulation armed selects a winner with
// exactly the same score as the exhaustive planner, and the exhaustive
// winner matches the checked-in golden so the guarantee cannot silently
// decay into "both planners drifted together".
func TestPrunedPlannerWinnerEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("plans the full model zoo twice")
	}
	var goldens []planGolden
	for _, bm := range models.StandardBenchmarks() {
		bm := bm
		t.Run(bm.Key, func(t *testing.T) {
			exact := planOnce(t, bm.Key, bm.Batch8, false)
			fast := planOnce(t, bm.Key, bm.Batch8, true)
			if fast.Pruned {
				t.Fatal("planner returned a pruned evaluation as the winner")
			}
			if fast.Score() != exact.Score() {
				t.Fatalf("pruned planner winner score %.9f != exhaustive %.9f", fast.Score(), exact.Score())
			}
			if fast.PerIter != exact.PerIter {
				t.Fatalf("pruned planner winner per-iter %.9f != exhaustive %.9f", fast.PerIter, exact.PerIter)
			}
			goldens = append(goldens, planGolden{
				Case:    bm.Key,
				Score:   math.Float64bits(exact.Score()),
				PerIter: math.Float64bits(exact.PerIter),
				OOM:     exact.Result.OOM(),
			})
		})
	}
	if t.Failed() {
		return
	}
	if *updatePlanGolden {
		data, err := json.MarshalIndent(goldens, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(planGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", planGoldenPath)
		return
	}
	data, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-plan to create)", err)
	}
	var want []planGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldens) {
		t.Fatalf("golden has %d cases, got %d", len(want), len(goldens))
	}
	for i, g := range goldens {
		if g != want[i] {
			t.Errorf("case %s: winner drifted from golden: got %+v want %+v", g.Case, g, want[i])
		}
	}
}

package experiments

import (
	"fmt"

	"heterog"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/faults"
	"heterog/internal/graph"
	"heterog/internal/models"
)

// RobustRow is one workload's fault-robustness profile: the planned strategy
// scored across K fault scenarios, the stale plan re-run on the degraded
// (worst-scenario) cluster, and the result of replanning there with the warm
// agent. Rows serialize to BENCH_robust.json via the bench CLI.
type RobustRow struct {
	Model            string  `json:"model"`
	Batch            int     `json:"batch"`
	Scenarios        int     `json:"scenarios"`
	NominalSec       float64 `json:"nominal_sec"`
	P95Sec           float64 `json:"p95_sec"`
	WorstSec         float64 `json:"worst_sec"`
	OOMUnderFault    int     `json:"oom_under_fault"`
	WorstScenario    string  `json:"worst_scenario"`
	DegradedStaleSec float64 `json:"degraded_stale_sec"`
	ReplannedSec     float64 `json:"replanned_sec"`
	ReplanGainPct    float64 `json:"replan_gain_pct"`
}

// robustWorkloads keeps the exhibit affordable: one communication-heavy CNN
// and one compact CNN, both on the 8-GPU testbed.
var robustWorkloads = []models.Benchmark{
	{Key: "vgg19", Display: "VGG-19", Batch8: 192},
	{Key: "inception_v3", Display: "Inception_v3", Batch8: 128},
}

// Robust is the fault-robustness exhibit (not part of the paper, which plans
// against a static cluster): for each workload it plans with robustness
// scoring over k scenarios drawn from faultSeed, re-runs the stale plan on
// the worst scenario's degraded cluster, and replans there through the public
// Replan API. robustObj switches the planning objective from nominal time to
// the blended nominal/worst-case reward.
func (l *Lab) Robust(k int, faultSeed int64, robustObj bool, blend float64) (*Report, []RobustRow, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Robustness under %d fault scenarios (8 GPUs, fault seed %d)", k, faultSeed),
		Header: []string{"Model", "Nominal (s)", "p95 (s)", "Worst (s)", "OOM@fault", "Stale@degraded (s)", "Replanned (s)", "Replan gain"},
	}
	var rows []RobustRow
	for _, bm := range robustWorkloads {
		row, err := l.robustRow(bm, k, faultSeed, robustObj, blend)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", bm.Key, err)
		}
		rows = append(rows, *row)
		rep.Rows = append(rep.Rows, []string{
			bm.Display,
			fmt.Sprintf("%.3f", row.NominalSec),
			fmt.Sprintf("%.3f", row.P95Sec),
			fmt.Sprintf("%.3f", row.WorstSec),
			fmt.Sprintf("%d/%d", row.OOMUnderFault, row.Scenarios),
			fmt.Sprintf("%.3f", row.DegradedStaleSec),
			fmt.Sprintf("%.3f", row.ReplannedSec),
			fmt.Sprintf("%.1f%%", row.ReplanGainPct),
		})
	}
	obj := "nominal"
	if robustObj {
		obj = fmt.Sprintf("robust blend %.2f", blend)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("planning objective: %s; degraded cluster = worst scenario applied (failed device crippled, not removed)", obj),
		"replanning reuses the warm agent and keeps the stale plan when it still wins (under the robust objective the gain is in blended score, not necessarily nominal time)")
	return rep, rows, nil
}

func (l *Lab) robustRow(bm models.Benchmark, k int, faultSeed int64, robustObj bool, blend float64) (*RobustRow, error) {
	opts := []heterog.Option{
		heterog.WithEpisodes(l.cfg.Episodes),
		heterog.WithSeed(l.cfg.Seed),
		heterog.WithFaultSeed(faultSeed),
	}
	if robustObj {
		opts = append(opts, heterog.WithRobustness(k, blend))
	} else {
		// Robustness scoring without steering the search: blend 0 keeps the
		// objective purely nominal but still produces the report.
		opts = append(opts, heterog.WithRobustness(k, 1e-9))
	}
	cl := cluster.Testbed8()
	builder := func(b int) (*graph.Graph, error) { return models.Build(bm.Key, b) }
	runner, err := heterog.GetRunner(
		heterog.ZooModel(builder, bm.Batch8),
		func() (int, error) { return bm.Batch8, nil },
		cl, opts...)
	if err != nil {
		return nil, err
	}
	rr := runner.RobustReport()
	row := &RobustRow{
		Model: bm.Key, Batch: bm.Batch8,
		Scenarios:     rr.Scenarios,
		NominalSec:    rr.NominalSec,
		P95Sec:        rr.P95Sec,
		WorstSec:      rr.WorstSec,
		OOMUnderFault: rr.OOMUnderFault,
		WorstScenario: rr.WorstScenario,
	}
	// Re-create the worst scenario (generation is deterministic in the
	// seed) and degrade the cluster with it.
	clv := cl.FullView()
	scs := faults.Generate(clv, faults.DefaultModel(k, faultSeed))
	worst := scs[0]
	for _, sc := range scs {
		if sc.Name == rr.WorstScenario {
			worst = sc
		}
	}
	degraded := worst.Apply(clv)
	// Stale plan on the degraded cluster vs. replanning there. The stale
	// score uses a fresh evaluator built with the same seed Replan uses
	// internally, so both numbers come from the same degraded cost model.
	replanned, err := runner.ReplanView(degraded)
	if err != nil {
		return nil, err
	}
	sev, err := core.NewEvaluator(runner.Graph, degraded, l.cfg.Seed)
	if err != nil {
		return nil, err
	}
	stale, err := sev.Evaluate(runner.Strategy)
	if err != nil {
		return nil, err
	}
	row.DegradedStaleSec = stale.PerIter
	row.ReplannedSec = replanned.Plan.PerIter
	if stale.PerIter > 0 {
		row.ReplanGainPct = 100 * (stale.PerIter - replanned.Plan.PerIter) / stale.PerIter
	}
	return row, nil
}

package heterog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/faults"
	"heterog/internal/graph"
	"heterog/internal/models"
)

var errBoom = errors.New("boom")

func TestGetRunnerQuickstart(t *testing.T) {
	runner, err := GetRunner(
		ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil },
		cluster.Testbed4(),
		WithEpisodes(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	report, err := runner.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if report.PerIterationSec <= 0 {
		t.Fatal("per-iteration time must be positive")
	}
	if report.TotalSec != report.PerIterationSec*100 {
		t.Fatal("total time must be steps x per-iteration")
	}
	if len(report.PeakMemBytes) != 4 {
		t.Fatalf("peak memory for %d devices, want 4", len(report.PeakMemBytes))
	}
	var share float64
	for _, v := range report.Stats.MPShare {
		share += v
	}
	for _, v := range report.Stats.DPShare {
		share += v
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("strategy shares sum to %v", share)
	}
}

func TestGetRunnerErrors(t *testing.T) {
	devices := cluster.Testbed4()
	bad := func() (int, error) { return 64, nil }
	if _, err := GetRunner(func() (*graph.Graph, error) { return nil, errBoom }, bad, devices, nil); err == nil {
		t.Fatal("model_func errors must propagate")
	}
	runner, err := GetRunner(ZooModel(models.MobileNetV2, 64), bad, devices, WithEpisodes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(0); err == nil {
		t.Fatal("non-positive steps must error")
	}
}

func TestGetRunnerRejectsInfeasibleModel(t *testing.T) {
	// BERT-48 at batch 24 does not fit the tiny 4-GPU testbed at all; the
	// API must report the failure instead of returning an OOM plan.
	small := cluster.New("tiny",
		cluster.Config{GPUs: 2, Model: cluster.GPUModel{Name: "Tiny", PeakTFLOPS: 5, MemBytes: 4 << 30, Power: 1}, NICBandwidth: cluster.Gbps(10), PCIeBandwidth: cluster.Gbps(32)},
	)
	_, err := GetRunner(
		ZooModel(func(b int) (*graph.Graph, error) { return models.BertLarge(48, b) }, 24),
		func() (int, error) { return 24, nil },
		small,
		WithEpisodes(0),
	)
	if err == nil {
		t.Fatal("expected an infeasibility error")
	}
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("infeasibility must be detectable via errors.Is(err, ErrOOM), got %v", err)
	}
}

func TestRobustPlanningAndReport(t *testing.T) {
	runner, err := GetRunner(
		ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil },
		cluster.Testbed4(),
		WithEpisodes(1), WithRobustness(3, 0.5), WithFaultSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rr := runner.RobustReport()
	if rr == nil {
		t.Fatal("WithRobustness must populate RobustReport")
	}
	if rr.Scenarios != 3 || rr.Blend != 0.5 {
		t.Fatalf("report shape %d scenarios blend %v, want 3 and 0.5", rr.Scenarios, rr.Blend)
	}
	if rr.WorstSec < rr.NominalSec || rr.P95Sec > rr.WorstSec {
		t.Fatalf("report ordering violated: nominal %v p95 %v worst %v", rr.NominalSec, rr.P95Sec, rr.WorstSec)
	}
	// Without WithRobustness the report is absent.
	plain, err := GetRunner(ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil }, cluster.Testbed4(), WithEpisodes(0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.RobustReport() != nil {
		t.Fatal("nominal planning must not attach a robust report")
	}
}

func TestWriteTraceProducesValidJSON(t *testing.T) {
	runner, err := GetRunner(ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil }, cluster.Testbed4(), WithEpisodes(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runner.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace must contain events")
	}
}

func TestReplanBeatsStalePlanOnDegradedCluster(t *testing.T) {
	devices := cluster.Testbed8()
	runner, err := GetRunner(ZooModel(models.VGG19, 192),
		func() (int, error) { return 192, nil }, devices, WithEpisodes(4))
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the cluster with the worst of the example's fault scenarios.
	dv := devices.FullView()
	scs := faults.Generate(dv, faults.DefaultModel(4, 1))
	var worst *faults.Scenario
	var worstT float64
	for _, sc := range scs {
		degraded := sc.Apply(dv)
		nr, err := runner.ReplanView(degraded)
		if err != nil {
			t.Fatalf("replan on %s: %v", sc.Name, err)
		}
		stale, err := nr.evaluator.Evaluate(runner.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		// The incumbent is re-scored during Replan, so the replanned
		// runner can never lose to the stale plan.
		if nr.Plan.PerIter > stale.PerIter {
			t.Fatalf("%s: replanned %.4f slower than stale %.4f", sc.Name, nr.Plan.PerIter, stale.PerIter)
		}
		if stale.PerIter > worstT {
			worst, worstT = sc, stale.PerIter
		}
	}
	// On the worst scenario the warm replan must strictly improve (this is
	// the bundled examples/faulty outcome).
	nr, err := runner.ReplanView(worst.Apply(dv))
	if err != nil {
		t.Fatal(err)
	}
	if nr.Plan.PerIter >= worstT {
		t.Fatalf("replan on worst scenario did not improve: %.4f vs stale %.4f", nr.Plan.PerIter, worstT)
	}
}

func TestReplanAfterDeviceLoss(t *testing.T) {
	devices := cluster.Testbed4()
	runner, err := GetRunner(ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil }, devices, WithEpisodes(1))
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := devices.WithoutDevice(1)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := runner.Replan(survivors)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Cluster.NumDevices() != 3 {
		t.Fatalf("replanned cluster has %d devices, want 3", nr.Cluster.NumDevices())
	}
	if nr.Plan.PerIter <= 0 {
		t.Fatal("replanned per-iteration time must be positive")
	}
	// The original runner is untouched.
	if runner.Cluster.NumDevices() != 4 {
		t.Fatal("Replan must not mutate the original runner")
	}
	if _, err := runner.Replan(nil); err == nil {
		t.Fatal("Replan(nil) must error")
	}
}

func TestErrNoStrategyAliasing(t *testing.T) {
	// The public sentinel must match errors wrapped around the internal one.
	if !errors.Is(ErrNoStrategy, ErrNoStrategy) {
		t.Fatal("sentinel self-identity broken")
	}
	// agent.Plan wraps the internal sentinel; the public alias must match
	// the wrapped form.
	wrapped := fmt.Errorf("heterog: strategy search: %w", fmt.Errorf("%w for %s", ErrNoStrategy, "test"))
	if !errors.Is(wrapped, ErrNoStrategy) {
		t.Fatalf("wrapped search error must match ErrNoStrategy: %v", wrapped)
	}
}

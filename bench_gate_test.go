package heterog_test

// CI speedup gates, run via `make bench-smoke` (which sets BENCH_SMOKE=1)
// because each takes tens of seconds to minutes.

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/models"
	"heterog/internal/service"
	"heterog/internal/strategy"
)

// TestIncrementalSpeedupGate: the same seeded sequence of ≤2-edit mutation
// episodes runs once through EvaluateDelta and once through EvaluateBounded,
// and the wall-clock episode-throughput ratio must clear a hard 2x floor.
// The recorded exhibit (BENCH_eval.json, incremental_64dev) runs well above
// the floor; the margin absorbs machine noise without letting a real
// regression — a broken memo, a fallback-to-full patch path — slip through.
func TestIncrementalSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("perf gate; set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	const episodes = 100
	run := func(delta bool) (epsPerSec float64) {
		g, err := models.VGG19(256)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := core.NewEvaluator(g, cluster.Testbed64().FullView(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ev.Cache = nil // the gate measures the pipelines, not memoized repeats
		ev.EnablePruning(nil)
		if delta {
			ev.EnableDelta(nil)
		}
		gr, err := strategy.Group(g, ev.Cost, 500)
		if err != nil {
			t.Fatal(err)
		}
		cur := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenAR})
		inc, err := ev.Evaluate(cur)
		if err != nil {
			t.Fatal(err)
		}
		bound := inc.Score()
		rng := rand.New(rand.NewSource(7))
		m := ev.Cluster.NumDevices()
		start := time.Now()
		for i := 0; i < episodes; i++ {
			ds := append([]strategy.Decision(nil), cur.Decisions...)
			for j := 0; j < 1+rng.Intn(2); j++ {
				d, err := strategy.DecisionFromAction(rng.Intn(strategy.ActionSpaceSize(m)), m)
				if err != nil {
					t.Fatal(err)
				}
				ds[rng.Intn(len(ds))] = d
			}
			next := &strategy.Strategy{Grouping: gr, Decisions: ds}
			var e *core.Evaluation
			if delta {
				e, err = ev.EvaluateDelta(next, bound)
			} else {
				e, err = ev.EvaluateBounded(next, bound)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !e.Pruned && e.Score() < bound {
				bound = e.Score()
				cur = next
			}
		}
		return float64(episodes) / time.Since(start).Seconds()
	}
	incremental := run(true)
	full := run(false)
	ratio := incremental / full
	t.Logf("incremental %.1f eps/s, full %.1f eps/s, ratio %.2fx", incremental, full, ratio)
	if ratio < 2 {
		t.Fatalf("incremental evaluation speedup %.2fx is below the 2x gate (incremental %.1f eps/s, full %.1f eps/s)",
			ratio, incremental, full)
	}
}

// TestFleetSpeedupGate: four jobs, each capped at a quarter of one Testbed64,
// plan concurrently through the fleet allocator's leases, against the
// baseline of running the same jobs one at a time on the whole fleet. The
// comparison is in simulated training time per iteration:
//
//	fleet:      the jobs train concurrently on disjoint leases, so one
//	            iteration of all four costs max_i perIter(lease_i)
//	sequential: the whole fleet time-slices between jobs, so one iteration
//	            of all four costs sum_i perIter(full fleet)
//
// Heterogeneous fleets scale sublinearly (the NIC aggregation floor grows
// with the server count), so a job on a quarter of the fleet runs at well
// over a quarter of full-fleet speed and partitioning wins. The aggregate
// speedup must clear 1.5x (measured 2.8x on a 2-vCPU x86 box).
func TestFleetSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("perf gate; set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	specs := []cli.Spec{
		{Model: "vgg19", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "resnet200", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "inception_v3", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
		{Model: "mobilenet_v2", Batch: 64, Seed: 1, Episodes: 1, GPUs: 16},
	}
	// perIter submits every spec at once, then waits for each plan.
	perIter := func(cfg service.Config, specs []cli.Spec) []float64 {
		srv, err := service.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ids := make([]string, len(specs))
		for i, sp := range specs {
			st, err := srv.Submit(sp)
			if err != nil {
				t.Fatalf("submit %s: %v", sp.Model, err)
			}
			ids[i] = st.ID
		}
		out := make([]float64, len(ids))
		for i, id := range ids {
			if st, err := srv.Wait(context.Background(), id); err != nil || st.State != service.JobDone {
				t.Fatalf("%s: %+v, %v", specs[i].Model, st, err)
			}
			rep, err := srv.Report(id)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = rep.PerIterationSec
		}
		return out
	}

	var fleetIter, seqIter float64
	for _, s := range perIter(service.Config{Fleet: cluster.Testbed64()}, specs) {
		fleetIter = max(fleetIter, s)
	}
	// One worker makes the whole-fleet baseline literally one job at a time.
	whole := make([]cli.Spec, len(specs))
	for i, sp := range specs {
		sp.GPUs = 64
		whole[i] = sp
	}
	for _, s := range perIter(service.Config{Workers: 1, QueueDepth: len(whole)}, whole) {
		seqIter += s
	}
	speedup := seqIter / fleetIter
	t.Logf("fleet %.4fs/iter (max) vs sequential %.4fs/iter (sum): aggregate speedup %.2fx", fleetIter, seqIter, speedup)
	if speedup < 1.5 {
		t.Fatalf("fleet aggregate speedup %.2fx is below the 1.5x gate", speedup)
	}
}

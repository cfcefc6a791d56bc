package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"heterog/internal/agent"
	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/core"
	"heterog/internal/fleet"
	"heterog/internal/plan"
	"heterog/internal/service"
	"heterog/internal/sim"
	"heterog/internal/store"
	"heterog/internal/strategy"
	"heterog/internal/telemetry"
)

// Probes time each layer's public functions in the harness process, after
// the workload's timed phase, on that workload's own inputs: up to
// probeInputs distinct plans it returned. Each probe reports the median over
// at least probeCalls calls spread evenly over the inputs.
const (
	probeInputs = 4
	probeCalls  = 20
)

// layerUnits lists the per-layer metrics every traced run reports, with
// their units. Layer names are the repository's module names.
var layerUnits = map[string]string{
	"service.queue_wait_ms_p50":    "ms",
	"service.overhead_ms_p50":      "ms",
	"service.plan_s_p50":           "s",
	"agent.rollout_ms":             "ms",
	"agent.update_ms":              "ms",
	"agent.allocs_per_rollout":     "count",
	"agent.halved_per_plan":        "count",
	"core.evaluate_cold_ms":        "ms",
	"core.bound_screen_us":         "us",
	"core.evaluate_delta_ms":       "ms",
	"core.bounds_tried_per_plan":   "count",
	"core.pruned_pre_ratio":        "ratio",
	"core.pruned_post_ratio":       "ratio",
	"core.sims_aborted_per_plan":   "count",
	"plan.lowerings_per_plan":      "count",
	"plan.reused_per_plan":         "count",
	"plan.lower_ms":                "ms",
	"plan.order_ms":                "ms",
	"plan.layout_ms":               "ms",
	"plan.edge-lowering_ms":        "ms",
	"plan.aggregation-lowering_ms": "ms",
	"plan.memory-planning_ms":      "ms",
	"plan.materialize_ms":          "ms",
	"plan.verify_ms":               "ms",
	"sim.run_ms":                   "ms",
	"profile.build_ms":             "ms",
	"evalcache.eval_hit_ratio":     "ratio",
	"evalcache.lowered_hit_ratio":  "ratio",
	"evalcache.hit_us":             "us",
	"fleet.submit_release_us":      "us",
	"store.append_us":              "us",
	"telemetry.observe_us":         "us",
	"runtime.gc_cycles_per_plan":   "count",
	"runtime.gc_cpu_pct":           "%",
}

// probeInput is one returned plan prepared for probing.
type probeInput struct {
	*planInput
	grouping  *strategy.Grouping
	heuristic *strategy.Strategy
	lowered   *plan.Artifacts
	ordered   *plan.Artifacts
}

// probeSet picks the first probeInputs distinct classes among the run's
// plans.
func (r *run) probeSet() ([]*probeInput, error) {
	seen := make(map[string]bool)
	var out []*probeInput
	for _, p := range r.plans {
		c := classOf(p.spec)
		if seen[c] || len(out) == probeInputs {
			continue
		}
		seen[c] = true
		pi, err := r.planInput(p)
		if err != nil {
			return nil, err
		}
		gr, err := strategy.Group(pi.g, pi.ev.Cost, agent.DefaultConfig(pi.view.NumDevices()).MaxGroups)
		if err != nil {
			return nil, err
		}
		out = append(out, &probeInput{planInput: pi, grouping: gr, heuristic: agent.HeuristicCandidates(pi.ev, gr)[0]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no returned plan to probe")
	}
	return out, nil
}

// sample calls fn at least probeCalls times spread over the inputs and
// returns the median of what it measured.
func sample(ins []*probeInput, fn func(in *probeInput) (float64, error)) (float64, error) {
	per := (probeCalls + len(ins) - 1) / len(ins)
	var xs []float64
	for _, in := range ins {
		for i := 0; i < per; i++ {
			v, err := fn(in)
			if err != nil {
				return 0, err
			}
			xs = append(xs, v)
		}
	}
	return median(xs), nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// probe is one per-layer probe: the metric it reports and how one call is
// measured.
type probe struct {
	name string
	fn   func(in *probeInput) (float64, error)
}

// runProbes measures every probe on the run's inputs. dir holds the store
// probe's files.
func runProbes(r *run, dir string) (map[string]float64, error) {
	ins, err := r.probeSet()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	passes := make(map[string][]float64)
	ms := func(d time.Duration, _ uint64) float64 { return float64(d.Nanoseconds()) / 1e6 }
	probes := []probe{
		{"profile.build_ms", func(in *probeInput) (float64, error) {
			t0 := time.Now()
			_, err := core.NewEvaluator(in.g, in.view, in.ev.Seed)
			return msSince(t0), err
		}},
		{"core.evaluate_cold_ms", func(in *probeInput) (float64, error) {
			cold := *in.ev
			cold.Cache, cold.Lowered = nil, nil
			t0 := time.Now()
			_, err := cold.Evaluate(in.heuristic)
			return msSince(t0), err
		}},
		{"core.bound_screen_us", boundScreen()},
		{"core.evaluate_delta_ms", evaluateDelta(r.env.seed)},
		{"plan.lower_ms", func(in *probeInput) (float64, error) {
			a := plan.NewArtifacts(in.g, in.view.Cluster, in.strat, in.ev.Cost, 3, compiler.Ablations{})
			t0 := time.Now()
			if err := plan.Lower(a); err != nil {
				return 0, err
			}
			ms := msSince(t0)
			for _, m := range a.Metrics {
				passes[m.Pass] = append(passes[m.Pass], float64(m.Duration.Nanoseconds())/1e6)
			}
			in.lowered = a
			return ms, nil
		}},
		{"plan.order_ms", func(in *probeInput) (float64, error) {
			oa := in.lowered.ForOrder(false)
			t0 := time.Now()
			err := plan.Order(oa)
			in.ordered = oa
			return msSince(t0), err
		}},
		{"sim.run_ms", func(in *probeInput) (float64, error) {
			t0 := time.Now()
			_, err := sim.Run(in.ordered.Dist, in.ordered.Priorities)
			return msSince(t0), err
		}},
		{"evalcache.hit_us", func(in *probeInput) (float64, error) {
			if _, err := in.ev.Evaluate(in.strat); err != nil {
				return 0, err
			}
			t0 := time.Now()
			_, err := in.ev.Evaluate(in.strat)
			return usSince(t0), err
		}},
		{"agent.rollout_ms", rollouts(false, ms)},
		{"agent.learn_ms", rollouts(true, ms)},
		{"agent.allocs_per_rollout", rollouts(false, func(_ time.Duration, mallocs uint64) float64 { return float64(mallocs) })},
		{"fleet.submit_release_us", submitRelease()},
		{"telemetry.observe_us", observe(r.env.seed)},
	}
	for _, p := range probes {
		v, err := sample(ins, p.fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v
	}
	// A learning rollout is a rollout plus the backward pass and the
	// optimizer step.
	out["agent.update_ms"] = out["agent.learn_ms"] - out["agent.rollout_ms"]
	delete(out, "agent.learn_ms")
	for name, xs := range passes {
		if name != "ordering" {
			out["plan."+name+"_ms"] = median(xs)
		}
	}
	if out["store.append_us"], err = storeAppend(filepath.Join(dir, "store-probe")); err != nil {
		return nil, fmt.Errorf("probe store.append_us: %w", err)
	}
	return out, nil
}

// boundScreen times the analytic pre-lowering bound on the returned plan.
func boundScreen() func(in *probeInput) (float64, error) {
	armed := make(map[*probeInput]*core.Evaluator)
	return func(in *probeInput) (float64, error) {
		ev := armed[in]
		if ev == nil {
			cp := *in.ev
			cp.EnablePruning(nil)
			ev = &cp
			armed[in] = ev
		}
		t0 := time.Now()
		ev.PreLowerBound(in.strat)
		return usSince(t0), nil
	}
}

// evaluateDelta times EvaluateDelta alternating between the returned plan
// and a copy with two groups' decisions changed, so every call patches a
// small diff against the retained baseline.
func evaluateDelta(seed int64) func(in *probeInput) (float64, error) {
	type state struct {
		ev   *core.Evaluator
		alt  [2]*strategy.Strategy
		next int
	}
	states := make(map[*probeInput]*state)
	return func(in *probeInput) (float64, error) {
		st := states[in]
		if st == nil {
			cp := *in.ev
			cp.Cache, cp.Lowered = nil, nil
			cp.EnableDelta(nil)
			m := in.view.NumDevices()
			mut := &strategy.Strategy{Grouping: in.strat.Grouping, Decisions: append([]strategy.Decision(nil), in.strat.Decisions...)}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2; i++ {
				gi := rng.Intn(len(mut.Decisions))
				d, err := strategy.DecisionFromAction((mut.Decisions[gi].ActionIndex(m)+1)%strategy.ActionSpaceSize(m), m)
				if err != nil {
					return 0, err
				}
				mut.Decisions[gi] = d
			}
			st = &state{ev: &cp, alt: [2]*strategy.Strategy{mut, in.strat}}
			if _, err := st.ev.EvaluateDelta(in.strat, math.Inf(1)); err != nil {
				return 0, err
			}
			states[in] = st
		}
		s := st.alt[st.next%2]
		st.next++
		t0 := time.Now()
		_, err := st.ev.EvaluateDelta(s, math.Inf(1))
		return msSince(t0), err
	}
}

// rollouts times RunEpisodes(ev, 4, learn) on a fresh agent per call. The
// agents share a seed, so every call samples the same batch: after the
// first call the evaluator's cache holds it, and a call measures the policy
// forward pass and decoding (plus, with learn, the backward pass and the
// optimizer step). metric turns the call's duration and heap allocation
// count into the reported value.
func rollouts(learn bool, metric func(time.Duration, uint64) float64) func(in *probeInput) (float64, error) {
	warmed := make(map[*probeInput]bool)
	return func(in *probeInput) (float64, error) {
		m := in.view.NumDevices()
		cfg := agent.DefaultConfig(m)
		cfg.Seed = in.ev.Seed
		newAgent := func() (*agent.Agent, error) {
			a, err := agent.New(cfg, m)
			if err != nil {
				return nil, err
			}
			// SeedIncumbent encodes the graph for the agent; encoding is
			// once per (agent, evaluator), not part of a rollout.
			e, err := in.ev.Evaluate(in.heuristic)
			if err != nil {
				return nil, err
			}
			return a, a.SeedIncumbent(in.ev, e)
		}
		if !warmed[in] {
			a, err := newAgent()
			if err != nil {
				return 0, err
			}
			if _, err := a.RunEpisodes(in.ev, 4, false); err != nil {
				return 0, err
			}
			warmed[in] = true
		}
		a, err := newAgent()
		if err != nil {
			return 0, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		_, err = a.RunEpisodes(in.ev, 4, learn)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		return metric(d, after.Mallocs-before.Mallocs), err
	}
}

// submitRelease times one Allocator.Submit plus Release of a fresh job on
// Testbed64, capped at the input's device count as a fleet-mode job would
// be; Submit includes the lease-time estimates for every shape it weighs.
func submitRelease() func(in *probeInput) (float64, error) {
	alloc := fleet.New(cluster.Testbed64(), nil)
	n := 0
	return func(in *probeInput) (float64, error) {
		n++
		id := fmt.Sprintf("probe-%d", n)
		t0 := time.Now()
		if _, err := alloc.Submit(fleet.JobSpec{ID: id, Graph: in.g, Seed: in.ev.Seed, MaxDevices: in.view.NumDevices()}); err != nil {
			return 0, err
		}
		alloc.Release(id)
		return usSince(t0), nil
	}
}

// observe times Watcher.Observe on one tick of a seeded drift trace for the
// input's cluster.
func observe(seed int64) func(in *probeInput) (float64, error) {
	type state struct {
		w   *telemetry.Watcher
		gen *telemetry.Generator
	}
	states := make(map[*probeInput]*state)
	return func(in *probeInput) (float64, error) {
		st := states[in]
		if st == nil || st.gen.Done() {
			st = &state{
				w:   telemetry.NewWatcher(in.view.Cluster, telemetry.Thresholds{Quantum: 0.5}),
				gen: telemetry.NewGenerator(in.view.Cluster, telemetry.GenConfig{Seed: seed}),
			}
			states[in] = st
		}
		readings := st.gen.Step()
		t0 := time.Now()
		st.w.Observe(in.view.Cluster, readings...)
		return usSince(t0), nil
	}
}

// storeAppend times File.AppendEvent, fsync included, in a fresh store.
func storeAppend(dir string) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	payload, err := json.Marshal(service.PlanEvent{Type: service.EventReplanAdopted, ReplanJob: "a-job-000002",
		Cluster: "testbed-8gpu", OldPerIterSec: 0.2, NewPerIterSec: 0.1, Time: time.Now()})
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 1; i <= probeCalls; i++ {
		t0 := time.Now()
		if err := st.AppendEvent("a-job-000001", store.EventRecord{Seq: uint64(i), Payload: payload}); err != nil {
			return 0, err
		}
		xs = append(xs, usSince(t0))
	}
	return median(xs), nil
}

package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"heterog/internal/faults"
	"heterog/internal/strategy"
)

// Robustness is an evaluator's fault-scenario configuration: K perturbed
// twins of the nominal (graph, cluster, cost model) triple, each sharing the
// nominal evaluation cache under its own scenario tag, plus the blend weight
// the planning objective puts on the worst case.
type Robustness struct {
	// Scenarios are the fault perturbations being scored against.
	Scenarios []*faults.Scenario
	// Blend in [0,1] is the worst-case weight in the robust reward
	// (0 = plan for the nominal cluster, 1 = plan purely for the worst
	// scenario). DefaultBlend when constructed with blend <= 0.
	Blend float64
	// evs[k] evaluates on Scenarios[k]'s perturbed cluster with a
	// deterministically scaled cost model (no re-profiling noise).
	evs []*Evaluator
}

// DefaultBlend is the worst-case weight used when none is given: equal
// emphasis on the cluster as described and the cluster as degraded.
const DefaultBlend = 0.5

// RobustReport aggregates one strategy's scores across the nominal cluster
// and every fault scenario.
type RobustReport struct {
	// Blend echoes the robustness configuration the report was scored under.
	Blend float64
	// Times[k] is the per-iteration time under scenario k; OOMs[k] reports
	// whether the strategy overflowed any device's (possibly shrunken)
	// memory there.
	Times []float64
	OOMs  []bool
	// Nominal is the unperturbed per-iteration time, Worst the slowest
	// scenario (or nominal) time, and P95 the 95th-percentile time across
	// nominal plus all scenarios.
	Nominal, P95, Worst float64
	// OOMFaults counts scenarios under which the strategy runs out of
	// memory even though it fits the nominal cluster.
	OOMFaults int
	// WorstScenario names the scenario behind Worst ("nominal" when no
	// scenario is slower than the unperturbed cluster).
	WorstScenario string
}

// EnableRobustness puts the evaluator in robustness mode: subsequent
// Evaluate calls score each strategy on the nominal cluster plus every
// scenario's perturbed twin (sharing the nominal cache under scenario-tagged
// fingerprints) and attach a RobustReport, and Reward optimizes the blended
// nominal/worst-case objective. blend <= 0 selects DefaultBlend. It must be
// called before the evaluator is shared across goroutines.
func (ev *Evaluator) EnableRobustness(scs []*faults.Scenario, blend float64) error {
	if ev.Robust != nil {
		return fmt.Errorf("core: robustness already enabled on this evaluator")
	}
	if ev.ScenarioTag != 0 {
		return fmt.Errorf("core: cannot enable robustness on a scenario twin")
	}
	if blend <= 0 {
		blend = DefaultBlend
	}
	if blend > 1 {
		blend = 1
	}
	r := &Robustness{Scenarios: scs, Blend: blend, evs: make([]*Evaluator, len(scs))}
	for k, sc := range scs {
		pc := sc.Apply(ev.Cluster)
		pcm, err := ev.Cost.Perturbed(pc.Cluster, sc.EffectiveSlowdowns(), sc.LinkFactor)
		if err != nil {
			return fmt.Errorf("core: scenario %s: %w", sc.Name, err)
		}
		r.evs[k] = &Evaluator{
			Graph:       ev.Graph,
			Cluster:     pc,
			Cost:        pcm,
			Iterations:  ev.Iterations,
			Ablate:      ev.Ablate,
			Cache:       ev.Cache,
			Lowered:     ev.Lowered,
			ScenarioTag: uint64(k + 1),
			Seed:        ev.Seed,
			pipe:        ev.pipe,
			Prune:       ev.Prune,
			Delta:       ev.Delta,
			dstates:     ev.dstates,
		}
		if ev.Prune != nil {
			// Perturbed clusters change op times and can shift proportional
			// replica shares, so each twin keeps its own bound table.
			r.evs[k].bounds = newBoundState()
		}
	}
	ev.Robust = r
	return nil
}

// quantile returns the q-quantile of xs (sorted copy, linear interpolation).
func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// reportBounded evaluates s under every scenario (per-scenario results
// cached) and aggregates the RobustReport. scoreBound is the incumbent's
// blended score (+Inf for exact evaluation): the robust score satisfies
// Score ≥ Blend·√T_k for every scenario k, so each twin's per-iteration time
// bound is (scoreBound/Blend)² — a candidate pruned under any scenario
// provably cannot beat the incumbent, and reportBounded returns pruned=true
// with a nil report. The twins run in parallel, or with delta one at a time
// (the retained baselines mutate in place), stopping at the first failed or
// pruned scenario.
func (r *Robustness) reportBounded(useFIFO bool, s *strategy.Strategy, nominal *Evaluation, scoreBound float64, delta bool) (*RobustReport, bool, error) {
	rep := &RobustReport{
		Blend:         r.Blend,
		Times:         make([]float64, len(r.evs)),
		OOMs:          make([]bool, len(r.evs)),
		Nominal:       nominal.PerIter,
		Worst:         nominal.PerIter,
		WorstScenario: "nominal",
	}
	errs := make([]error, len(r.evs))
	pruned := make([]bool, len(r.evs))
	run := func(k int) {
		// Value-copy the twin so the caller's execution-order choice
		// (e.g. the planner's FIFO twin) applies; the cache key folds
		// in both the order flag and the scenario tag.
		sev := *r.evs[k]
		sev.UseFIFO = useFIFO
		tb := math.Inf(1)
		if sev.Prune != nil && validBound(scoreBound) {
			b := scoreBound / r.Blend
			tb = b * b
		}
		e, err := sev.evaluateBounded(s, tb, unscreened, delta)
		switch {
		case err != nil:
			errs[k] = err
		case e.Pruned:
			pruned[k] = true
		default:
			rep.Times[k] = e.PerIter
			rep.OOMs[k] = e.Result.OOM()
		}
	}
	if delta {
		for k := range r.evs {
			if run(k); errs[k] != nil || pruned[k] {
				break
			}
		}
	} else {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for k := range r.evs {
			sem <- struct{}{}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(k)
			}(k)
		}
		wg.Wait()
	}
	for k, err := range errs {
		if err != nil {
			return nil, false, fmt.Errorf("scenario %s: %w", r.Scenarios[k].Name, err)
		}
	}
	for _, p := range pruned {
		if p {
			return nil, true, nil
		}
	}
	all := make([]float64, 0, len(rep.Times)+1)
	all = append(all, nominal.PerIter)
	for k, t := range rep.Times {
		all = append(all, t)
		if rep.OOMs[k] {
			rep.OOMFaults++
		}
		if t > rep.Worst {
			rep.Worst = t
			rep.WorstScenario = r.Scenarios[k].Name
		}
	}
	rep.P95 = quantile(all, 0.95)
	return rep, false, nil
}

package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"heterog/internal/evalcache"
	"heterog/internal/plan"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

// DeltaConfig tunes the incremental evaluation path armed by EnableDelta.
// The zero value (or a nil pointer) selects every default.
type DeltaConfig struct {
	// MaxOps is the per-mutation diff budget: when more logical ops change
	// their effective decision against the retained baseline, the evaluation
	// falls back to a full recompilation (still through the delta state, so
	// the new strategy becomes the next baseline). <= 0 selects
	// plan.DefaultDeltaMaxOps.
	MaxOps int
}

func (c *DeltaConfig) maxOps() int {
	if c == nil || c.MaxOps <= 0 {
		return plan.DefaultDeltaMaxOps
	}
	return c.MaxOps
}

// EnableDelta arms incremental evaluation for subsequent EvaluateDelta calls:
// mutation proposals are lowered by patching the retained baseline artifacts
// (see plan.DeltaState). cfg may be nil for defaults. Call it after
// Iterations and Ablate are final and before the evaluator is shared across
// goroutines; in robustness mode each fault-scenario twin lazily gets its own
// delta state the first time EvaluateDelta touches it (calling EnableDelta
// before or after EnableRobustness both work).
func (ev *Evaluator) EnableDelta(cfg *DeltaConfig) {
	if cfg == nil {
		cfg = &DeltaConfig{}
	}
	ev.Delta = cfg
	ev.dstates = make(map[uint64]*deltaEntry)
}

// deltaMemo remembers one exact evaluation of the baseline artifacts under
// one execution order, tagged with the artifacts generation it was simulated
// from.
type deltaMemo struct {
	eval *Evaluation
	gen  uint64
}

// deltaEntry couples a retained delta baseline with memoized evaluations of
// it: a proposal whose effective per-op decisions match the baseline exactly
// (a zero diff — e.g. a mutation on a gradient group, which follows its
// forward op's decision) is answered from the memo without re-ordering or
// re-simulating the unchanged program.
type deltaEntry struct {
	ds     *plan.DeltaState
	ranked deltaMemo
	fifo   deltaMemo
}

func (en *deltaEntry) memo(useFIFO bool) *deltaMemo {
	if useFIFO {
		return &en.fifo
	}
	return &en.ranked
}

// deltaState returns (building on first use) the retained delta baseline for
// the given evaluator, which is ev itself or one of its scenario twins. The
// states live on the nominal evaluator so twins (rebuilt per call) keep their
// baselines across episodes.
func (ev *Evaluator) deltaState(target *Evaluator, s *strategy.Strategy, iters int) (*deltaEntry, error) {
	if en, ok := ev.dstates[target.ScenarioTag]; ok {
		return en, nil
	}
	ds, err := plan.NewDeltaState(target.Graph, target.Cluster.Cluster, s, target.Cost, iters, target.Ablate, ev.Delta.maxOps())
	if err != nil {
		return nil, err
	}
	ev.pipe.lowered()
	en := &deltaEntry{ds: ds}
	ev.dstates[target.ScenarioTag] = en
	return en, nil
}

// EvaluateDelta is EvaluateBounded for mutation episodes: instead of a
// from-scratch compile, the proposed strategy is diffed against the retained
// baseline and only the affected ops re-lowered, with the pruning screens
// (when EnablePruning armed them) and the incumbent bound applied exactly as
// in EvaluateBounded. Results are bit-identical to the full path — the patch
// machinery is golden-pinned against full recompile + resimulate — but the
// returned Evaluation carries a nil Dist and is never cached: the patched
// DistGraph is invalidated by the next EvaluateDelta call, so callers needing
// the graph (exhibits, the final winner) must re-run plain Evaluate, which
// hits the full pipeline and caches normally.
//
// EvaluateDelta is NOT safe for concurrent use (the baseline mutates in
// place); callers evaluate their mutation proposals one at a time. Without
// EnableDelta it degrades to EvaluateBounded.
func (ev *Evaluator) EvaluateDelta(s *strategy.Strategy, bound float64) (*Evaluation, error) {
	if ev.Delta == nil {
		return ev.EvaluateBounded(s, bound)
	}
	if ev.Robust == nil {
		return ev.evaluateDeltaOne(ev, s, bound, false)
	}
	tb := math.Inf(1)
	if ev.Prune != nil && validBound(bound) {
		tb = scoreToTime(bound, true)
	}
	e, err := ev.evaluateDeltaOne(ev, s, tb, false)
	if err != nil || e.Pruned {
		if e != nil && e.Pruned {
			e.PrunedAt = bound
		}
		return e, err
	}
	rep, pruned, err := ev.robustDeltaReport(s, e, bound)
	if err != nil {
		return nil, fmt.Errorf("robustness %s: %w", ev.Graph.Name, err)
	}
	if pruned {
		return ev.prunedEval(s, scoreToTime(bound, true), bound), nil
	}
	out := *e
	out.Robust = rep
	return &out, nil
}

// evaluateDeltaOne runs the delta pipeline for one evaluator (nominal or a
// scenario twin) against a per-iteration time bound, mirroring
// evaluateBounded stage by stage.
func (ev *Evaluator) evaluateDeltaOne(target *Evaluator, s *strategy.Strategy, timeBound float64, fifoOverride bool) (*Evaluation, error) {
	useFIFO := target.UseFIFO || fifoOverride
	iters := target.Iterations
	if iters <= 0 {
		iters = 3
	}
	// The evaluation cache still short-circuits exact repeats (mutation loops
	// revisit strategies); delta results are read from it but never written.
	if target.Cache != nil {
		key := evalcache.Fingerprint(s, useFIFO, iters, target.Ablate, target.ScenarioTag)
		if hit, ok := target.Cache.Get(key); ok {
			e := *hit
			e.Strategy = s
			// Keep the delta contract uniform: no evaluation from this path
			// carries a DistGraph, cached or patched.
			e.Dist = nil
			return &e, nil
		}
	}
	prune := target.Prune != nil && validBound(timeBound)
	var began time.Time
	if target.Prune != nil {
		began = time.Now()
	}
	if prune {
		ev.pipe.boundTried()
		if pb := target.preLowerBound(s); pb > timeBound {
			ev.pipe.prunedPre(time.Since(began))
			return target.prunedEval(s, timeBound, timeBound), nil
		}
	}
	en, err := ev.deltaState(target, s, iters)
	if err != nil {
		return nil, fmt.Errorf("delta compile %s: %w", target.Graph.Name, err)
	}
	// Zero-diff fast path: when the proposal's effective decisions match the
	// baseline op for op (grouped mutations frequently land on ops that follow
	// another op's decision), the memoized exact evaluation of the current
	// baseline artifacts is the answer — same artifacts, same order, same
	// simulation. Counted as a reuse, like a cache hit that skipped lowering.
	if mm := en.memo(useFIFO); mm.eval != nil && mm.gen == en.ds.Generation() && en.ds.DiffCount(s) == 0 {
		e := *mm.eval
		e.Strategy = s
		ev.pipe.reuse()
		return &e, nil
	}
	art, st, err := en.ds.Apply(s)
	if err != nil {
		return nil, fmt.Errorf("delta compile %s: %w", target.Graph.Name, err)
	}
	if st.Full {
		ev.pipe.lowered()
	} else if st.ChangedOps > 0 {
		ev.pipe.deltaCompile(st.Relowered)
	}
	simBound := math.Inf(1)
	if prune {
		simBound = timeBound * float64(iters) * target.Prune.simSlack()
		if db := DistLowerBound(art.Dist); db > timeBound || art.Dist.CriticalPath() > simBound {
			ev.pipe.prunedPost(time.Since(began))
			return target.prunedEval(s, timeBound, timeBound), nil
		}
	}
	oa := art.ForOrder(useFIFO)
	if err := plan.Order(oa); err != nil {
		return nil, fmt.Errorf("order %s: %w", target.Graph.Name, err)
	}
	ev.pipe.absorb(oa.Metrics)
	dg := oa.Dist
	res, err := sim.RunBounded(dg, oa.Priorities, simBound)
	if err != nil {
		if errors.Is(err, sim.ErrBoundExceeded) {
			ev.pipe.simAborted(time.Since(began))
			return target.prunedEval(s, timeBound, timeBound), nil
		}
		return nil, fmt.Errorf("simulate %s: %w", target.Graph.Name, err)
	}
	e := &Evaluation{
		Strategy:    s,
		Result:      res,
		PerIter:     perIteration(dg, res),
		ComputeTime: res.ComputeTime / float64(iters),
		CommTime:    res.CommTime / float64(iters),
	}
	if target.Prune != nil {
		ev.pipe.fullEval(time.Since(began))
	}
	// A successful exact simulation is always an evaluation of the current
	// baseline (Apply rebases the artifacts onto s), so it seeds the zero-diff
	// memo for this order until the next patch bumps the generation.
	*en.memo(useFIFO) = deltaMemo{eval: e, gen: en.ds.Generation()}
	return e, nil
}

// robustDeltaReport is reportBounded's sequential delta twin: every scenario
// patches its own retained baseline. Sequential because the per-scenario
// DeltaStates mutate in place; the scenarios still share the nominal family's
// caches and counters.
func (ev *Evaluator) robustDeltaReport(s *strategy.Strategy, nominal *Evaluation, scoreBound float64) (*RobustReport, bool, error) {
	r := ev.Robust
	rep := &RobustReport{
		Blend:         r.Blend,
		Times:         make([]float64, len(r.evs)),
		OOMs:          make([]bool, len(r.evs)),
		Nominal:       nominal.PerIter,
		Worst:         nominal.PerIter,
		WorstScenario: "nominal",
	}
	for k, sev := range r.evs {
		tb := math.Inf(1)
		if sev.Prune != nil && validBound(scoreBound) {
			b := scoreBound / r.Blend
			tb = b * b
		}
		e, err := ev.evaluateDeltaOne(sev, s, tb, ev.UseFIFO)
		if err != nil {
			return nil, false, fmt.Errorf("scenario %s: %w", r.Scenarios[k].Name, err)
		}
		if e.Pruned {
			return nil, true, nil
		}
		rep.Times[k] = e.PerIter
		rep.OOMs[k] = e.Result.OOM()
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

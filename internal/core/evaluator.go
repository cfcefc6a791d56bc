// Package core ties the strategy framework together: it evaluates a complete
// Part-I strategy by compiling the distributed graph, computing the Part-II
// execution order, and simulating one training iteration. Both the RL agent
// (reward signal) and the experiment harness (reported numbers) go through
// this evaluator, exactly as the paper's Strategy Maker couples its Agent,
// Scheduler and Simulator.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/evalcache"
	"heterog/internal/graph"
	"heterog/internal/plan"
	"heterog/internal/profile"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

// Evaluation is the outcome of simulating one strategy.
type Evaluation struct {
	Strategy *strategy.Strategy
	Dist     *compiler.DistGraph
	Result   *sim.Result
	// PerIter is the steady-state per-iteration time: when several chained
	// iterations were compiled, the finish-to-finish gap of the last two;
	// otherwise the full makespan.
	PerIter float64
	// ComputeTime and CommTime are the per-iteration busiest-GPU and
	// busiest-comm-unit occupancies (Fig 8's breakdown).
	ComputeTime, CommTime float64
	// Robust carries the fault-scenario scores when the evaluator is in
	// robustness mode (nil otherwise). Cache-stored evaluations never carry
	// a report; it is attached to the per-call header copy.
	Robust *RobustReport
	// Pruned marks a certified loser from EvaluateBounded: a lower bound on
	// its score already exceeded the caller's incumbent bound, so Dist and
	// Result are nil and PerIter holds the bound it provably cannot beat.
	// Pruned evaluations are never cached and never win comparisons.
	Pruned bool
	// PrunedAt echoes the incumbent bound (in score space) the candidate
	// was pruned against; 0 when Pruned is false.
	PrunedAt float64
}

// Time returns the per-iteration time, or +Inf on OOM (or for a pruned
// certified loser) so that comparisons naturally prefer feasible strategies.
func (e *Evaluation) Time() float64 {
	if e.Pruned || e.Result.OOM() {
		return math.Inf(1)
	}
	return e.PerIter
}

// perIteration extracts the steady-state per-iteration time from a chained
// multi-iteration simulation. Each compiled iteration contains the same op
// sequence, so in steady state every op repeats with the iteration period;
// the median start-to-start shift between corresponding ops of the last two
// iterations is a robust estimate even when a few low-priority stragglers
// slide across iteration boundaries.
func perIteration(dg *compiler.DistGraph, res *sim.Result) float64 {
	iters := dg.Iterations
	if iters <= 1 {
		return res.Makespan
	}
	per := len(dg.Ops) / iters
	aligned := len(dg.Ops)%iters == 0
	if aligned {
		for i, op := range dg.Ops {
			if op.Iter != i/per {
				aligned = false
				break
			}
		}
	}
	if !aligned {
		// Fallback: amortized makespan (upper-bounds the period by the
		// pipeline fill/drain shares).
		return res.Makespan / float64(iters)
	}
	k := iters - 2
	diffs := make([]float64, per)
	for j := 0; j < per; j++ {
		diffs[j] = res.Starts[(k+1)*per+j] - res.Starts[k*per+j]
	}
	sort.Float64s(diffs)
	return diffs[per/2]
}

// Evaluator evaluates strategies for one (graph, cluster, cost model) triple.
// The cluster is always a view: whole-cluster planning wraps its cluster with
// FullView, fleet-mode planning hands in the lease's sub-cluster view, and
// either way the evaluator (and everything below it) sees dense local device
// IDs.
type Evaluator struct {
	Graph   *graph.Graph
	Cluster *cluster.View
	Cost    *profile.CostModel
	// UseFIFO disables HeteroG's order scheduling and falls back to
	// TensorFlow's default FIFO execution (Table 7's ablation).
	UseFIFO bool
	// Iterations is the number of chained training iterations to simulate
	// for steady-state measurement; 0 selects the default of 3.
	Iterations int
	// Ablate disables individual compiler mechanisms (ablation studies).
	Ablate compiler.Ablations
	// Cache memoizes full evaluations keyed by the canonical fingerprint of
	// (per-op decisions, execution order, iterations, ablations, scenario),
	// so resampled strategies skip the compile → rank → simulate pipeline.
	// Nil disables memoization. The cache is safe for concurrent use; value
	// copies of an Evaluator (e.g. a FIFO twin) share it, with the differing
	// knobs folded into the key, and so do the fault-scenario twins built by
	// EnableRobustness, distinguished by ScenarioTag. It must not be shared
	// across otherwise different (graph, cluster, cost model) triples.
	Cache *evalcache.Cache[*Evaluation]
	// Lowered memoizes order-independent lowered plan artifacts (the
	// pipeline's Layout → Verify products) keyed without the execution-order
	// flag, so evaluating one strategy under both ranked and FIFO orders —
	// the planner does this for every serious candidate — compiles once and
	// re-runs only the Ordering pass. Twins share it the same way they share
	// Cache; nil disables artifact reuse.
	Lowered *evalcache.Cache[*plan.Artifacts]
	// ScenarioTag distinguishes cache keys of fault-scenario twins sharing
	// the nominal evaluator's cache: 0 is the nominal cluster, 1+k the k-th
	// scenario perturbation.
	ScenarioTag uint64
	// pipe aggregates per-pass pipeline metrics and compile-reuse counters;
	// shared (by pointer) with every twin. See PipelineReport.
	pipe *pipeStats
	// Seed is the profiling seed the evaluator was built with; replanning on
	// a degraded cluster reuses it so the re-profile stays comparable.
	Seed int64
	// Robust, when non-nil, puts the evaluator in robustness mode: Evaluate
	// additionally scores the strategy across the configured fault scenarios
	// and attaches a RobustReport, and Reward blends nominal with worst-case.
	Robust *Robustness
	// Prune, when non-nil, arms bound-based candidate pruning for
	// EvaluateBounded calls (see EnablePruning). Plain Evaluate calls are
	// never pruned.
	Prune *PruneConfig
	// Delta, when non-nil, arms incremental evaluation for EvaluateDelta
	// calls (see EnableDelta). Plain Evaluate calls always take the full
	// pipeline.
	Delta *DeltaConfig
	// dstates holds the retained delta baselines and their zero-diff memos,
	// one per scenario tag; set by EnableDelta on the nominal evaluator and
	// shared with no one.
	dstates map[uint64]*deltaEntry
	// bounds caches per-decision layouts for the analytic pre-lowering
	// bound; set by EnablePruning, per twin.
	bounds *boundState
}

// NewEvaluator profiles the graph on the cluster view and returns an
// evaluator with memoization enabled at evalcache.DefaultCapacity.
func NewEvaluator(g *graph.Graph, c *cluster.View, seed int64) (*Evaluator, error) {
	cm, err := profile.Profile(g, c.Cluster, profile.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", g.Name, err)
	}
	return &Evaluator{
		Graph: g, Cluster: c, Cost: cm, Seed: seed,
		Cache:   evalcache.New[*Evaluation](0),
		Lowered: evalcache.New[*plan.Artifacts](0),
		pipe:    newPipeStats(),
	}, nil
}

// Evaluate compiles, orders and simulates one strategy, short-circuiting
// through the evaluation cache when an identical request was already
// simulated. Cache hits return a copy of the Evaluation header carrying the
// caller's Strategy pointer; the Dist and Result payloads are shared and must
// be treated as read-only (every consumer already does). In robustness mode
// the returned header additionally carries a freshly aggregated RobustReport
// (the per-scenario simulations behind it are themselves cached).
func (ev *Evaluator) Evaluate(s *strategy.Strategy) (*Evaluation, error) {
	return ev.EvaluateBounded(s, math.Inf(1))
}

// EvaluateBounded is Evaluate with an incumbent bound: bound is the best
// ("lower is better") Score seen so far, and any candidate provably unable
// to beat it is discarded early — by the analytic pre-lowering bound before
// any compilation, by the busiest-unit bound after lowering, or by aborting
// the simulation once its clock certifies a loss. Pruned candidates come
// back with Pruned set (Score +Inf) and are never cached, so a later
// unbounded Evaluate of the same strategy still produces exact numbers.
// A +Inf or non-positive bound, or an evaluator without EnablePruning,
// degrades to exact Evaluate behavior. In robustness mode the scenario twins
// inherit the nominal incumbent bound scaled into their own time domain; a
// candidate pruned under any scenario is pruned as a whole.
func (ev *Evaluator) EvaluateBounded(s *strategy.Strategy, bound float64) (*Evaluation, error) {
	if ev.Robust == nil {
		return ev.evaluateBounded(s, bound)
	}
	tb := math.Inf(1)
	if ev.Prune != nil && validBound(bound) {
		tb = scoreToTime(bound, true)
	}
	e, err := ev.evaluateBounded(s, tb)
	if err != nil || e.Pruned {
		if e != nil && e.Pruned {
			e.PrunedAt = bound
		}
		return e, err
	}
	rep, pruned, err := ev.Robust.reportBounded(ev.UseFIFO, s, e, bound)
	if err != nil {
		return nil, fmt.Errorf("robustness %s: %w", ev.Graph.Name, err)
	}
	if pruned {
		// A scenario certified the blended score can't beat the bound.
		// PerIter = bound² keeps Reward consistent: -√PerIter = -bound,
		// the reward a candidate exactly at the bound would earn.
		return ev.prunedEval(s, scoreToTime(bound, true), bound), nil
	}
	out := *e
	out.Robust = rep
	return &out, nil
}

// evaluateBounded runs the compile → order → simulate pipeline against a
// per-iteration time bound (+Inf disables pruning).
func (ev *Evaluator) evaluateBounded(s *strategy.Strategy, timeBound float64) (*Evaluation, error) {
	iters := ev.Iterations
	if iters <= 0 {
		iters = 3
	}
	var key evalcache.Key
	if ev.Cache != nil {
		key = evalcache.Fingerprint(s, ev.UseFIFO, iters, ev.Ablate, ev.ScenarioTag)
		if hit, ok := ev.Cache.Get(key); ok {
			e := *hit
			e.Strategy = s
			return &e, nil
		}
	}
	prune := ev.Prune != nil && validBound(timeBound)
	var began time.Time
	if ev.Prune != nil {
		began = time.Now()
	}
	if prune {
		ev.pipe.boundTried()
		if pb := ev.preLowerBound(s); pb > timeBound {
			ev.pipe.prunedPre(time.Since(began))
			return ev.prunedEval(s, timeBound, timeBound), nil
		}
	}
	art, err := ev.lowered(s, iters)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", ev.Graph.Name, err)
	}
	// The simulator abort bound caps the full chained makespan: per-iteration
	// bound × iterations, with slack for the pipeline fill/drain share that
	// the steady-state estimate excludes.
	simBound := math.Inf(1)
	if prune {
		simBound = timeBound * float64(iters) * ev.Prune.simSlack()
		if db := DistLowerBound(art.Dist); db > timeBound || art.Dist.CriticalPath() > simBound {
			ev.pipe.prunedPost(time.Since(began))
			return ev.prunedEval(s, timeBound, timeBound), nil
		}
	}
	// Ordering is the only pass that depends on the execution-order choice:
	// it re-runs on a lightweight per-order view of the (possibly cached,
	// read-only) lowered artifact.
	oa := art.ForOrder(ev.UseFIFO)
	if err := plan.Order(oa); err != nil {
		return nil, fmt.Errorf("order %s: %w", ev.Graph.Name, err)
	}
	ev.pipe.absorb(oa.Metrics)
	dg, pr := oa.Dist, oa.Priorities
	res, err := sim.RunBounded(dg, pr, simBound)
	if err != nil {
		if errors.Is(err, sim.ErrBoundExceeded) {
			ev.pipe.simAborted(time.Since(began))
			return ev.prunedEval(s, timeBound, timeBound), nil
		}
		return nil, fmt.Errorf("simulate %s: %w", ev.Graph.Name, err)
	}
	e := &Evaluation{
		Strategy:    s,
		Dist:        dg,
		Result:      res,
		PerIter:     perIteration(dg, res),
		ComputeTime: res.ComputeTime / float64(iters),
		CommTime:    res.CommTime / float64(iters),
	}
	if ev.Prune != nil {
		ev.pipe.fullEval(time.Since(began))
	}
	if ev.Cache != nil {
		ev.Cache.Put(key, e)
	}
	return e, nil
}

// lowered returns the order-independent lowered artifacts for (s, iters),
// reusing a cached artifact when the same lowering request was already run
// (same decisions, iterations, ablations and fault scenario — the execution
// order is deliberately not part of the key).
func (ev *Evaluator) lowered(s *strategy.Strategy, iters int) (*plan.Artifacts, error) {
	var key evalcache.Key
	if ev.Lowered != nil {
		key = evalcache.LoweredFingerprint(s, iters, ev.Ablate, ev.ScenarioTag)
		if hit, ok := ev.Lowered.Get(key); ok {
			ev.pipe.reuse()
			return hit, nil
		}
	}
	a := plan.NewArtifacts(ev.Graph, ev.Cluster.Cluster, s, ev.Cost, iters, ev.Ablate)
	if err := plan.Lower(a); err != nil {
		return nil, err
	}
	ev.pipe.absorb(a.Metrics)
	ev.pipe.lowered()
	if ev.Lowered != nil {
		ev.Lowered.Put(key, a)
	}
	return a, nil
}

// StrategyStats tallies the fraction of the source graph's operations under
// each decision, resolving backward and apply ops to their forward op's
// group decision — the accounting behind Tables 2 and 3.
func (e *Evaluation) StrategyStats() strategy.Stats {
	g := e.Dist.Source
	m := e.Dist.Cluster.NumDevices()
	st := strategy.Stats{
		MPShare: make([]float64, m),
		DPShare: map[strategy.DecisionKind]float64{strategy.DPEvenPS: 0, strategy.DPEvenAR: 0, strategy.DPPropPS: 0, strategy.DPPropAR: 0},
	}
	n := float64(g.NumOps())
	for _, op := range g.Ops {
		d := compiler.EffectiveDecision(e.Strategy, op)
		if d.Kind == strategy.MP {
			st.MPShare[d.Device] += 1 / n
		} else {
			st.DPShare[d.Kind] += 1 / n
		}
	}
	return st
}

// rawReward is the paper's RL reward for one simulated outcome: R = -sqrt(T),
// multiplied by 10 when the strategy overflows device memory.
func rawReward(perIter float64, oom bool) float64 {
	r := -math.Sqrt(perIter)
	if oom {
		r *= 10
	}
	return r
}

// Reward converts an evaluation into the RL reward. Nominally it is the
// paper's R = -sqrt(T) with the x10 OOM penalty; in robustness mode it blends
// the nominal reward with the worst reward across the fault scenarios,
// weighted by the robustness blend b:
//
//	R = (1-b)·R_nominal + b·min(R_nominal, R_scenario...)
func Reward(e *Evaluation) float64 {
	if e.Pruned {
		// A certified loser carries the bound it cannot beat in PerIter: its
		// true reward is at most the reward of a candidate exactly at the
		// bound, so this optimistic stand-in still ranks it behind the
		// incumbent while keeping the policy gradient finite.
		return rawReward(e.PerIter, false)
	}
	r := rawReward(e.PerIter, e.Result.OOM())
	if e.Robust == nil {
		return r
	}
	worst := r
	for i, t := range e.Robust.Times {
		if ri := rawReward(t, e.Robust.OOMs[i]); ri < worst {
			worst = ri
		}
	}
	return (1-e.Robust.Blend)*r + e.Robust.Blend*worst
}

// Score is the planning objective as a "lower is better" scalar: the nominal
// per-iteration time (+Inf on OOM, so feasible strategies always win), or, in
// robustness mode, the negated blended reward — monotone in Reward, so the
// planner picks exactly what the RL objective prefers.
func (e *Evaluation) Score() float64 {
	if e.Pruned {
		return math.Inf(1)
	}
	if e.Result.OOM() {
		return math.Inf(1)
	}
	if e.Robust == nil {
		return e.PerIter
	}
	return -Reward(e)
}

package core

import (
	"fmt"
	"math"
	"sync"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/plan"
	"heterog/internal/profile"
	"heterog/internal/strategy"
)

// PruneConfig tunes the cold-path pruning layers enabled by EnablePruning.
// The zero value selects every default; pass nil to EnablePruning for the
// same effect.
type PruneConfig struct {
	// SimSlack scales the early-abort makespan bound handed to the
	// simulator: a candidate's simulation is aborted once the event clock
	// exceeds SimSlack × iterations × the incumbent-implied per-iteration
	// bound. The slack covers the pipeline fill/drain share of a chained
	// multi-iteration makespan, which the steady-state per-iteration
	// estimate excludes; values below 1 risk aborting candidates that would
	// have beaten the incumbent. <= 0 selects DefaultSimSlack.
	SimSlack float64
}

// DefaultSimSlack bounds a candidate's full simulated makespan at
// 1.5 × iterations × the incumbent's per-iteration time.
const DefaultSimSlack = 1.5

func (c *PruneConfig) simSlack() float64 {
	if c == nil || c.SimSlack <= 0 {
		return DefaultSimSlack
	}
	return c.SimSlack
}

// EnablePruning turns on bound-based candidate pruning for subsequent
// EvaluateBounded calls: analytic lower-bound screening before and after
// lowering, plus early-abort simulation against the incumbent-derived bound.
// cfg may be nil for defaults. Plain Evaluate calls are unaffected (they
// carry no bound), as are exhibits that never pass one. When the evaluator
// is already in robustness mode the scenario twins inherit the
// configuration; calling EnablePruning before EnableRobustness works too.
// Like EnableRobustness, it must be called before the evaluator is shared
// across goroutines.
func (ev *Evaluator) EnablePruning(cfg *PruneConfig) {
	if cfg == nil {
		cfg = &PruneConfig{}
	}
	ev.Prune = cfg
	ev.bounds = newBoundState()
	if ev.Robust != nil {
		for _, sev := range ev.Robust.evs {
			sev.Prune = cfg
			sev.bounds = newBoundState()
		}
	}
}

// boundState caches per-decision replica layouts for the analytic
// pre-lowering bound. Decisions recur constantly across sampled candidates
// (the action space is only M+4 wide), so each layout is computed once per
// evaluator. Scenario twins keep their own state: fault perturbations can
// change the cluster's proportional replica shares.
type boundState struct {
	mu    sync.Mutex
	fracs map[strategy.Decision][]float64
}

func newBoundState() *boundState {
	return &boundState{fracs: make(map[strategy.Decision][]float64)}
}

func (b *boundState) layout(d strategy.Decision, c *cluster.Cluster) []float64 {
	b.mu.Lock()
	fr, ok := b.fracs[d]
	if !ok {
		fr = plan.LayoutFor(d, c).Fracs
		b.fracs[d] = fr
	}
	b.mu.Unlock()
	return fr
}

// preLowerBound is a lower bound on the per-iteration time of strategy s
// computed from per-op costs and decision kinds alone — no DistGraph, no
// lowering. Every compute op contributes exactly the instance times the
// edge-lowering pass would charge (same layout fractions, same cost model),
// summed per device; the busiest device's total is a floor on the
// steady-state period, because each iteration re-executes all of that
// device's instances and a single GPU serializes them. ApplyGradient ops are
// skipped (parameter-server aggregation relocates them off the replica
// layout), as are communication and compiler-synthesized glue ops — the
// bound only undercounts, never overcounts.
func (ev *Evaluator) preLowerBound(s *strategy.Strategy) float64 {
	work := make([]float64, ev.Cluster.NumDevices())
	for _, op := range ev.Graph.Ops {
		if op.Kind == graph.KindApplyGradient || op.Kind.IsComm() {
			continue
		}
		fr := ev.bounds.layout(compiler.EffectiveDecision(s, op), ev.Cluster.Cluster)
		for dev, f := range fr {
			if f > 0 {
				work[dev] += ev.Cost.OpTime(op, dev, f)
			}
		}
	}
	var b float64
	for _, w := range work {
		if w > b {
			b = w
		}
	}
	return b
}

// DistLowerBound is the post-lowering per-iteration lower bound: the busiest
// unit's total work divided by the number of chained iterations. In any
// schedule each unit serializes its own instances, so per-iteration time is
// at least the per-iteration work of the busiest unit. The critical path is
// deliberately NOT divided by iterations here — consecutive iterations
// overlap in the pipeline, so CriticalPath()/iters is not a sound
// per-iteration bound; the critical path instead bounds the whole makespan
// and is checked against the simulator's abort bound (see evaluateBounded).
func DistLowerBound(dg *compiler.DistGraph) float64 {
	iters := dg.Iterations
	if iters < 1 {
		iters = 1
	}
	var maxw float64
	for _, w := range dg.TotalWorkOn() {
		if w > maxw {
			maxw = w
		}
	}
	return maxw / float64(iters)
}

// PreLowerBound exposes the analytic pre-lowering bound for tests and
// diagnostics. It returns 0 (no information) when pruning is not enabled.
func (ev *Evaluator) PreLowerBound(s *strategy.Strategy) float64 {
	if ev.bounds == nil {
		return 0
	}
	return ev.preLowerBound(s)
}

// prunedEval builds the certified-loser placeholder evaluation: no DistGraph
// and no sim Result were produced. PerIter carries the bound the candidate
// provably cannot beat, so Reward still yields a usable (optimistic) learning
// signal; Score and Time are +Inf so comparisons can never pick it.
func (ev *Evaluator) prunedEval(s *strategy.Strategy, timeBound, at float64) *Evaluation {
	return &Evaluation{Strategy: s, Pruned: true, PerIter: timeBound, PrunedAt: at}
}

// EstimateLeaseTime is the fleet allocator's cheap per-iteration time
// estimate for training graph g on the cluster view v: the same machinery as
// the pre-lowering pruning bound (per-op costs under the proportional
// data-parallel layout, busiest device = compute floor), combined with an
// analytic NIC aggregation floor on the cross-server gradient traffic the
// strategy cannot avoid. No lowering, no simulation, no strategy search —
// profiling plus two O(ops × devices) scans, so the allocator can score many
// candidate lease shapes per scheduling decision.
//
// The NIC floor matters for allocation quality, not just accuracy: the
// compute floor alone is linear in aggregate device power, under which greedy
// marginal-throughput assignment would never stop growing a lease. Gradient
// aggregation gives throughput its diminishing returns — every extra server
// adds NIC traffic — and the max(compute, comm) estimate reproduces exactly
// the tradeoff the paper's planner resolves.
func EstimateLeaseTime(g *graph.Graph, v *cluster.View, seed int64) (float64, error) {
	cm, err := profile.Profile(g, v.Cluster, profile.Options{Seed: seed})
	if err != nil {
		return 0, fmt.Errorf("core: estimate profile %s on %s: %w", g.Name, v.Name, err)
	}
	fr := plan.LayoutFor(strategy.Decision{Kind: strategy.DPPropPS}, v.Cluster).Fracs
	work := make([]float64, v.NumDevices())
	var params int64
	for _, op := range g.Ops {
		params += op.ParamBytes
		if op.Kind == graph.KindApplyGradient || op.Kind.IsComm() {
			continue
		}
		for dev, f := range fr {
			if f > 0 {
				work[dev] += cm.OpTime(op, dev, f)
			}
		}
	}
	var compute float64
	for _, w := range work {
		if w > compute {
			compute = w
		}
	}
	return math.Max(compute, NICAggregationFloor(v.Cluster, params)), nil
}

// NICAggregationFloor is a per-iteration floor on cross-server gradient
// aggregation time: with parameters sharded evenly across nS servers (the
// PS placement the proportional layout converges to), every server must move
// ~2·P·(nS-1)/nS bytes through its NIC per iteration — gradients out for
// remotely-hosted shards, updated parameters back in — and the slowest NIC
// bounds the iteration. Single-server views aggregate over PCIe only and
// return 0 (no cross-server floor).
func NICAggregationFloor(c *cluster.Cluster, paramBytes int64) float64 {
	occupied := 0
	minNIC := math.Inf(1)
	for _, s := range c.Servers {
		if len(s.Devices) == 0 {
			continue
		}
		occupied++
		if s.NICBandwidth < minNIC {
			minNIC = s.NICBandwidth
		}
	}
	if occupied <= 1 || paramBytes <= 0 {
		return 0
	}
	cross := 2 * float64(paramBytes) * float64(occupied-1) / float64(occupied)
	return cross / minNIC
}

// scoreToTime converts a "lower is better" incumbent score into a nominal
// per-iteration time bound: without robustness the score IS the time; in
// robustness mode Score ≥ √T_nominal, so T_nominal ≥ score² is impossible
// for any candidate beating the score.
func scoreToTime(score float64, robust bool) float64 {
	if !robust {
		return score
	}
	return score * score
}

func validBound(b float64) bool { return b > 0 && !math.IsInf(b, 1) }

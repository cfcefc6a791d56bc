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

// boundState holds what the analytic pre-lowering bound needs of one
// evaluator, computed on first use: each screened op's instance time on every
// device under each of the three fraction vectors a decision can place it
// with (whole on one device, the even DP share, the proportional DP share).
// A screen is then a sum of table entries instead of a cost-model query per
// op and device. Value copies of an evaluator (the FIFO twin) share the
// state; scenario twins keep their own, because fault perturbations change
// the cost model and the proportional replica shares.
type boundState struct {
	once sync.Once
	m    int   // devices
	eff  []int // per screened op: the op ID whose group decides it
	// one, even and prop hold, at [i*m+dev], screened op i's time on dev
	// when it runs there whole, at the even share, and at the proportional
	// share.
	one, even, prop []float64
}

func newBoundState() *boundState { return &boundState{} }

// table builds the per-op times once.
func (b *boundState) table(ev *Evaluator) *boundState {
	b.once.Do(func() {
		c := ev.Cluster.Cluster
		m := c.NumDevices()
		evenFr := plan.LayoutFor(strategy.Decision{Kind: strategy.DPEvenPS}, c).Fracs
		propFr := plan.LayoutFor(strategy.Decision{Kind: strategy.DPPropPS}, c).Fracs
		b.m = m
		for _, op := range ev.Graph.Ops {
			if op.Kind == graph.KindApplyGradient || op.Kind.IsComm() {
				continue
			}
			// The op's effective decision (compiler.EffectiveDecision):
			// backward and apply ops follow their forward op's group.
			id := op.ID
			if op.Forward != nil {
				id = op.Forward.ID
			}
			b.eff = append(b.eff, id)
			for dev := 0; dev < m; dev++ {
				b.one = append(b.one, ev.Cost.OpTime(op, dev, 1))
				b.even = append(b.even, ev.Cost.OpTime(op, dev, evenFr[dev]))
				b.prop = append(b.prop, ev.Cost.OpTime(op, dev, propFr[dev]))
			}
		}
	})
	return b
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
// bound only undercounts, never overcounts. Each device's total is summed in
// graph op order, so the bound is the same float whichever way the per-op
// times are looked up.
func (ev *Evaluator) preLowerBound(s *strategy.Strategy) float64 {
	bt := ev.bounds.table(ev)
	m := bt.m
	work := make([]float64, m)
	groupOf := s.Grouping.GroupOf
	for i, id := range bt.eff {
		d := s.Decisions[groupOf[id]]
		row := i * m
		switch d.Kind {
		case strategy.MP:
			if d.Device < 0 || d.Device >= m {
				return 0 // not a valid placement; lowering rejects it
			}
			work[d.Device] += bt.one[row+d.Device]
		case strategy.DPEvenPS, strategy.DPEvenAR:
			for dev, t := range bt.even[row : row+m] {
				work[dev] += t
			}
		case strategy.DPPropPS, strategy.DPPropAR:
			for dev, t := range bt.prop[row : row+m] {
				work[dev] += t
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

// PreLowerBound exposes the analytic pre-lowering bound. It returns 0 (no
// information) when pruning is not enabled. The planner computes it once per
// seed to order the seed pool and hands it back through EvaluateScreened.
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

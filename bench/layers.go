package main

import (
	"context"

	"heterog/internal/service"
)

// segment is what a server reported at one edge of a timed segment.
type segment struct {
	stats *service.ServerStats
	gc    gcStats
}

func takeSegment(ctx context.Context, srv server) (segment, error) {
	st, err := srv.Client().Stats(ctx)
	if err != nil {
		return segment{}, err
	}
	return segment{stats: st, gc: srv.GC()}, nil
}

// counters are server-side counter deltas over a run's timed segments.
type counters struct {
	jobsDone                                            int
	boundsTried, prunedPre, prunedPost, aborted, halved int64
	evalHits, evalMisses, loweredHits, loweredMisses    uint64
	warmSets, gcCycles                                  int
	gcPct                                               []float64
}

// add folds the change between two segment edges into the counters. Warm
// sets are matched by workload; a set created during the segment counts
// from zero.
func (c *counters) add(a, b segment) {
	c.jobsDone += b.stats.Done - a.stats.Done
	p, q := a.stats.Pruning, b.stats.Pruning
	c.boundsTried += q.BoundsTried - p.BoundsTried
	c.prunedPre += q.PrunedPreLower - p.PrunedPreLower
	c.prunedPost += q.PrunedPostLower - p.PrunedPostLower
	c.aborted += q.SimsAborted - p.SimsAborted
	c.halved += q.CandidatesHalved - p.CandidatesHalved
	before := make(map[string]service.WarmSetStats, len(a.stats.WarmSets))
	for _, ws := range a.stats.WarmSets {
		before[ws.Workload] = ws
	}
	for _, ws := range b.stats.WarmSets {
		old := before[ws.Workload]
		if ws.Eval.Hits+ws.Eval.Misses < old.Eval.Hits+old.Eval.Misses {
			old = service.WarmSetStats{} // evicted and rebuilt in between
		}
		c.evalHits += ws.Eval.Hits - old.Eval.Hits
		c.evalMisses += ws.Eval.Misses - old.Eval.Misses
		c.loweredHits += ws.Lowered.Hits - old.Lowered.Hits
		c.loweredMisses += ws.Lowered.Misses - old.Lowered.Misses
	}
	c.warmSets = max(c.warmSets, len(b.stats.WarmSets))
	if b.gc.Cycles > 0 {
		c.gcCycles += b.gc.Cycles - a.gc.Cycles
		c.gcPct = append(c.gcPct, b.gc.CPUPct)
	}
}

func ratio[T int | int64 | uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics assembles the per-layer metrics of a traced run from its ops,
// the returned reports, the server counters and the probes. The second map
// holds the numbers only some workloads produce, for layers.json.
func (r *run) layerMetrics(probes map[string]float64) (all, extra map[string]float64) {
	all = make(map[string]float64)
	for k, v := range probes {
		all[k] = v
	}
	var wait, over, planSec []float64
	for _, o := range r.ops {
		if !o.timed || o.err != "" || o.planSec == 0 {
			continue
		}
		wait = append(wait, float64(o.queueWait.Nanoseconds())/1e6)
		over = append(over, float64(o.overhead.Nanoseconds())/1e6)
		planSec = append(planSec, o.planSec)
	}
	all["service.queue_wait_ms_p50"] = nearestRank(wait, 50)
	all["service.overhead_ms_p50"] = nearestRank(over, 50)
	all["service.plan_s_p50"] = nearestRank(planSec, 50)

	c := r.ctr
	all["agent.halved_per_plan"] = ratio(c.halved, int64(c.jobsDone))
	all["core.bounds_tried_per_plan"] = ratio(c.boundsTried, int64(c.jobsDone))
	all["core.pruned_pre_ratio"] = ratio(c.prunedPre, c.boundsTried)
	all["core.pruned_post_ratio"] = ratio(c.prunedPost, c.boundsTried)
	all["core.sims_aborted_per_plan"] = ratio(c.aborted, int64(c.jobsDone))
	all["evalcache.eval_hit_ratio"] = ratio(c.evalHits, c.evalHits+c.evalMisses)
	all["evalcache.lowered_hit_ratio"] = ratio(c.loweredHits, c.loweredHits+c.loweredMisses)
	all["runtime.gc_cycles_per_plan"] = ratio(c.gcCycles, c.jobsDone)
	all["runtime.gc_cpu_pct"] = mean(c.gcPct)

	extra = map[string]float64{"evalcache.warm_sets": float64(c.warmSets)}
	for k, v := range r.layers {
		extra[k] = v
	}
	var lowerings, reused int64
	passMS := make(map[string]float64)
	for _, p := range r.plans {
		if p.rep.Pipeline == nil {
			continue
		}
		lowerings += p.rep.Pipeline.Lowerings
		reused += p.rep.Pipeline.Reused
		for _, ps := range p.rep.Pipeline.Passes {
			passMS[ps.Name] += float64(ps.Total.Nanoseconds()) / 1e6
		}
	}
	n := int64(len(r.plans))
	all["plan.lowerings_per_plan"] = ratio(lowerings, n)
	all["plan.reused_per_plan"] = ratio(reused, n)
	for name, ms := range passMS {
		extra["plan."+name+"_ms_per_plan"] = ms / float64(n)
	}
	if r.fleetGPUs > 0 {
		extra["fleet.wait_ms_p50"] = all["service.queue_wait_ms_p50"]
	}
	return all, extra
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package heterog

import (
	"heterog/internal/core"
	"heterog/internal/evalcache"
	planir "heterog/internal/plan"
)

// CacheStats is a point-in-time snapshot of one cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Len, Capacity           int
}

// CacheSet bundles the two warm caches behind the evaluation fast path: the
// strategy-keyed evaluation cache (memoized compile → rank → simulate
// outcomes) and the lowered-artifact cache (order-independent compiled plans,
// shared between ranked and FIFO evaluation and across fault-scenario twins).
//
// By default every GetRunner call builds a private set that dies with the
// runner. A long-lived caller — the planning service, or any program that
// plans the same model on the same cluster repeatedly — can build one
// CacheSet per workload and pass it to WithCaches so repeated and concurrent
// plans hit warm state instead of recompiling. Both caches are safe for
// concurrent use.
//
// Correctness scope: a CacheSet must only be reused across GetRunner calls
// whose (model graph, cluster, seed) workload is identical — the cache keys
// do not cover the workload itself. evalcache.WorkloadFingerprint is the
// sanctioned identity; the planning service keys its registry by it.
type CacheSet struct {
	eval    *evalcache.Cache[*core.Evaluation]
	lowered *evalcache.Cache[*planir.Artifacts]
}

// NewCacheSet builds a cache set whose two caches hold
// evalcache.DefaultCapacity entries each.
func NewCacheSet() *CacheSet {
	return &CacheSet{
		eval:    evalcache.New[*core.Evaluation](evalcache.DefaultCapacity),
		lowered: evalcache.New[*planir.Artifacts](evalcache.DefaultCapacity),
	}
}

// Stats snapshots both caches' counters: the evaluation cache first, the
// lowered-artifact cache second.
func (cs *CacheSet) Stats() (eval, lowered CacheStats) {
	return cacheStats(cs.eval.Stats()), cacheStats(cs.lowered.Stats())
}

func cacheStats(s evalcache.Stats) CacheStats {
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Len: s.Len, Capacity: s.Capacity}
}

// install points an evaluator's caches at the shared set.
func (cs *CacheSet) install(ev *core.Evaluator) {
	ev.Cache = cs.eval
	ev.Lowered = cs.lowered
}

// Package evalcache provides the strategy-keyed evaluation cache behind the
// evaluator's fast path. Converging policies resample identical (or
// decision-identical) strategies over and over; memoizing the full evaluation
// under a canonical fingerprint of everything that determines the simulated
// outcome — per-op decisions, execution order, iteration count and compiler
// ablations — lets repeated samples skip the compile → rank → simulate
// pipeline entirely.
//
// The cache is a concurrency-safe, LRU-bounded map from Key to an arbitrary
// value type (the evaluator stores *core.Evaluation; keeping the package
// generic avoids an import cycle with core). Hit/miss/eviction counters are
// exposed for tests and benchmarks.
package evalcache

import (
	"container/list"
	"sync"
)

// DefaultCapacity bounds a cache built by the evaluator. Entries retain the
// compiled distributed graph and simulation result, which for the largest
// workloads run to megabytes each, so the bound is deliberately modest: it is
// sized for the "policy resamples recent strategies" access pattern, not for
// exhaustive search memoization.
const DefaultCapacity = 32

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Len, Capacity           int
}

type entry[V any] struct {
	key Key
	val V
}

// Cache is a mutex-guarded LRU cache keyed by evaluation fingerprints. The
// zero value is not usable; construct with New.
type Cache[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used; values are *entry[V]
	byKey     map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns an empty cache holding at most capacity entries; capacity <= 0
// selects DefaultCapacity.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes the value for k, evicting the least recently used
// entry when over capacity.
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[k] = c.ll.PushFront(&entry[V]{key: k, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: c.ll.Len(), Capacity: c.capacity,
	}
}

package evalcache

import (
	"sync"
	"testing"

	"heterog/internal/compiler"
	"heterog/internal/strategy"
)

func grouping(groupOf []int, numGroups int) *strategy.Grouping {
	gr := &strategy.Grouping{GroupOf: groupOf, Members: make([][]int, numGroups), Anchors: make([]int, numGroups)}
	for op, gi := range groupOf {
		gr.Members[gi] = append(gr.Members[gi], op)
	}
	return gr
}

func TestFingerprintCanonicalOverGroupPermutation(t *testing.T) {
	// Two groupings with permuted group indices but identical per-op
	// decisions must fingerprint identically.
	a := &strategy.Strategy{
		Grouping:  grouping([]int{0, 0, 1, 1}, 2),
		Decisions: []strategy.Decision{{Kind: strategy.MP, Device: 2}, {Kind: strategy.DPEvenAR}},
	}
	b := &strategy.Strategy{
		Grouping:  grouping([]int{1, 1, 0, 0}, 2),
		Decisions: []strategy.Decision{{Kind: strategy.DPEvenAR}, {Kind: strategy.MP, Device: 2}},
	}
	if Fingerprint(a, false, 3, compiler.Ablations{}, 0) != Fingerprint(b, false, 3, compiler.Ablations{}, 0) {
		t.Fatal("permuted groupings with identical op decisions must share a key")
	}
}

func TestFingerprintIgnoresDPDevice(t *testing.T) {
	gr := grouping([]int{0}, 1)
	a := &strategy.Strategy{Grouping: gr, Decisions: []strategy.Decision{{Kind: strategy.DPPropPS, Device: 3}}}
	b := &strategy.Strategy{Grouping: gr, Decisions: []strategy.Decision{{Kind: strategy.DPPropPS}}}
	if Fingerprint(a, false, 3, compiler.Ablations{}, 0) != Fingerprint(b, false, 3, compiler.Ablations{}, 0) {
		t.Fatal("DP decisions must ignore the (unused) placement device")
	}
}

func TestFingerprintSeparatesEvaluationKnobs(t *testing.T) {
	gr := grouping([]int{0, 0}, 1)
	s := &strategy.Strategy{Grouping: gr, Decisions: []strategy.Decision{{Kind: strategy.DPEvenPS}}}
	base := Fingerprint(s, false, 3, compiler.Ablations{}, 0)
	distinct := []Key{
		base,
		Fingerprint(s, true, 3, compiler.Ablations{}, 0),
		Fingerprint(s, false, 5, compiler.Ablations{}, 0),
		Fingerprint(s, false, 3, compiler.Ablations{DensePS: true}, 0),
		Fingerprint(s, false, 3, compiler.Ablations{NoNCCLSerialization: true}, 0),
		Fingerprint(s, false, 3, compiler.Ablations{FreeCollectiveLaunch: true}, 0),
		Fingerprint(s, false, 3, compiler.Ablations{NoHierarchicalPull: true}, 0),
		Fingerprint(s, false, 3, compiler.Ablations{}, 1),
		Fingerprint(s, false, 3, compiler.Ablations{}, 2),
	}
	seen := map[Key]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Fatalf("knob variants %d and %d collide", j, i)
		}
		seen[k] = i
	}
	other := &strategy.Strategy{Grouping: gr, Decisions: []strategy.Decision{{Kind: strategy.MP, Device: 1}}}
	if Fingerprint(other, false, 3, compiler.Ablations{}, 0) == base {
		t.Fatal("different decisions must not collide")
	}
}

func TestCacheLRUAndCounters(t *testing.T) {
	c := New[int](2)
	k := func(b byte) Key { var k Key; k[0] = b; return k }
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k(1), 10)
	c.Put(k(2), 20)
	if v, ok := c.Get(k(1)); !ok || v != 10 {
		t.Fatalf("got %v,%v want 10,true", v, ok)
	}
	c.Put(k(3), 30) // evicts 2 (1 was refreshed by the Get)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if v, ok := c.Get(k(1)); !ok || v != 10 {
		t.Fatal("entry 1 should have survived as MRU")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Len != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
	c.Put(k(1), 11) // refresh in place: no eviction, no growth
	if v, _ := c.Get(k(1)); v != 11 {
		t.Fatal("Put must refresh existing entries")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var k Key
				k[0] = byte((w + i) % 16)
				c.Put(k, i)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if n := c.Stats().Len; n > 8 {
		t.Fatalf("capacity exceeded: %d", n)
	}
}

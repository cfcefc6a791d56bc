package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"heterog/internal/compiler"
)

// runFullScan is RunBounded with the dispatcher it had before dispatch
// tracked pending units: after every event it calls dispatchUnit on every
// unit in index order. It also counts the scans that stopped at
// blockedScanDepth blocked entries.
func runFullScan(s *Simulator, dg *compiler.DistGraph, priorities []float64) (*Result, int, error) {
	s.reset(dg, priorities)
	for _, op := range dg.Ops {
		if s.indeg[op.ID] == 0 {
			s.enqueue(op)
		}
	}
	truncated := 0
	dispatchAll := func(now float64) {
		for u := range s.queues {
			s.skipped = s.skipped[:0]
			s.dispatchUnit(u, now)
			if len(s.skipped) == blockedScanDepth {
				truncated++
			}
		}
	}
	now := 0.0
	dispatchAll(now)
	for len(s.events) > 0 {
		ev := s.events.pop()
		now = ev.time
		s.complete(ev.op, now)
		for len(s.events) > 0 && s.events[0].time == now {
			s.complete(s.events.pop().op, now)
		}
		dispatchAll(now)
	}
	if s.done != len(dg.Ops) {
		return nil, 0, fmt.Errorf("deadlock: executed %d of %d ops", s.done, len(dg.Ops))
	}
	return s.finish(dg, now), truncated, nil
}

// multiUnitToy builds a random DAG of n ops over every unit of a cluster of
// the given size. Edges are sparse, so hundreds of ops are ready at once.
// Half the ops also take one hot unit, which makes it the bottleneck: the
// other units' queues fill with more than blockedScanDepth entries blocked
// behind it. Some ops take up to three more random units. Durations come
// from a small set, so completions coincide, and priorities from a few
// levels, so the FIFO tie-break decides.
func multiUnitToy(rng *rand.Rand, devices, n int) (*compiler.DistGraph, []float64) {
	ty := newToy(devices)
	units := ty.dg.NumUnits()
	hot := rng.Intn(units)
	for i := 0; i < n; i++ {
		var ins []*compiler.DistOp
		for j := max(0, i-200); j < i; j++ {
			if rng.Intn(100) == 0 {
				ins = append(ins, ty.dg.Ops[j])
			}
		}
		op := ty.op(rng.Intn(devices), float64(1+rng.Intn(6))/4, int64(rng.Intn(1<<16)), ins...)
		extra := rng.Intn(4)
		if rng.Intn(2) == 0 {
			op.Units = append(op.Units, hot)
			extra = rng.Intn(2)
		}
		for ; extra > 0; extra-- {
			op.Units = append(op.Units, rng.Intn(units))
		}
		op.Units = dedupUnits(op.Units)
	}
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = float64(rng.Intn(5))
	}
	return ty.dg, pr
}

// dedupUnits drops repeated units, keeping first occurrences in order.
func dedupUnits(us []int) []int {
	out := us[:0]
	for _, u := range us {
		if !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}

// TestDispatchPendingMatchesFullScan runs random multi-unit DAGs through
// RunBounded and through runFullScan and requires every start, finish,
// busy time and peak bit-identical. The clusters range up to more than 64
// units, so the pending set spans several words.
func TestDispatchPendingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	truncated := 0
	for trial := 0; trial < 40; trial++ {
		devices := []int{1, 3, 6, 8, 70}[trial%5]
		dg, pr := multiUnitToy(rng, devices, 100+rng.Intn(700))
		want, n, err := runFullScan(NewSimulator(), dg, pr)
		truncated += n
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSimulator().RunBounded(dg, pr, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, fmt.Sprintf("trial %d (%d devices, %d ops)", trial, devices, len(dg.Ops)))
	}
	if truncated == 0 {
		t.Fatal("no scan stopped at blockedScanDepth blocked entries")
	}
	t.Logf("%d scans stopped at blockedScanDepth blocked entries", truncated)
}

package agent

import "testing"

// raceEnabled reports a -race build (see race_enabled_test.go).
var raceEnabled bool

// TestEpisodeLoopAllocs pins the episode loop's allocation budget. The loop
// ran at ~18k allocs/episode before the flat successor-list construction and
// the pooled decode buffers landed, and at ~12k after; the ceiling sits
// between the two so a regression to per-edge adjacency growth or per-batch
// scratch reallocation fails loudly while normal drift does not.
func TestEpisodeLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is exact but slow")
	}
	ev := smallEvaluator(t)
	ev.Cache = nil // memoized repeats would hide lowering-path regressions
	a, err := New(DefaultConfig(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the per-evaluator state so encoding (one-time) stays out of the
	// steady-state measurement.
	if _, err := a.RunEpisodes(ev, 4, false); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := a.RunEpisodes(ev, 4, false); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 16000
	if perEp := avg / 4; perEp > ceiling {
		t.Fatalf("episode loop allocates %.0f objects/episode, ceiling %d", perEp, ceiling)
	}
}

// TestWarmRolloutAllocs pins the allocation budget of a warm rollout batch:
// RunEpisodes(ev, 4, false) on a 500-group graph (ResNet-200 on Testbed8),
// with the graph already encoded and every sampled strategy already in the
// evaluation cache, so what remains is the policy forward pass, decoding
// and the cache hits. Before the tape arena this batch allocated ~35k
// objects; recycled tapes bring it under two hundred. The race detector's
// sync.Pool drops pooled tapes at random, so the budget holds only without
// it.
func TestWarmRolloutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled tapes")
	}
	ev := zooEvaluator(t, "resnet200")
	a := newAgent(t, 8)
	run := func() {
		// Reseeding replays the same batch, so every evaluation is a hit.
		a.rng.Seed(a.cfg.Seed)
		if _, err := a.RunEpisodes(ev, 4, false); err != nil {
			t.Fatal(err)
		}
	}
	run() // encode the graph and fill the evaluation cache
	const ceiling = 2000
	if avg := testing.AllocsPerRun(10, run); avg > ceiling {
		t.Fatalf("warm RunEpisodes(ev, 4, false) allocates %.0f objects, ceiling %d", avg, ceiling)
	}
}

package agent

// Concurrency tests for the shared-evaluator paths. Run with -race (the
// Makefile's `make race` target does): they cover the per-agent state cache,
// the shared evaluation cache, and Plan's bounded evaluation pool — the
// structures two agents touch when planning against the same evaluator.

import (
	"reflect"
	"sync"
	"testing"

	"heterog/internal/core"
	"heterog/internal/nn"
)

// TestConcurrentPlanSameEvaluator plans with two independent agents against
// one shared evaluator (and therefore one shared evaluation cache). Both
// plans must succeed and agree with the DP-dominating guarantee of the
// heuristic pool.
func TestConcurrentPlanSameEvaluator(t *testing.T) {
	ev := smallEvaluator(t)
	const agents = 2
	plans := make([]*core.Evaluation, agents)
	errs := make([]error, agents)
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		a := newAgent(t, 4)
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			plans[i], errs[i] = a.Plan(ev, 1)
		}(i, a)
	}
	wg.Wait()
	for i := 0; i < agents; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] == nil || plans[i].Result.OOM() {
			t.Fatalf("plan %d infeasible", i)
		}
	}
}

// TestConcurrentRunEpisodesSharedEvaluator drives the batched rollout path
// from two agents over the same evaluator concurrently.
func TestConcurrentRunEpisodesSharedEvaluator(t *testing.T) {
	ev := smallEvaluator(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		a := newAgent(t, 4)
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				if _, err := a.RunEpisodes(ev, 3, true); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStateAccessSingleAgent hammers the per-agent state cache
// from many goroutines resolving the same evaluator.
func TestConcurrentStateAccessSingleAgent(t *testing.T) {
	ev := smallEvaluator(t)
	a := newAgent(t, 4)
	var wg sync.WaitGroup
	states := make([]*graphState, 8)
	errs := make([]error, 8)
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], errs[i] = a.state(ev)
		}(i)
	}
	wg.Wait()
	for i := range states {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if states[i] != states[0] {
			t.Fatal("concurrent first-touch must converge on one cached state")
		}
		if !reflect.DeepEqual(states[i].grouping, states[0].grouping) {
			t.Fatal("cached groupings diverge")
		}
	}
}

// TestConcurrentAgentsSharedTapePool runs agents on different evaluators
// at once. Their rollout batches draw tapes from the one process-wide pool,
// so arenas pass between agents; each agent must still end bit-identical
// (parameters and rewards) to the same agent run alone.
func TestConcurrentAgentsSharedTapePool(t *testing.T) {
	evs := []*core.Evaluator{smallEvaluator(t), zooEvaluator(t, "mobilenet_v2")}
	run := func(ev *core.Evaluator) (string, error) {
		m := ev.Cluster.NumDevices()
		a, err := New(DefaultConfig(m), m)
		if err != nil {
			return "", err
		}
		var rewards []float64
		for round := 0; round < 2; round++ {
			eps, err := a.RunEpisodes(ev, 2, true)
			if err != nil {
				return "", err
			}
			for _, ep := range eps {
				rewards = append(rewards, ep.Reward)
			}
		}
		return hashMatrices(append(agentParams(a), nn.FromRows([][]float64{rewards}))...), nil
	}
	want := make([]string, len(evs))
	for i, ev := range evs {
		var err error
		if want[i], err = run(ev); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, len(evs))
	errs := make([]error, len(evs))
	var wg sync.WaitGroup
	for i, ev := range evs {
		wg.Add(1)
		go func(i int, ev *core.Evaluator) {
			defer wg.Done()
			got[i], errs[i] = run(ev)
		}(i, ev)
	}
	wg.Wait()
	for i := range evs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("agent %d on %s: concurrent run drifted from its sequential run", i, evs[i].Graph.Name)
		}
	}
}

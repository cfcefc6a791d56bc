package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/graph"
	"heterog/internal/models"
)

// fakeEstimate models the real estimator's shape without its cost: iteration
// time is max(compute floor ∝ 1/total power, comm floor growing with server
// count), so throughput has the same diminishing returns the NIC aggregation
// floor produces. commWeight tunes where returns stop.
func fakeEstimate(commWeight float64) EstimateFunc {
	return func(g *graph.Graph, v *cluster.View, seed int64) (float64, error) {
		var power float64
		for _, d := range v.Devices {
			power += d.Model.Power
		}
		compute := 1.0 / power
		servers := 0
		for _, s := range v.Servers {
			if len(s.Devices) > 0 {
				servers++
			}
		}
		var comm float64
		if servers > 1 {
			comm = commWeight * float64(servers-1) / float64(servers)
		}
		return math.Max(compute, comm), nil
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := models.VGG19(64)
	if err != nil {
		t.Fatalf("VGG19: %v", err)
	}
	return g
}

func TestSingleJobGrowsWhileProfitable(t *testing.T) {
	g := testGraph(t)
	// Tiny comm weight: growing across both Testbed8 servers stays profitable.
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	grants, err := a.Submit(JobSpec{ID: "j1", Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(grants) != 1 || grants[0].Job != "j1" || grants[0].Grown {
		t.Fatalf("want one admission grant for j1, got %+v", grants)
	}
	if n := grants[0].Lease.NumDevices(); n != 8 {
		t.Fatalf("profitable growth should take the whole fleet, got %d devices", n)
	}
	st := a.Snapshot()
	if st.FreeDevices != 0 || len(st.Waiting) != 0 {
		t.Fatalf("unexpected state: %+v", st)
	}
}

func TestGrowthStopsWhenCommDominates(t *testing.T) {
	g := testGraph(t)
	// Huge comm weight: any second server makes the estimate worse than the
	// single-server compute floor, so growth must stop at one server.
	a := New(cluster.Testbed8(), fakeEstimate(100))
	grants, err := a.Submit(JobSpec{ID: "j1", Graph: g})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if n := grants[0].Lease.NumDevices(); n != 2 {
		t.Fatalf("growth should stop at one server (2 devices), got %d", n)
	}
	if st := a.Snapshot(); st.FreeDevices != 6 {
		t.Fatalf("remaining servers should stay free, state %+v", st)
	}
}

func TestConcurrentJobsPartitionFleet(t *testing.T) {
	g := testGraph(t)
	run := func() State {
		a := New(cluster.Testbed64(), fakeEstimate(0.005))
		for i := 0; i < 4; i++ {
			if _, err := a.Submit(JobSpec{ID: fmt.Sprintf("j%d", i), Graph: g}); err != nil {
				t.Fatalf("Submit j%d: %v", i, err)
			}
		}
		return a.Snapshot()
	}
	st := run()
	if len(st.Leases) != 4 || len(st.Waiting) != 0 {
		t.Fatalf("all 4 jobs should hold leases: %+v", st)
	}
	seen := map[int]string{}
	for _, l := range st.Leases {
		if len(l.Devices) == 0 {
			t.Fatalf("empty lease for %s", l.Job)
		}
		for _, d := range l.Devices {
			if prev, dup := seen[d]; dup {
				t.Fatalf("device %d leased to both %s and %s", d, prev, l.Job)
			}
			seen[d] = l.Job
		}
	}
	if st.LeasedDevices+st.FreeDevices != st.TotalDevices {
		t.Fatalf("device accounting broken: %+v", st)
	}
	// Identical call sequences must produce identical partitions.
	if st2 := run(); !reflect.DeepEqual(st, st2) {
		t.Fatalf("allocation not deterministic:\n%+v\nvs\n%+v", st, st2)
	}
}

func TestWaitingJobPreemptsGrowthOnRelease(t *testing.T) {
	g := testGraph(t)
	// j0 and j1 each pin two of Testbed8's four servers (Min == Max == 4
	// devices), so reclaim cannot shrink them and j2 must wait.
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	if _, err := a.Submit(JobSpec{ID: "j0", Graph: g, MinDevices: 4, MaxDevices: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(JobSpec{ID: "j1", Graph: g, MinDevices: 4, MaxDevices: 4}); err != nil {
		t.Fatal(err)
	}
	grants, err := a.Submit(JobSpec{ID: "j2", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 0 {
		t.Fatalf("fleet is full and pinned, j2 should wait: %+v", grants)
	}
	if st := a.Snapshot(); len(st.Waiting) != 1 || st.Waiting[0] != "j2" {
		t.Fatalf("j2 should be queued: %+v", st)
	}
	// j0 completes: its servers must go to waiting j2, not grow j1 (which is
	// capped anyway); j2 then grows onto all freed capacity.
	grants = a.Release("j0")
	if len(grants) != 1 || grants[0].Job != "j2" || grants[0].Grown || grants[0].Shrunk {
		t.Fatalf("freed capacity should admit j2: %+v", grants)
	}
	if n := grants[0].Lease.NumDevices(); n != 4 {
		t.Fatalf("j2 should take both freed servers, got %d devices", n)
	}
	if l := a.Lease("j1"); l == nil || l.NumDevices() != 4 {
		t.Fatalf("incumbent j1 must not shrink or grow: %+v", l)
	}
}

func TestPreemptiveReclaimAdmitsNewJob(t *testing.T) {
	g := testGraph(t)
	// j0 alone borrows the whole fleet; j1's arrival must shrink it rather
	// than wait for completion.
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	if _, err := a.Submit(JobSpec{ID: "j0", Graph: g}); err != nil {
		t.Fatal(err)
	}
	if n := a.Lease("j0").NumDevices(); n != 8 {
		t.Fatalf("j0 alone should hold the fleet, got %d devices", n)
	}
	grants, err := a.Submit(JobSpec{ID: "j1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 2 {
		t.Fatalf("want a shrink for j0 plus an admission for j1: %+v", grants)
	}
	var shrunk, admitted bool
	for _, gr := range grants {
		switch gr.Job {
		case "j0":
			shrunk = gr.Shrunk && !gr.Grown && gr.Lease.NumDevices() < 8
		case "j1":
			admitted = !gr.Shrunk && !gr.Grown && gr.Lease.NumDevices() >= 1
		}
	}
	if !shrunk || !admitted {
		t.Fatalf("reclaim grants wrong: %+v", grants)
	}
	seen := map[int]bool{}
	for _, l := range a.Snapshot().Leases {
		for _, d := range l.Devices {
			if seen[d] {
				t.Fatalf("device %d double-leased after reclaim", d)
			}
			seen[d] = true
		}
	}
}

func TestIncumbentGrowsOnReleaseWhenQueueEmpty(t *testing.T) {
	g := testGraph(t)
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	if _, err := a.Submit(JobSpec{ID: "j0", Graph: g, MaxDevices: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(JobSpec{ID: "j1", Graph: g}); err != nil {
		t.Fatal(err)
	}
	before := a.Lease("j1")
	grants := a.Release("j0")
	if len(grants) != 1 || grants[0].Job != "j1" || !grants[0].Grown {
		t.Fatalf("j1 should grow onto the freed server: %+v", grants)
	}
	after := grants[0].Lease
	if after.NumDevices() != 8 {
		t.Fatalf("grown lease should cover the fleet, got %d devices", after.NumDevices())
	}
	if after.ID == before.ID {
		t.Fatalf("growth must mint a fresh lease, both are %s", after.ID)
	}
	if got := a.Lease("j1"); got != after {
		t.Fatalf("allocator should hold the grown lease")
	}
}

func TestMinDevicesHoldsJobBack(t *testing.T) {
	g := testGraph(t)
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	// Wants more than half the fleet as a minimum while another job holds a
	// server: must wait, then get admitted once the fleet frees up.
	if _, err := a.Submit(JobSpec{ID: "small", Graph: g, MaxDevices: 4}); err != nil {
		t.Fatal(err)
	}
	grants, err := a.Submit(JobSpec{ID: "big", Graph: g, MinDevices: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 0 {
		t.Fatalf("big cannot fit yet: %+v", grants)
	}
	grants = a.Release("small")
	if len(grants) != 1 || grants[0].Job != "big" || grants[0].Lease.NumDevices() != 8 {
		t.Fatalf("big should now get the whole fleet: %+v", grants)
	}
}

func TestReleaseUnknownJobIsNoop(t *testing.T) {
	a := New(cluster.Testbed8(), fakeEstimate(0.01))
	if grants := a.Release("ghost"); grants != nil {
		t.Fatalf("unknown release should grant nothing: %+v", grants)
	}
}

func TestRealEstimatorOnTestbed(t *testing.T) {
	g := testGraph(t)
	c := cluster.Testbed8()
	full, err := core.EstimateLeaseTime(g, c.FullView(), 1)
	if err != nil {
		t.Fatalf("EstimateLeaseTime: %v", err)
	}
	if full <= 0 || math.IsInf(full, 0) || math.IsNaN(full) {
		t.Fatalf("estimate must be positive and finite, got %v", full)
	}
	half, err := core.EstimateLeaseTime(g, mustView(t, c, c.Servers[0].Devices...), 1)
	if err != nil {
		t.Fatalf("EstimateLeaseTime(half): %v", err)
	}
	if half <= 0 {
		t.Fatalf("single-server estimate must be positive, got %v", half)
	}
	// The multi-server estimate must include a non-zero NIC floor.
	stats := g.ComputeStats()
	if floor := core.NICAggregationFloor(c, stats.ParamBytes); floor <= 0 {
		t.Fatalf("multi-server NIC floor must be positive, got %v", floor)
	}
	if core.NICAggregationFloor(mustView(t, c, c.Servers[0].Devices...).Cluster, stats.ParamBytes) != 0 {
		t.Fatal("single-server NIC floor must be zero")
	}
}

func mustView(t *testing.T, c *cluster.Cluster, devs ...int) *cluster.View {
	t.Helper()
	v, err := c.ViewOf(devs...)
	if err != nil {
		t.Fatalf("ViewOf: %v", err)
	}
	return v
}

// TestConcurrentAcquireRelease stress-tests the allocator under -race: many
// goroutines submitting and releasing against one fleet, with invariant
// checks (no device double-leased) interleaved.
func TestConcurrentAcquireRelease(t *testing.T) {
	g := testGraph(t)
	a := New(cluster.Testbed64(), fakeEstimate(0.005))
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("w%d-r%d", w, r)
				if _, err := a.Submit(JobSpec{ID: id, Graph: g}); err != nil {
					t.Errorf("Submit %s: %v", id, err)
					return
				}
				st := a.Snapshot()
				seen := map[int]bool{}
				for _, l := range st.Leases {
					for _, d := range l.Devices {
						if seen[d] {
							t.Errorf("device %d double-leased", d)
							return
						}
						seen[d] = true
					}
				}
				a.Release(id)
			}
		}(w)
	}
	wg.Wait()
	if st := a.Snapshot(); len(st.Leases) != 0 || len(st.Waiting) != 0 || st.FreeDevices != st.TotalDevices {
		t.Fatalf("fleet should be fully free after all releases: %+v", st)
	}
}

// TestSeededChurnNeverStarvesWaiters hammers the allocator with a seeded
// submit/release churn on the 64-GPU fleet while incumbents grow elastically
// onto idle capacity, and holds the FIFO-admission starvation invariant after
// every operation: a job may only ever be waiting while the free pool cannot
// cover its minimum. The final drain proves every job still queued when the
// churn stops is eventually admitted.
func TestSeededChurnNeverStarvesWaiters(t *testing.T) {
	g := testGraph(t)
	// Mild comm weight: growth stays profitable across several servers, so
	// incumbents absorb the idle fleet and every arrival has to reclaim its
	// minimum back out of elastic grants.
	a := New(cluster.Testbed64(), fakeEstimate(0.05))
	rng := rand.New(rand.NewSource(20260808))
	min := map[string]int{}
	var live []string
	next := 0

	checkNoStarvation := func(op string) {
		t.Helper()
		snap := a.Snapshot()
		for _, w := range snap.Waiting {
			if snap.FreeDevices >= min[w] {
				t.Fatalf("%s: job %s waits for %d devices while %d sit free", op, w, min[w], snap.FreeDevices)
			}
		}
	}

	for i := 0; i < 300; i++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			id := fmt.Sprintf("job-%d", next)
			next++
			m := 1 + rng.Intn(24)
			if _, err := a.Submit(JobSpec{ID: id, Graph: g, Seed: 1, MinDevices: m}); err != nil {
				t.Fatalf("submit %s: %v", id, err)
			}
			live = append(live, id)
			min[id] = m
			checkNoStarvation("submit " + id)
		} else {
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			a.Release(id)
			checkNoStarvation("release " + id)
		}
	}

	// Drain: release running jobs one at a time; completion rebalance must
	// admit every waiter before the fleet goes idle.
	for rounds := 0; ; rounds++ {
		snap := a.Snapshot()
		if len(snap.Leases) == 0 {
			if len(snap.Waiting) > 0 {
				t.Fatalf("whole fleet free but jobs still waiting: %v", snap.Waiting)
			}
			break
		}
		if rounds > 2*len(min) {
			t.Fatalf("drain did not terminate: %d leases, %d waiting", len(snap.Leases), len(snap.Waiting))
		}
		id := snap.Leases[0].Job
		a.Release(id)
		checkNoStarvation("drain release " + id)
	}
	if st := a.Snapshot(); st.FreeDevices != st.TotalDevices {
		t.Fatalf("fleet must be fully free after the drain: %+v", st)
	}
}

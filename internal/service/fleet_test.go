package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/fleet"
	"heterog/internal/graph"
)

// fleetEstimate builds a fleet.EstimateFunc with a tunable communication
// weight, mirroring the fake in internal/fleet's tests: compute scales with
// aggregate power, communication with the server count, so a small weight
// makes growth always profitable and a large one pins jobs to one server.
func fleetEstimate(commWeight float64) fleet.EstimateFunc {
	return func(g *graph.Graph, v *cluster.View, seed int64) (float64, error) {
		servers := float64(len(v.Servers))
		var power float64
		for _, d := range v.Devices {
			power += d.Model.Power
		}
		compute := 1.0 / power
		comm := commWeight * (servers - 1) / servers
		if comm > compute {
			return comm, nil
		}
		return compute, nil
	}
}

// fleetSpec is a workload spec without cluster fields: in fleet mode the
// server owns the cluster and GPUs only caps the lease size.
func fleetSpec(gpuCap int) cli.Spec {
	return cli.Spec{Model: "vgg19", Batch: 64, Seed: 1, Episodes: 1, GPUs: gpuCap}
}

// eventTypes projects an event log onto its type sequence for comparison.
func eventTypes(evs []PlanEvent) []EventType {
	out := make([]EventType, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestFleetE2E plans a real workload end to end in fleet mode: submit
// without a cluster, get a lease, plan against its view, and observe the
// lease lifecycle on the event log and /v1/fleet. The comm-heavy estimator
// keeps the lease at one server (2 devices on Testbed8), so planning stays
// test-fast.
func TestFleetE2E(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers: 2, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(100),
	})
	ctx := context.Background()

	st, err := c.Submit(ctx, fleetSpec(0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Devices != 2 {
		t.Fatalf("lease devices = %d, want 2 (comm-heavy estimator pins one server)", final.Devices)
	}

	rep, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Devices != 2 || rep.PerIterationSec <= 0 {
		t.Fatalf("report devices=%d perIter=%v, want 2 devices and positive time", rep.Devices, rep.PerIterationSec)
	}

	evs, err := c.Events(ctx, st.ID, 0, 0)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	types := eventTypes(evs)
	if len(types) != 2 || types[0] != EventLeaseGranted || types[1] != EventLeaseReleased {
		t.Fatalf("event log = %v, want [lease-granted lease-released]", types)
	}
	if evs[0].Lease == "" || evs[0].LeaseDevices != 2 || evs[0].Cluster == "" {
		t.Fatalf("grant event missing lease identity: %+v", evs[0])
	}

	fs, err := c.Fleet(ctx)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fs.FreeDevices != 8 || len(fs.Leases) != 0 || len(fs.Waiting) != 0 {
		t.Fatalf("fleet after completion = %+v, want everything free", fs.State)
	}
}

// TestFleetRejectsClusterSpecs checks the mode split: fleet servers refuse
// specs that describe their own cluster, and classic servers 404 /v1/fleet.
func TestFleetRejectsClusterSpecs(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(100),
	})
	ctx := context.Background()

	spec := fleetSpec(0)
	spec.Cluster = &cli.ClusterSpec{Servers: []cli.ServerSpec{{GPUs: 2, GPU: "v100", NICGbps: 100, PCIeGbps: 100}}}
	if _, err := c.Submit(ctx, spec); err == nil {
		t.Fatal("fleet server accepted a spec with its own cluster")
	}

	_, classic := newTestServer(t, Config{Workers: 1})
	if _, err := classic.Fleet(ctx); !errors.Is(err, ErrNotFound) {
		t.Fatalf("classic /v1/fleet error = %v, want ErrNotFound", err)
	}
}

// TestFleetWaitingAndRebalance drives the full multi-job lease dance with a
// controlled worker: a pinned running job never resizes, a queued incumbent
// shrinks to admit an arrival and grows back when that arrival cancels, and
// a release admits the waiting queue. Every transition is asserted on the
// event logs, synchronously (grants apply inside Submit/Cancel/Release).
func TestFleetWaitingAndRebalance(t *testing.T) {
	srv := New(Config{Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(0.001)})
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	tokens := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		select {
		case <-tokens:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// j1 (cap 2): one server, immediately picked up by the only worker and
	// pinned while its run blocks on the token channel.
	j1, err := srv.Submit(fleetSpec(2))
	if err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	waitForState(t, srv, j1.ID, JobRunning)

	// j2 (no cap): the growth-friendly estimator hands it every free server
	// (3 servers, 6 devices). It stays queued behind the busy worker.
	j2, err := srv.Submit(fleetSpec(0))
	if err != nil {
		t.Fatalf("submit j2: %v", err)
	}
	if st, _ := srv.Status(j2.ID); st.State != JobQueued || st.Devices != 6 {
		t.Fatalf("j2 = %s on %d devices, want queued on 6", st.State, st.Devices)
	}

	// j3 (cap 2): no free servers left, so the allocator shrinks the queued
	// (unpinned) j2 — never the pinned j1 — to admit it.
	j3, err := srv.Submit(fleetSpec(2))
	if err != nil {
		t.Fatalf("submit j3: %v", err)
	}
	if st, _ := srv.Status(j3.ID); st.State != JobQueued {
		t.Fatalf("j3 = %s, want queued (admitted via reclaim)", st.State)
	}
	if st, _ := srv.Status(j1.ID); st.Devices != 2 {
		t.Fatalf("pinned j1 resized to %d devices", st.Devices)
	}
	if st, _ := srv.Status(j2.ID); st.Devices >= 6 {
		t.Fatalf("j2 still holds %d devices, want shrunk below 6", st.Devices)
	}

	// Canceling queued j3 releases its lease; the rebalance grows j2 back.
	if st, err := srv.Cancel(j3.ID); err != nil || st.State != JobCanceled {
		t.Fatalf("cancel j3: state=%v err=%v", st.State, err)
	}
	if st, _ := srv.Status(j2.ID); st.Devices != 6 {
		t.Fatalf("j2 = %d devices after j3 canceled, want 6 again", st.Devices)
	}
	evs, err := srv.Events(j2.ID, 0)
	if err != nil {
		t.Fatalf("j2 events: %v", err)
	}
	types := eventTypes(evs)
	want := []EventType{EventLeaseGranted, EventLeaseResized, EventLeaseResized}
	if len(types) != len(want) || types[0] != want[0] || types[1] != want[1] || types[2] != want[2] {
		t.Fatalf("j2 event log = %v, want %v", types, want)
	}

	// j4 (min = whole fleet is impossible while j1+j2 hold it, cap forces
	// nothing — use a cap of 8 and exhausted fleet): waits.
	j4, err := srv.Submit(fleetSpec(8))
	if err != nil {
		t.Fatalf("submit j4: %v", err)
	}
	if st, _ := srv.Status(j4.ID); st.State != JobQueued && st.State != JobWaiting {
		t.Fatalf("j4 = %s, want waiting or queued", st.State)
	}

	// Drain the token channel: j1 finishes, then the worker picks up j2 and
	// the rest; every job completes and the fleet ends fully free.
	go func() {
		for i := 0; i < 3; i++ {
			tokens <- struct{}{}
		}
	}()
	for _, id := range []string{j1.ID, j2.ID, j4.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := srv.Wait(ctx, id)
		cancel()
		if err != nil || st.State != JobDone {
			t.Fatalf("wait %s: state=%v err=%v", id, st.State, err)
		}
	}
	fs, err := srv.Fleet()
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fs.FreeDevices != 8 || len(fs.Leases) != 0 || len(fs.Waiting) != 0 {
		t.Fatalf("fleet after all jobs = %+v, want everything free", fs.State)
	}
	stats := srv.Stats()
	if stats.Done != 3 || stats.Canceled != 1 || stats.Waiting != 0 {
		t.Fatalf("stats = done %d canceled %d waiting %d, want 3/1/0", stats.Done, stats.Canceled, stats.Waiting)
	}
}

// TestFleetCancelWaiting cancels a job that never got a lease and checks it
// leaves the allocator's waiting queue without disturbing the incumbent.
func TestFleetCancelWaiting(t *testing.T) {
	srv := New(Config{Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(0.001)})
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	tokens := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		select {
		case <-tokens:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	j1, err := srv.Submit(fleetSpec(0)) // whole fleet
	if err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	waitForState(t, srv, j1.ID, JobRunning) // pinned: cannot be reclaimed

	j2, err := srv.Submit(fleetSpec(0))
	if err != nil {
		t.Fatalf("submit j2: %v", err)
	}
	if st, _ := srv.Status(j2.ID); st.State != JobWaiting || st.Lease != "" {
		t.Fatalf("j2 = %s lease=%q, want waiting with no lease", st.State, st.Lease)
	}
	if fs, _ := srv.Fleet(); len(fs.Waiting) != 1 || fs.Waiting[0] != j2.ID {
		t.Fatalf("fleet waiting = %v, want [%s]", fs.Waiting, j2.ID)
	}

	if st, err := srv.Cancel(j2.ID); err != nil || st.State != JobCanceled {
		t.Fatalf("cancel j2: state=%v err=%v", st.State, err)
	}
	if fs, _ := srv.Fleet(); len(fs.Waiting) != 0 {
		t.Fatalf("fleet waiting = %v after cancel, want empty", fs.Waiting)
	}

	tokens <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err := srv.Wait(ctx, j1.ID); err != nil || st.State != JobDone {
		t.Fatalf("wait j1: state=%v err=%v", st.State, err)
	}
}

// TestFleetCancelQueuedReleasesLeaseFirst cancels a queued job that holds a
// lease: the lease must be back with the allocator before the job turns
// terminal, so the Cancel response names no lease, the devices show free in
// the fleet snapshot, and the lease-released event is already on the log
// when a waiter wakes.
func TestFleetCancelQueuedReleasesLeaseFirst(t *testing.T) {
	srv := New(Config{Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(100)})
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	tokens := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		select {
		case <-tokens:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	j1, err := srv.Submit(fleetSpec(2))
	if err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	waitForState(t, srv, j1.ID, JobRunning)
	j2, err := srv.Submit(fleetSpec(2))
	if err != nil {
		t.Fatalf("submit j2: %v", err)
	}
	if st, _ := srv.Status(j2.ID); st.State != JobQueued || st.Lease == "" {
		t.Fatalf("j2 = %s lease=%q, want queued with a lease", st.State, st.Lease)
	}

	woke := make(chan []PlanEvent, 1)
	go func() {
		if _, err := srv.Wait(context.Background(), j2.ID); err != nil {
			t.Errorf("wait j2: %v", err)
		}
		evs, _ := srv.Events(j2.ID, 0)
		woke <- evs
	}()
	st, err := srv.Cancel(j2.ID)
	if err != nil || st.State != JobCanceled {
		t.Fatalf("cancel j2: state=%v err=%v", st.State, err)
	}
	if st.Lease != "" {
		t.Fatalf("cancel response still names lease %q", st.Lease)
	}
	fs, err := srv.Fleet()
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fs.FreeDevices != 6 || len(fs.Leases) != 1 || fs.Leases[0].Job != j1.ID {
		t.Fatalf("fleet after cancel = %+v, want only j1's lease held", fs.State)
	}
	for name, evs := range map[string][]PlanEvent{"log": mustEvents(t, srv, j2.ID), "waiter's log": <-woke} {
		if types := eventTypes(evs); len(types) == 0 || types[len(types)-1] != EventLeaseReleased {
			t.Fatalf("j2 %s = %v, want it to end in %s", name, types, EventLeaseReleased)
		}
	}

	tokens <- struct{}{}
	if st, err := srv.Wait(context.Background(), j1.ID); err != nil || st.State != JobDone {
		t.Fatalf("wait j1: state=%v err=%v", st.State, err)
	}
}

// TestFleetDrainLeavesWaitingJobs closes a fleet server while one job runs
// and another waits for a lease. The running job's release grants the
// waiting one a lease after the queue has closed; the waiting job must stay
// waiting (a durable store re-queues it on the next start) and Close must
// return cleanly.
func TestFleetDrainLeavesWaitingJobs(t *testing.T) {
	srv := New(Config{Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(0.001)})
	srv.runHook = func(ctx context.Context, j *job) error {
		<-ctx.Done()
		return ctx.Err()
	}
	j1, err := srv.Submit(fleetSpec(0)) // whole fleet
	if err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	waitForState(t, srv, j1.ID, JobRunning)
	j2, err := srv.Submit(fleetSpec(0))
	if err != nil {
		t.Fatalf("submit j2: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st, _ := srv.Status(j1.ID); st.State != JobCanceled {
		t.Fatalf("j1 = %s after close, want canceled", st.State)
	}
	if st, _ := srv.Status(j2.ID); st.State != JobWaiting {
		t.Fatalf("j2 = %s after close, want still waiting", st.State)
	}
}

// mustEvents returns a job's whole event log.
func mustEvents(t *testing.T, srv *Server, id string) []PlanEvent {
	t.Helper()
	evs, err := srv.Events(id, 0)
	if err != nil {
		t.Fatalf("events %s: %v", id, err)
	}
	return evs
}

// waitForState polls until the job reaches the state (or the test times out).
func waitForState(t *testing.T, srv *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

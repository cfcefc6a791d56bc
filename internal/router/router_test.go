package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
)

// replicas starts n in-process replicas named a, b, c, ... and returns their
// base URLs.
func replicas(t *testing.T, n, warmSets int) []string {
	t.Helper()
	backends := make([]string, n)
	for i := range backends {
		srv, err := service.Open(service.Config{
			Workers: 1, MaxWarmSets: warmSets,
			NodeID: string(rune('a' + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); _ = srv.Close() })
		backends[i] = ts.URL
	}
	return backends
}

// front serves a router over the backends and returns a client for it.
func front(t *testing.T, backends []string) *service.Client {
	t.Helper()
	rt, err := New(Config{Backends: backends, RefreshTTL: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return service.NewClient(ts.URL)
}

func spec(batch int) cli.Spec {
	return cli.Spec{Model: "vgg19", Batch: batch, GPUs: 4, Seed: 1, Episodes: 1}
}

// nodeOf extracts the replica prefix from a routed job ID ("b-job-000001").
func nodeOf(t *testing.T, id string) string {
	t.Helper()
	i := strings.Index(id, "-job-")
	if i < 0 {
		t.Fatalf("job ID %q has no node prefix", id)
	}
	return id[:i]
}

// runJob submits the batch's workload through c and waits for it to finish.
func runJob(t *testing.T, c *service.Client, batch int) *service.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec(batch))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.JobDone {
		t.Fatalf("job %s = %s (%s)", st.ID, fin.State, fin.Error)
	}
	return fin
}

// TestRouterAffinityAndProxy covers the router end to end: submissions spread
// across replicas, repeat workloads stick to the replica that already planned
// them, and per-job requests proxy to the owner.
func TestRouterAffinityAndProxy(t *testing.T) {
	ctx := context.Background()
	c := front(t, replicas(t, 2, 1))

	run := func(batch int) *service.JobStatus { return runJob(t, c, batch) }

	first := run(64)
	second := run(96) // distinct workload: load-balanced to the colder replica
	if nodeOf(t, first.ID) == nodeOf(t, second.ID) {
		t.Fatalf("two fresh workloads landed on the same replica (%s, %s)", first.ID, second.ID)
	}
	// Repeats must follow their warm caches, in either submission order.
	for _, batch := range []int{96, 64, 96, 64} {
		want := first
		if batch == 96 {
			want = second
		}
		if again := run(batch); nodeOf(t, again.ID) != nodeOf(t, want.ID) {
			t.Fatalf("repeat of batch %d landed on %s, owner was %s", batch, again.ID, want.ID)
		}
	}

	// Per-job proxying: status and report for both jobs through the front.
	for _, id := range []string{first.ID, second.ID} {
		st, err := c.Status(ctx, id)
		if err != nil || st.ID != id {
			t.Fatalf("status %s via router: %+v, %v", id, st, err)
		}
		if _, err := c.Report(ctx, id); err != nil {
			t.Fatalf("report %s via router: %v", id, err)
		}
	}
	// Listing merges both replicas.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("merged listing has %d jobs, want 6", len(jobs))
	}

	// The router's own introspection endpoint.
	resp, err := http.Get(c.BaseURL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Routed != 6 || len(status.Backends) != 2 {
		t.Fatalf("router status = %+v, want 6 routed over 2 backends", status)
	}
}

// TestRouterReadyz: ready while any backend is up; 503 when none are.
func TestRouterReadyz(t *testing.T) {
	ctx := context.Background()
	if err := front(t, []string{"http://127.0.0.1:1"}).Readyz(ctx); err == nil {
		t.Fatal("router ready with no reachable backend")
	}

	c := front(t, replicas(t, 1, 1))
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("router with one live backend not ready: %v", err)
	}

	// A replica without a node name never takes submissions: the router
	// could not find its jobs again.
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); _ = srv.Close() })
	if err := front(t, []string{ts.URL}).Readyz(ctx); err == nil {
		t.Fatal("router ready with only a node-less backend")
	}
}

// TestRouterOwnershipByPrefix: a job ID's node prefix is the only ownership
// rule. IDs without a known prefix are not_found, and a router that never
// routed a job still finds it on its replica.
func TestRouterOwnershipByPrefix(t *testing.T) {
	ctx := context.Background()
	backends := replicas(t, 2, 1)
	c := front(t, backends)
	job := runJob(t, c, 64)

	for _, id := range []string{"job-000001", "zz-job-000001"} {
		if _, err := c.Status(ctx, id); !errors.Is(err, service.ErrNotFound) {
			t.Fatalf("status %s: %v, want ErrNotFound", id, err)
		}
	}
	fresh := front(t, backends)
	st, err := fresh.Status(ctx, job.ID)
	if err != nil || st.ID != job.ID || st.State != service.JobDone {
		t.Fatalf("status %s via a fresh router: %+v, %v", job.ID, st, err)
	}
}

// TestRouterWarmCapacity checks that replicas add warm capacity: six
// workloads fit in three replicas of two warm sets each, so affinity sends
// every repeat to a replica still holding its caches, while one replica of
// two warm sets evicts each workload before it comes back.
func TestRouterWarmCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real models")
	}
	ctx := context.Background()
	warmRepeats := func(n int) int {
		c := front(t, replicas(t, n, 2))
		warm := 0
		for round := 0; round < 2; round++ {
			for w := 0; w < 6; w++ {
				fin := runJob(t, c, 32+16*w)
				if round == 0 {
					continue
				}
				rep, err := c.Report(ctx, fin.ID)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Warm != nil && rep.Warm.SharedJobs == 2 {
					warm++
				}
			}
		}
		return warm
	}
	three, one := warmRepeats(3), warmRepeats(1)
	t.Logf("round-2 repeats planned warm: 3 replicas %d/6, 1 replica %d/6", three, one)
	if three != 6 || one != 0 {
		t.Fatalf("round-2 warm repeats: 3 replicas %d/6 (want 6), 1 replica %d/6 (want 0)", three, one)
	}
}

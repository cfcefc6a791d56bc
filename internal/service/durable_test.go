package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"heterog/internal/cluster"
	"heterog/internal/store"
)

// openFileServer builds a server on a file store in dir and serves its HTTP
// API. The caller crashes or closes it explicitly.
func openFileServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg.Store = st
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("service.Open: %v", err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

// TestCrashRecoveryClassic is the crash-consistency test: a server on a file
// store is killed (store severed first, like a power cut) with one job done,
// one mid-plan and two still queued. A second server on the same directory
// must restore the finished job's report and drive every unfinished job to
// done, with each event log densely numbered across both lifetimes.
func TestCrashRecoveryClassic(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv, ts := openFileServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	// First job plans for real (so a report exists to survive the crash);
	// later jobs block until the power cut.
	running := make(chan string, 4)
	power := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		running <- j.id
		if strings.HasSuffix(j.id, "000001") {
			return srv.plan(ctx, j)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-power:
			return errors.New("power cut")
		}
	}
	c := NewClient(ts.URL)

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := c.Submit(ctx, quickSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	if fin, err := c.Wait(ctx, ids[0], 10*time.Second); err != nil || fin.State != JobDone {
		t.Fatalf("job 1 before crash: %+v, %v", fin, err)
	}
	preCrash, err := c.Report(ctx, ids[0])
	if err != nil {
		t.Fatalf("report of job 1 before crash: %v", err)
	}
	// Wait until job 2 is inside the hook (persisted as running), then cut
	// the power: the store is severed first (nothing after it reaches disk),
	// so jobs 3 and 4 die queued and job 2 dies running.
	for id := ""; id != ids[1]; id = <-running {
	}
	_ = srv.store.Close()
	close(power)
	srv.crash()
	ts.Close()

	srv2, ts2 := openFileServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	defer func() { ts2.Close(); _ = srv2.Close() }()
	c2 := NewClient(ts2.URL)

	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovery.Jobs != 4 || stats.Recovery.Requeued != 3 {
		t.Fatalf("recovery stats = %+v, want 4 jobs, 3 re-queued", stats.Recovery)
	}
	if stats.Store != "file" {
		t.Fatalf("stats.Store = %q, want file", stats.Store)
	}

	for _, id := range ids {
		fin, err := c2.Wait(ctx, id, 30*time.Second)
		if err != nil {
			t.Fatalf("job %s after restart: %v", id, err)
		}
		if fin.State != JobDone {
			t.Fatalf("job %s = %s (%s), want done", id, fin.State, fin.Error)
		}
		if !fin.Recovered {
			t.Fatalf("job %s was restored from the store but not marked recovered", id)
		}
	}
	// The pre-crash job's report must have survived via the store.
	if rep, err := c2.Report(ctx, ids[0]); err != nil {
		t.Fatalf("report of pre-crash job: %v", err)
	} else if !reflect.DeepEqual(rep, preCrash) {
		t.Fatalf("recovered report %+v differs from the pre-crash report %+v", rep, preCrash)
	}

	// Dense event logs across the restart, and the recovery marker present.
	for i, id := range ids {
		evs, err := c2.Events(ctx, id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]store.EventRecord, len(evs))
		var recovered bool
		for k, ev := range evs {
			recs[k] = store.EventRecord{Seq: ev.Seq}
			recovered = recovered || ev.Type == EventJobRecovered
		}
		if err := store.ValidateEventLog(id, recs); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !recovered {
			t.Fatalf("job %s has no %s event: %v", id, EventJobRecovered, eventTypes(evs))
		}
		if i == 0 && recovered {
			t.Fatalf("job %s finished before the crash; it must not log %s", id, EventJobRecovered)
		}
	}
}

// TestCrashRecoveryFleet crashes a fleet-mode server mid-batch: recovered
// jobs must be resubmitted through the allocator (fresh leases, since grants
// died with the process) and their lease event trails must continue the
// pre-crash sequence numbers without a gap.
func TestCrashRecoveryFleet(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Workers: 1, Fleet: cluster.Testbed8(), fleetEstimate: fleetEstimate(100)}

	srv, ts := openFileServer(t, dir, cfg)
	power := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.runHook = func(ctx context.Context, j *job) error {
		started <- struct{}{}
		select {
		case <-power:
			return errors.New("power cut")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c := NewClient(ts.URL)

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, fleetSpec(2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	<-started // one job holds a lease and is planning
	_ = srv.store.Close()
	close(power)
	srv.crash()
	ts.Close()

	srv2, ts2 := openFileServer(t, dir, cfg)
	defer func() { ts2.Close(); _ = srv2.Close() }()
	c2 := NewClient(ts2.URL)

	for _, id := range ids {
		fin, err := c2.Wait(ctx, id, 30*time.Second)
		if err != nil {
			t.Fatalf("job %s after restart: %v", id, err)
		}
		if fin.State != JobDone {
			t.Fatalf("job %s = %s (%s), want done", id, fin.State, fin.Error)
		}
		evs, err := c2.Events(ctx, id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]store.EventRecord, len(evs))
		var granted, recovered bool
		for k, ev := range evs {
			recs[k] = store.EventRecord{Seq: ev.Seq}
			granted = granted || ev.Type == EventLeaseGranted
			recovered = recovered || ev.Type == EventJobRecovered
		}
		if err := store.ValidateEventLog(id, recs); err != nil {
			t.Fatalf("lease trail across restart: %v (types %v)", err, eventTypes(evs))
		}
		if !granted || !recovered {
			t.Fatalf("job %s events %v, want lease-granted and job-recovered", id, eventTypes(evs))
		}
	}
}

// TestPeerWarmExchange runs two replicas: after A plans a workload, B's
// first job for the same fingerprint must warm-start from A's exported
// artifact via the peer API.
func TestPeerWarmExchange(t *testing.T) {
	ctx := context.Background()
	srvA, err := Open(Config{Workers: 1, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer func() { tsA.Close(); _ = srvA.Close() }()

	srvB, err := Open(Config{Workers: 1, NodeID: "b", Peers: []string{tsA.URL}})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer func() { tsB.Close(); _ = srvB.Close() }()

	cA, cB := NewClient(tsA.URL), NewClient(tsB.URL)
	st, err := cA.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := cA.Wait(ctx, st.ID, 30*time.Second); err != nil || fin.State != JobDone {
		t.Fatalf("job on A: %+v, %v", fin, err)
	}
	if got := srvA.Stats().Peer.Exported; got != 1 {
		t.Fatalf("A exported %d artifacts, want 1", got)
	}

	// A's index must advertise the artifact (this is what routers score on).
	resp, err := http.Get(tsA.URL + "/v1/peer/cache")
	if err != nil {
		t.Fatal(err)
	}
	var idx PeerCacheIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Node != "a" || len(idx.Entries) != 1 {
		t.Fatalf("peer index = %+v, want node a with 1 entry", idx)
	}

	st2, err := cB.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := cB.Wait(ctx, st2.ID, 30*time.Second); err != nil || fin.State != JobDone {
		t.Fatalf("job on B: %+v, %v", fin, err)
	}
	pb := srvB.Stats().Peer
	if pb.PeerWarmStarts != 1 || pb.Misses != 0 {
		t.Fatalf("B peer stats = %+v, want exactly 1 peer warm-start", pb)
	}
	// The fetched artifact was adopted: B can now serve it itself.
	if _, err := srvB.store.GetArtifact(idx.Entries[0].Key); err != nil {
		t.Fatalf("B did not adopt the fetched artifact: %v", err)
	}
}

// slowArtifactStore delays every artifact write, widening the window between
// a job finishing its plan and its artifact becoming visible.
type slowArtifactStore struct{ store.Store }

func (s slowArtifactStore) PutArtifact(key string, blob []byte) error {
	time.Sleep(50 * time.Millisecond)
	return s.Store.PutArtifact(key, blob)
}

// TestArtifactPublishedBeforeDone: once Wait reports done, the job's warm
// artifact must already be listed in /v1/peer/cache, so a router that routes
// the client's next resubmission sees the affinity.
func TestArtifactPublishedBeforeDone(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{Workers: 1, NodeID: "a", Store: slowArtifactStore{store.NewMem()}})
	key, err := WorkloadKey(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, 30*time.Second); err != nil || fin.State != JobDone {
		t.Fatalf("job: %+v, %v", fin, err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/peer/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx PeerCacheIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Entries) != 1 || idx.Entries[0].Key != key {
		t.Fatalf("peer index right after done = %+v, want the job's key %s", idx.Entries, key)
	}
}

// TestRetiredSpecFields covers the spec fields the planner now decides for
// itself (exact, default_order, batch_episodes): a fresh submission that
// still carries one is rejected as bad_request by the strict decoder, while a
// job journaled with all three before they were retired still recovers,
// because recovery decodes stored specs leniently, and plans to done.
func TestRetiredSpecFields(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"vgg19","batch":64,"gpus":4,"exact":true}`))
	if err != nil {
		t.Fatal(err)
	}
	apiErr := decodeError(resp)
	resp.Body.Close()
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("submit with exact = %v, want 400 %s", apiErr, CodeBadRequest)
	}

	mem := store.NewMem()
	if err := mem.PutJob(store.JobRecord{
		ID:          "job-000001",
		Spec:        json.RawMessage(`{"model":"vgg19","batch":64,"gpus":4,"seed":1,"episodes":1,"exact":true,"default_order":true,"batch_episodes":2}`),
		State:       string(JobQueued),
		SubmittedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Config{Workers: 1, Store: mem})
	if err != nil {
		t.Fatalf("Open over a journal with retired spec fields: %v", err)
	}
	defer srv.Close()
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	fin, err := srv.Wait(waitCtx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobDone || !fin.Recovered {
		t.Fatalf("recovered job = %s (recovered %v, %s), want done and recovered", fin.State, fin.Recovered, fin.Error)
	}
}

// TestHealthReady covers the probe pair: healthz is unconditional liveness,
// readyz flips to 503 when the durable store starts failing writes.
func TestHealthReady(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 1})
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}

	// Sever the store: the next persisted transition must trip readiness
	// while liveness (and serving) stay up.
	_ = srv.store.Close()
	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit with failing store: %v", err)
	}
	_, _ = c.Wait(ctx, st.ID, 30*time.Second)
	if err := c.Readyz(ctx); err == nil {
		t.Fatal("readyz ok with failing store, want 503")
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz must stay ok: %v", err)
	}
}

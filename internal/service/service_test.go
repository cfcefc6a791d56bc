package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"heterog/internal/cli"
)

// newTestServer starts a service with its HTTP API on an httptest listener
// and returns the typed client pointed at it. Cleanup closes both.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, NewClient(ts.URL)
}

// quickSpec is a real workload small enough for tests (~0.1s to plan).
func quickSpec() cli.Spec {
	return cli.Spec{Model: "vgg19", Batch: 64, GPUs: 4, Seed: 1, Episodes: 1}
}

// TestE2ESubmitPollReport covers the happy path over real HTTP: submit a
// zoo job, long-poll to done, fetch the report and the Chrome trace.
func TestE2ESubmitPollReport(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	if st.Model != "VGG-19" || st.Devices != 4 {
		t.Fatalf("status (model=%q devices=%d), want VGG-19 on 4 devices", st.Model, st.Devices)
	}

	final, err := c.Wait(ctx, st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != JobDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.PlanSec <= 0 {
		t.Fatalf("PlanSec = %v, want > 0", final.PlanSec)
	}

	rep, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.PerIterationSec <= 0 {
		t.Fatalf("PerIterationSec = %v, want > 0", rep.PerIterationSec)
	}
	if len(rep.Strategy) == 0 || !json.Valid(rep.Strategy) {
		t.Fatalf("strategy missing or invalid JSON (%d bytes)", len(rep.Strategy))
	}
	if rep.Pipeline == nil || rep.Pipeline.Lowerings == 0 {
		t.Fatalf("pipeline report missing: %+v", rep.Pipeline)
	}
	if rep.Warm == nil || rep.Warm.SharedJobs != 1 {
		t.Fatalf("warm stats = %+v, want SharedJobs = 1", rep.Warm)
	}

	var trace bytes.Buffer
	if err := c.Trace(ctx, st.ID, &trace); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !strings.Contains(trace.String(), "traceEvents") {
		t.Fatalf("trace is not Chrome trace-event JSON (%d bytes)", trace.Len())
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job listing = %+v, want just %s", jobs, st.ID)
	}
}

// TestRobustJob exercises the fault-scoring path over the API: report-only
// (faults without robust) and optimized (robust) both attach a RobustReport.
func TestRobustJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	for _, robust := range []bool{false, true} {
		spec := quickSpec()
		spec.FaultK = 2
		spec.FaultSeed = 1
		spec.Robust = robust
		spec.Blend = 0.5
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit(robust=%v): %v", robust, err)
		}
		if final, err := c.Wait(ctx, st.ID, 30*time.Second); err != nil || final.State != JobDone {
			t.Fatalf("wait(robust=%v): state=%v err=%v", robust, final.State, err)
		}
		rep, err := c.Report(ctx, st.ID)
		if err != nil {
			t.Fatalf("report(robust=%v): %v", robust, err)
		}
		if rep.Robust == nil || rep.Robust.Scenarios != 2 || rep.Robust.WorstSec < rep.Robust.NominalSec {
			t.Fatalf("robust report (robust=%v) = %+v", robust, rep.Robust)
		}
	}
}

// TestQueueFullBackpressure fills the queue behind a blocked worker and
// checks the overflow submission is rejected with HTTP 429 + Retry-After,
// while every accepted job still completes after the worker unblocks.
func TestQueueFullBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	release := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	c := NewClient(ts.URL)
	ctx := context.Background()

	// First job occupies the worker, second fills the 1-deep queue.
	var accepted []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, quickSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted = append(accepted, st.ID)
	}
	// Wait until the worker has actually popped job 1, so the queue slot
	// usage is deterministic: worker holds job 1, queue holds job 2.
	waitState(t, srv, accepted[0], JobRunning)

	_, err := c.Submit(ctx, quickSpec())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %v, want HTTP 429", err)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After = %v, want 3s", apiErr.RetryAfter)
	}
	if apiErr.Code != CodeQueueFull {
		// The stable code is what non-Go clients key off.
		t.Fatalf("envelope code = %q, want %q", apiErr.Code, CodeQueueFull)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("429 must round-trip to ErrQueueFull via the envelope, got %v", err)
	}

	close(release)
	for _, id := range accepted {
		if final, err := c.Wait(ctx, id, 30*time.Second); err != nil || final.State != JobDone {
			t.Fatalf("accepted job %s: state=%v err=%v — backpressure must not drop accepted work", id, final.State, err)
		}
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Accepted != 2 {
		t.Fatalf("stats accepted/rejected = %d/%d, want 2/1", st.Accepted, st.Rejected)
	}
}

// waitState polls in-process until the job reaches the wanted state.
func waitState(t *testing.T, srv *Server, id string, want JobState) {
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
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestCancelMidJob cancels a running job (hook parks on ctx) and a queued
// job (worker busy), and checks both reach canceled with the report absent.
func TestCancelMidJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err() // a well-behaved planner surfaces cancellation
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	c := NewClient(ts.URL)
	ctx := context.Background()

	running, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	waitState(t, srv, running.ID, JobRunning)

	// Cancel the queued job first: it must never start.
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st, err := c.Wait(ctx, queued.ID, time.Second); err != nil || st.State != JobCanceled {
		t.Fatalf("queued job after cancel: state=%v err=%v", st.State, err)
	}

	// Cancel the running job: ctx fires inside the hook.
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	st, err := c.Wait(ctx, running.ID, 30*time.Second)
	if err != nil || st.State != JobCanceled {
		t.Fatalf("running job after cancel: state=%v err=%v", st.State, err)
	}
	if st.Error != "canceled by client" {
		t.Fatalf("cancel error = %q", st.Error)
	}

	// No report exists for a canceled job → 409.
	_, err = c.Report(ctx, running.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("report of canceled job: %v, want HTTP 409", err)
	}

	// Cancel is idempotent on terminal jobs.
	if st, err := c.Cancel(ctx, running.ID); err != nil || st.State != JobCanceled {
		t.Fatalf("re-cancel: state=%v err=%v", st.State, err)
	}
	close(release)
}

// TestDrainKeepsAcceptedJobs verifies graceful shutdown: draining refuses
// new work (503 over HTTP) but every job admitted before the drain reaches
// done, none dropped.
func TestDrainKeepsAcceptedJobs(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 16)
	srv.runHook = func(ctx context.Context, j *job) error {
		started <- struct{}{}
		time.Sleep(20 * time.Millisecond) // in-flight work the drain must wait out
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close() })
	c := NewClient(ts.URL)
	ctx := context.Background()

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := c.Submit(ctx, quickSpec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	<-started // at least one job is mid-flight when the drain begins

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, id := range ids {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State != JobDone {
			t.Fatalf("job %s ended %s after drain, want done (accepted jobs must not be dropped)", id, st.State)
		}
	}

	// The drained server refuses new submissions with 503.
	_, err := c.Submit(ctx, quickSpec())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %v, want HTTP 503", err)
	}
}

// TestReplanEndpoint replans a finished job onto a degraded cluster and
// checks the device count shrank and the result is a normal done job.
func TestReplanEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if final, err := c.Wait(ctx, st.ID, 30*time.Second); err != nil || final.State != JobDone {
		t.Fatalf("source job: state=%v err=%v", final.State, err)
	}

	drop := 0
	re, err := c.Replan(ctx, st.ID, ReplanRequest{DropDevice: &drop})
	if err != nil {
		t.Fatalf("replan: %v", err)
	}
	if re.ReplanOf != st.ID {
		t.Fatalf("ReplanOf = %q, want %q", re.ReplanOf, st.ID)
	}
	if final, err := c.Wait(ctx, re.ID, 30*time.Second); err != nil || final.State != JobDone {
		t.Fatalf("replan job: state=%v err=%v", final.State, err)
	}
	rep, err := c.Report(ctx, re.ID)
	if err != nil {
		t.Fatalf("replan report: %v", err)
	}
	if rep.Devices != 3 {
		t.Fatalf("replanned devices = %d, want 3", rep.Devices)
	}
	if rep.PerIterationSec <= 0 {
		t.Fatalf("replanned PerIterationSec = %v", rep.PerIterationSec)
	}

	// Exactly one replan field must be set.
	if _, err := c.Replan(ctx, st.ID, ReplanRequest{}); err == nil {
		t.Fatal("empty replan request accepted")
	}
	// Replanning an unfinished/unknown source fails cleanly.
	var apiErr *APIError
	if _, err := c.Replan(ctx, "job-999999", ReplanRequest{DropDevice: &drop}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("replan of unknown job: %v, want 404", err)
	}
}

// TestHTTPValidation covers the malformed-input surface: bad spec JSON,
// unknown fields, specs that fail validation, unknown job IDs.
func TestHTTPValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	var apiErr *APIError
	if _, err := c.Status(ctx, "job-000042"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("status of unknown job: %v, want 404", err)
	}

	// Spec failing validation: zoo model with no batch.
	if _, err := c.Submit(ctx, cli.Spec{Model: "vgg19", GPUs: 4}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("invalid spec: %v, want 400", err)
	}

	// Unknown fields are rejected, not silently dropped.
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"model":"vgg19","batch":64,"gpus":4,"bogus":1}`))
	if err != nil {
		t.Fatalf("raw post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec: HTTP %d, want 400", resp.StatusCode)
	}

	// Long-poll with a bad wait duration.
	resp2, err := http.Get(c.BaseURL + "/v1/jobs/job-000001?wait=banana")
	if err != nil {
		t.Fatalf("raw get: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait duration: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestPanicIsolation: a panicking job fails alone; the worker survives and
// plans the next job.
func TestPanicIsolation(t *testing.T) {
	srv := New(Config{Workers: 1})
	boom := true
	var mu sync.Mutex
	srv.runHook = func(ctx context.Context, j *job) error {
		mu.Lock()
		b := boom
		boom = false
		mu.Unlock()
		if b {
			panic("synthetic planner crash")
		}
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	c := NewClient(ts.URL)
	ctx := context.Background()

	first, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, first.ID, 30*time.Second)
	if err != nil || st.State != JobFailed {
		t.Fatalf("panicked job: state=%v err=%v, want failed", st.State, err)
	}
	if !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panic error = %q", st.Error)
	}

	second, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if st, err := c.Wait(ctx, second.ID, 30*time.Second); err != nil || st.State != JobDone {
		t.Fatalf("job after panic: state=%v err=%v — worker must survive a panic", st.State, err)
	}
}

// TestReplanWhileSourceFinishes calls Replan from a second goroutine while
// the source job finishes; under -race it pins that Replan reads the
// source's state and runner under the server lock, where run() writes them.
func TestReplanWhileSourceFinishes(t *testing.T) {
	srv := New(Config{Workers: 1})
	release := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		<-release
		return nil
	}
	t.Cleanup(func() { _ = srv.Close() })
	st, err := srv.Submit(quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, srv, st.ID, JobRunning)
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }
	defer halt() // a failed wait must not leave the goroutine spinning
	last := make(chan error, 1)
	go func() {
		for {
			_, err := srv.Replan(st.ID, ReplanRequest{GPUs: 4})
			select {
			case <-stop:
				last <- err
				return
			default:
			}
		}
	}()
	close(release)
	waitState(t, srv, st.ID, JobDone)
	halt()
	// The hook leaves no runner, so even the done source cannot be replanned.
	if err := <-last; !errors.Is(err, ErrNotDone) {
		t.Fatalf("replan of a runner-less source: %v, want ErrNotDone", err)
	}
}

// cacheTotals sums hit counters across every warm set.
type cacheTotals struct {
	evalHits, lowHits uint64
}

func totals(st *ServerStats) cacheTotals {
	var t cacheTotals
	for _, ws := range st.WarmSets {
		t.evalHits += ws.Eval.Hits
		t.lowHits += ws.Lowered.Hits
	}
	return t
}

// TestStressSharedCaches is the -race exhibit: concurrent mixed zoo
// submissions all reach done while sharing warm caches, and a second
// identical batch shows a nonzero shared-cache hit rate.
func TestStressSharedCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real models")
	}
	srv, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	specs := []cli.Spec{
		{Model: "vgg19", Batch: 64, GPUs: 4, Seed: 1, Episodes: 1},
		{Model: "resnet50", Batch: 64, GPUs: 4, Seed: 1, Episodes: 1},
	}
	batch := func(label string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 2*len(specs))
		for rep := 0; rep < 2; rep++ {
			for _, sp := range specs {
				wg.Add(1)
				go func(sp cli.Spec) {
					defer wg.Done()
					st, err := c.Submit(ctx, sp)
					if err != nil {
						errs <- fmt.Errorf("%s submit: %w", label, err)
						return
					}
					final, err := c.Wait(ctx, st.ID, 30*time.Second)
					if err != nil {
						errs <- fmt.Errorf("%s wait %s: %w", label, st.ID, err)
						return
					}
					if final.State != JobDone {
						errs <- fmt.Errorf("%s job %s ended %s (%s)", label, st.ID, final.State, final.Error)
					}
				}(sp)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	batch("wave1")
	mid := totals(srv.Stats())

	batch("wave2")
	end := totals(srv.Stats())

	// The second identical wave must hit the warm state the first built.
	if end.evalHits == mid.evalHits {
		t.Errorf("wave2 added no eval-cache hits, want > 0 (hits %d→%d)", mid.evalHits, end.evalHits)
	}
	// Lowered-artifact hits accrue within a wave (between jobs sharing a
	// warm set); in wave2 the eval cache short-circuits lowering entirely,
	// so assert on the cumulative count.
	if end.lowHits == 0 {
		t.Errorf("lowered-cache hits = 0 over both waves, want > 0")
	}
	// Two workloads → two warm sets, each shared by 4 jobs.
	st := srv.Stats()
	if len(st.WarmSets) != 2 {
		t.Fatalf("warm sets = %d, want 2", len(st.WarmSets))
	}
	for _, ws := range st.WarmSets {
		if ws.Jobs != 4 {
			t.Errorf("warm set %s shared by %d jobs, want 4", ws.Workload, ws.Jobs)
		}
	}
	if st.Done != 8 {
		t.Fatalf("done = %d, want 8", st.Done)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"heterog"
	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/telemetry"
)

// slowdownReading is one device observation at the given compute multiplier.
func slowdownReading(id int, slowdown float64) telemetry.Reading {
	return telemetry.Reading{Device: &telemetry.DeviceReading{ID: id, Slowdown: slowdown}}
}

// planDoneJob submits the quick workload and waits it to done.
func planDoneJob(t *testing.T, c *Client) *JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 30*time.Second)
	if err != nil || final.State != JobDone {
		t.Fatalf("source job ended %+v (err %v), want done", final, err)
	}
	return final
}

// TestTelemetryDriftReplanE2E drives the whole loop over real HTTP: plan,
// push a heavy drift, watch the event log report drift-detected →
// replan-started → a terminal outcome with both makespans, and check the
// automatic replan job rode the normal queue with Auto set.
func TestTelemetryDriftReplanE2E(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	src := planDoneJob(t, c)

	// A healthy reading must not fire.
	ack, err := c.PushTelemetry(ctx, src.ID, []telemetry.Reading{slowdownReading(0, 1.0)})
	if err != nil {
		t.Fatalf("healthy push: %v", err)
	}
	if ack.Fired || ack.Tripped || ack.Observations != 1 {
		t.Fatalf("healthy push ack = %+v, want quiet with 1 observation", ack)
	}

	// A hard throttle of device 0 crosses the trigger band on the first fold
	// (EWMA 1 + 0.3*(3-1) = 1.6 > 1.25).
	ack, err = c.PushTelemetry(ctx, src.ID, []telemetry.Reading{slowdownReading(0, 3.0)})
	if err != nil {
		t.Fatalf("drift push: %v", err)
	}
	if !ack.Fired || !ack.Tripped || ack.Reason == "" {
		t.Fatalf("drift push ack = %+v, want fired with a reason", ack)
	}

	// Long-poll the event log until the episode resolves.
	var events []PlanEvent
	deadline := time.Now().Add(30 * time.Second)
	for {
		evs, err := c.Events(ctx, src.ID, uint64(len(events)), 5*time.Second)
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		events = append(events, evs...)
		if n := len(events); n > 0 {
			typ := events[n-1].Type
			if typ == EventReplanAdopted || typ == EventReplanKeptIncumbent || typ == EventReplanFailed {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift episode never resolved; events so far: %+v", events)
		}
	}

	// The log is dense and ordered: drift-detected, replan-started, outcome.
	for i, ev := range events {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d (gap-free)", i, ev.Seq, i+1)
		}
	}
	if len(events) != 3 {
		t.Fatalf("one episode must log exactly 3 events, got %+v", events)
	}
	if events[0].Type != EventDriftDetected || events[0].Reason == "" {
		t.Fatalf("first event = %+v, want drift-detected with a reason", events[0])
	}
	if events[1].Type != EventReplanStarted || events[1].ReplanJob == "" {
		t.Fatalf("second event = %+v, want replan-started naming the job", events[1])
	}
	last := events[2]
	if last.Type != EventReplanAdopted && last.Type != EventReplanKeptIncumbent {
		t.Fatalf("outcome = %+v, want adopted or kept-incumbent", last)
	}
	if last.OldPerIterSec <= 0 || last.NewPerIterSec <= 0 {
		t.Fatalf("outcome must carry both makespans: %+v", last)
	}
	if last.NewPerIterSec > last.OldPerIterSec {
		t.Fatalf("replanned makespan %v must not exceed the stale plan's %v",
			last.NewPerIterSec, last.OldPerIterSec)
	}

	// The automatic replan is a first-class job: queued normally, marked Auto,
	// chained to the incumbent, planned on the overlaid cluster.
	re, err := c.Status(ctx, last.ReplanJob)
	if err != nil {
		t.Fatalf("replan job status: %v", err)
	}
	if !re.Auto || re.ReplanOf != src.ID || re.State != JobDone {
		t.Fatalf("replan job = %+v, want done auto replan of %s", re, src.ID)
	}
	if re.Cluster == src.Cluster {
		t.Fatalf("replan cluster %q must name the drift overlay", re.Cluster)
	}

	st := srv.Stats()
	if st.Telemetry.DriftEpisodes != 1 || st.Telemetry.AutoReplans != 1 {
		t.Fatalf("telemetry stats = %+v, want 1 episode / 1 replan", st.Telemetry)
	}
	if st.Telemetry.Adopted+st.Telemetry.KeptIncumbent != 1 || st.Telemetry.Failed != 0 {
		t.Fatalf("telemetry outcomes = %+v, want exactly one success", st.Telemetry)
	}

	// Since= filtering returns only the suffix.
	tail, err := c.Events(ctx, src.ID, 2, 0)
	if err != nil || len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("events since 2 = %+v (err %v), want just seq 3", tail, err)
	}
}

// TestTelemetrySeededDriftTrace streams a seeded synthetic drift trace at a
// real plan and checks the online loop pays off: at least one automatic
// replan is adopted and strictly beats the stale plan on the drifted
// cluster, and at least one warm set is shared by two or more jobs with
// evaluation-cache hits, so replans reattach to warm caches.
func TestTelemetrySeededDriftTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real models")
	}
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	// The coarse overlay quantum buckets drift regimes, so episodes whose
	// smoothed state quantizes alike share one warm set.
	st, err := c.Submit(ctx, cli.Spec{
		Model: "vgg19", Batch: 192, GPUs: 8, Seed: 1, Episodes: 4,
		Telemetry: &telemetry.Thresholds{Quantum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, st.ID, 30*time.Second); err != nil || fin.State != JobDone {
		t.Fatalf("source job: %+v, %v", fin, err)
	}

	gen := telemetry.NewGenerator(cluster.Testbed8(), telemetry.GenConfig{Seed: 7})
	var seen uint64
	episodes, adopted := 0, 0
	for !gen.Done() {
		ack, err := c.PushTelemetry(ctx, st.ID, gen.Step())
		if err != nil {
			t.Fatalf("push tick %d: %v", gen.Tick(), err)
		}
		if !ack.Fired {
			continue
		}
		// Block until the episode resolves so the trace pacing stays
		// deterministic.
		episodes++
		deadline := time.Now().Add(2 * time.Minute)
	episode:
		for {
			evs, err := c.Events(ctx, st.ID, seen, 10*time.Second)
			if err != nil {
				t.Fatalf("events: %v", err)
			}
			for _, ev := range evs {
				seen = ev.Seq
				switch ev.Type {
				case EventReplanAdopted:
					if ev.NewPerIterSec < ev.OldPerIterSec {
						adopted++
					}
					break episode
				case EventReplanKeptIncumbent, EventReplanFailed:
					break episode
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("episode at tick %d never resolved", gen.Tick())
			}
		}
	}

	shared := 0
	for _, ws := range srv.Stats().WarmSets {
		if ws.Jobs >= 2 && ws.Eval.Hits > 0 {
			shared++
		}
	}
	t.Logf("%d drift episodes, %d replans adopted beating the stale plan, %d shared warm sets", episodes, adopted, shared)
	if adopted == 0 {
		t.Errorf("no adopted replan strictly beat the stale plan (%d episodes)", episodes)
	}
	if shared == 0 {
		t.Errorf("no warm set was shared across jobs with eval hits; replans did not reattach to warm caches")
	}
}

// TestTelemetryOscillationBelowBandNeverReplans pushes readings that
// oscillate inside the hysteresis band: the watcher must stay quiet and no
// replan may ever start.
func TestTelemetryOscillationBelowBandNeverReplans(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	src := planDoneJob(t, c)

	for i := 0; i < 40; i++ {
		v := 1.18 // below the 1.25 trigger even if held forever
		if i%2 == 1 {
			v = 1.0
		}
		ack, err := c.PushTelemetry(ctx, src.ID, []telemetry.Reading{
			slowdownReading(0, v), slowdownReading(1, v),
		})
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if ack.Fired || ack.Tripped {
			t.Fatalf("push %d fired (%+v) though the oscillation stays below the band", i, ack)
		}
	}
	evs, err := c.Events(ctx, src.ID, 0, 0)
	if err != nil || len(evs) != 0 {
		t.Fatalf("events = %+v (err %v), want none", evs, err)
	}
	if st := srv.Stats(); st.Telemetry.DriftEpisodes != 0 || st.Telemetry.AutoReplans != 0 {
		t.Fatalf("telemetry stats = %+v, want no episodes", st.Telemetry)
	}
}

// TestTelemetryStepChangeFiresOnce holds a step change steady while the
// automatic replan is pinned in flight: the tripped watcher must absorb every
// further push (no second episode, no second replan), and a replan that
// cannot produce a plan resolves the episode as replan-failed and re-arms
// the loop.
func TestTelemetryStepChangeFiresOnce(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	src := planDoneJob(t, c)

	// Pin the auto-replan in the worker until released; returning nil without
	// a runner resolves the episode through the failure path.
	release := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error {
		<-release
		return nil
	}

	ack, err := c.PushTelemetry(ctx, src.ID, []telemetry.Reading{slowdownReading(0, 3.0)})
	if err != nil || !ack.Fired {
		t.Fatalf("step push ack = %+v (err %v), want fired", ack, err)
	}
	for i := 0; i < 10; i++ {
		ack, err := c.PushTelemetry(ctx, src.ID, []telemetry.Reading{slowdownReading(0, 3.0)})
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if ack.Fired {
			t.Fatalf("push %d re-fired while tripped; the step must trip exactly once", i)
		}
		if !ack.Tripped {
			t.Fatalf("push %d: watcher lost its trip state", i)
		}
	}
	close(release)

	evs, err := c.Events(ctx, src.ID, 1, 25*time.Second) // wait past drift-detected
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	for len(evs) < 2 {
		more, err := c.Events(ctx, src.ID, uint64(len(evs))+1, 25*time.Second)
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		if len(more) == 0 {
			t.Fatalf("episode never resolved; events past first: %+v", evs)
		}
		evs = append(evs, more...)
	}
	if evs[0].Type != EventReplanStarted || evs[1].Type != EventReplanFailed {
		t.Fatalf("events after drift-detected = %+v, want started then failed", evs)
	}
	all, err := c.Events(ctx, src.ID, 0, 0)
	if err != nil || len(all) != 3 {
		t.Fatalf("full log = %+v (err %v), want exactly one 3-event episode", all, err)
	}
	if st := srv.Stats(); st.Telemetry.DriftEpisodes != 1 || st.Telemetry.Failed != 1 {
		t.Fatalf("telemetry stats = %+v, want 1 episode resolved as failed", st.Telemetry)
	}
}

// TestTelemetryConcurrentPushesGapFreeSeq hammers one job's monitor from many
// goroutines and checks the event log stays densely sequenced and every
// episode resolves — the -race run of this package leans on this test.
func TestTelemetryConcurrentPushesGapFreeSeq(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	src := planDoneJob(t, c)

	// Instant replans (via the failure path) keep the test fast while still
	// cycling trip → replan → rebase under concurrent pushes.
	srv.runHook = func(ctx context.Context, j *job) error { return nil }

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := 2.0
				if g%2 == 1 {
					v = 1.0 // recovery pressure from half the pushers
				}
				if _, err := c.PushTelemetry(ctx, src.ID, []telemetry.Reading{
					slowdownReading(g%4, v),
				}); err != nil {
					t.Errorf("pusher %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Wait for in-flight episodes to resolve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Telemetry.DriftEpisodes == st.Telemetry.AutoReplans {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("episodes never drained: %+v", st.Telemetry)
		}
		time.Sleep(20 * time.Millisecond)
	}

	evs, err := c.Events(ctx, src.ID, 0, 0)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var detected, started, resolved uint64
	for i, ev := range evs {
		if ev.Seq != uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d (gap-free)", i, ev.Seq, i+1)
		}
		switch ev.Type {
		case EventDriftDetected:
			detected++
		case EventReplanStarted:
			started++
		case EventReplanAdopted, EventReplanKeptIncumbent, EventReplanFailed:
			resolved++
		}
	}
	if detected == 0 {
		t.Fatal("a 2x step from 4 pushers must trip at least one episode")
	}
	if detected != resolved {
		t.Fatalf("%d episodes detected but %d resolved: %+v", detected, resolved, evs)
	}
	st := srv.Stats()
	if st.Telemetry.DriftEpisodes != detected || st.Telemetry.AutoReplans != resolved {
		t.Fatalf("stats %+v disagree with the log (%d detected / %d resolved)",
			st.Telemetry, detected, resolved)
	}
}

// TestErrorEnvelopeRoundTrip checks every typed error crosses the wire as a
// stable envelope code that the client maps back so errors.Is keeps working.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	assertCode := func(err error, sentinel error, code string, status int) {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err %v is not an APIError", err)
		}
		if apiErr.Code != code || apiErr.Status != status {
			t.Fatalf("envelope = %q/%d, want %q/%d (%v)", apiErr.Code, apiErr.Status, code, status, err)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("errors.Is must hold for %v after the wire round-trip, got %v", sentinel, err)
		}
	}

	// not_found / 404.
	_, err := c.Status(ctx, "job-999999")
	assertCode(err, ErrNotFound, CodeNotFound, http.StatusNotFound)
	_, err = c.PushTelemetry(ctx, "job-999999", []telemetry.Reading{slowdownReading(0, 2)})
	assertCode(err, ErrNotFound, CodeNotFound, http.StatusNotFound)
	_, err = c.Events(ctx, "job-999999", 0, 0)
	assertCode(err, ErrNotFound, CodeNotFound, http.StatusNotFound)

	// not_done / 409: artifacts and telemetry against an unfinished job.
	release := make(chan struct{})
	srv.runHook = func(ctx context.Context, j *job) error { <-release; return nil }
	st, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, srv, st.ID, JobRunning)
	_, err = c.Report(ctx, st.ID)
	assertCode(err, ErrNotDone, CodeNotDone, http.StatusConflict)
	_, err = c.PushTelemetry(ctx, st.ID, []telemetry.Reading{slowdownReading(0, 2)})
	assertCode(err, ErrNotDone, CodeNotDone, http.StatusConflict)

	// Let the pinned job finish before swapping the hook: the worker reads
	// the hook field, so the swap must be ordered after its job completes.
	close(release)
	waitState(t, srv, st.ID, JobDone)

	// oom / 422: a failed job's artifact surfaces the typed planning cause,
	// still wrapped in not-done so in-process callers see both.
	srv.runHook = func(ctx context.Context, j *job) error {
		return fmt.Errorf("planning: %w", heterog.ErrOOM)
	}
	oomSt, err := c.Submit(ctx, quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, srv, oomSt.ID, JobFailed)
	_, err = c.Report(ctx, oomSt.ID)
	assertCode(err, ErrOOM, CodeOOM, http.StatusUnprocessableEntity)

	// bad_request / 400 has no sentinel; the code still arrives.
	_, err = c.Submit(ctx, cli.Spec{Model: "vgg19", GPUs: 4}) // batchless zoo model
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("invalid spec: %v, want bad_request/400", err)
	}

	// draining / 503.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err = c.Submit(ctx, quickSpec())
	assertCode(err, ErrDraining, CodeDraining, http.StatusServiceUnavailable)
}

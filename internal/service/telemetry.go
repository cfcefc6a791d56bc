package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"heterog"
	"heterog/internal/telemetry"
)

// This file closes the paper's planning loop online: clients push device/link
// observations at a finished job, a per-job monitor smooths them through the
// telemetry watcher's hysteresis bands, and a detected drift episode fires the
// warm-agent Replan path automatically — through the same bounded queue,
// worker pool and warm-cache registry as any client-submitted job. Every step
// is recorded on a monotonically-sequenced per-job event log that clients
// long-poll via GET /v1/jobs/{id}/events.
//
// The loop per drift episode:
//
//	telemetry push → watcher trips        → drift-detected
//	overlay rendered, replan job admitted → replan-started
//	replan finishes, beats the stale plan → replan-adopted (old/new makespan)
//	             ... or fails to beat it  → replan-kept-incumbent
//	             ... or errors/cancels    → replan-failed
//	watcher rebases onto the drifted state and re-arms
//
// Replans are warm-path cheap twice over: the replan job reuses the
// incumbent runner's strategy-search agent (weights, baselines, encoder
// cache), and its warm-cache registry key is the fingerprint of the *overlaid*
// cluster — the watcher quantizes overlay factors, so equal drift regimes map
// to the same warm set, and a recovered cluster reattaches to the original
// workload's caches.

// EventType names one entry kind in a job's plan-update event log.
type EventType string

const (
	// EventDriftDetected: the watcher's smoothed state left the hysteresis
	// band around the incumbent plan's baseline.
	EventDriftDetected EventType = "drift-detected"
	// EventReplanStarted: an automatic replan job was admitted for the
	// drifted cluster.
	EventReplanStarted EventType = "replan-started"
	// EventReplanAdopted: the replan strictly beats the stale plan on the
	// drifted cluster; OldPerIterSec/NewPerIterSec carry both makespans.
	EventReplanAdopted EventType = "replan-adopted"
	// EventReplanKeptIncumbent: the stale plan is still (at least tied for)
	// the best the search found on the drifted cluster.
	EventReplanKeptIncumbent EventType = "replan-kept-incumbent"
	// EventReplanFailed: the automatic replan could not run (admission
	// failed, planning errored, job canceled); the watcher still rebases so
	// the next drift re-arms the loop.
	EventReplanFailed EventType = "replan-failed"

	// EventLeaseGranted: the fleet allocator granted the job its first lease
	// (fleet mode); Lease/LeaseDevices/Cluster describe the grant.
	EventLeaseGranted EventType = "lease-granted"
	// EventLeaseResized: the allocator replaced the job's lease with a
	// grown or shrunken one while the job was still queued; Reason says which
	// way and why.
	EventLeaseResized EventType = "lease-resized"
	// EventLeaseReleased: the job reached a terminal state and its devices
	// went back to the fleet; Reason carries the terminal state.
	EventLeaseReleased EventType = "lease-released"

	// EventJobRecovered: the server restarted and re-queued this job from its
	// durable store; planning starts over. The event continues the job's
	// pre-crash sequence numbering, so restarts are visible on the log itself.
	EventJobRecovered EventType = "job-recovered"
)

// PlanEvent is one entry of a job's plan-update log. Seq is monotonically
// increasing and gap-free per job, starting at 1 — a client that long-polls
// with ?since=<last seen seq> never misses or double-sees an event.
type PlanEvent struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// Reason is the watcher's trip message (drift-detected) or the failure
	// message (replan-failed).
	Reason string `json:"reason,omitempty"`
	// ReplanJob is the ID of the automatic replan job (replan-* events).
	ReplanJob string `json:"replan_job,omitempty"`
	// Cluster names the overlaid cluster the replan targeted, or the lease
	// view's canonical shape on lease-* events.
	Cluster string `json:"cluster,omitempty"`
	// Lease and LeaseDevices identify the fleet lease on lease-* events.
	Lease        string `json:"lease,omitempty"`
	LeaseDevices int    `json:"lease_devices,omitempty"`
	// OldPerIterSec is the stale (incumbent) plan's per-iteration time on the
	// drifted cluster; NewPerIterSec is the replanned plan's. Set on
	// replan-adopted and replan-kept-incumbent.
	OldPerIterSec float64 `json:"old_per_iter_sec,omitempty"`
	NewPerIterSec float64 `json:"new_per_iter_sec,omitempty"`
}

// TelemetryAck is the response to one telemetry push.
type TelemetryAck struct {
	// Observations is the watcher's cumulative accepted-reading count
	// (malformed readings are skipped and not counted).
	Observations uint64 `json:"observations"`
	// Fired reports whether this push newly tripped a drift episode.
	Fired bool `json:"fired"`
	// Tripped reports whether a drift episode is in progress.
	Tripped bool `json:"tripped"`
	// Reason is the current episode's trip message, if any.
	Reason string `json:"reason,omitempty"`
	// Events is the job's event-log length; poll /events?since= from here.
	Events uint64 `json:"events"`
}

// TelemetryStats aggregates the telemetry loop across all jobs, in /v1/stats.
type TelemetryStats struct {
	Observations  uint64 `json:"observations"`
	DriftEpisodes uint64 `json:"drift_episodes"`
	AutoReplans   uint64 `json:"auto_replans"`
	Adopted       uint64 `json:"replans_adopted"`
	KeptIncumbent uint64 `json:"replans_kept_incumbent"`
	Failed        uint64 `json:"replans_failed"`
}

// monitor is one job's telemetry state: the drift watcher, the event log and
// the replan-in-flight flag. Its own mutex serializes watcher access and
// event appends, so concurrent telemetry pushes interleave safely without
// holding the server lock; notify is closed and replaced on every append to
// wake long-pollers.
type monitor struct {
	mu      sync.Mutex
	watcher *telemetry.Watcher
	events  []PlanEvent
	notify  chan struct{}
	// replanning guards the one-replan-at-a-time invariant; the watcher's
	// trip state enforces it too (no re-fires while tripped), this flag makes
	// it explicit.
	replanning bool
	// incumbent is the job whose runner holds the current plan: the source
	// job at first, then each finished auto-replan job (its agent is warm for
	// the latest cluster, so the next episode replans from it).
	incumbent string
	// onAppend, when set, persists each event as it is appended (under m.mu;
	// it must not take the server lock). Events restored from the store are
	// installed directly into events and never re-fire it.
	onAppend func(PlanEvent)
}

func newMonitor(w *telemetry.Watcher, incumbent string) *monitor {
	return &monitor{watcher: w, notify: make(chan struct{}), incumbent: incumbent}
}

// appendLocked stamps the next gap-free sequence number and wakes pollers.
// Callers hold m.mu.
func (m *monitor) appendLocked(now time.Time, ev PlanEvent) {
	ev.Seq = uint64(len(m.events)) + 1
	ev.Time = now
	m.events = append(m.events, ev)
	if m.onAppend != nil {
		m.onAppend(ev)
	}
	close(m.notify)
	m.notify = make(chan struct{})
}

// append is appendLocked for callers not holding m.mu.
func (m *monitor) append(now time.Time, ev PlanEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appendLocked(now, ev)
}

// PushTelemetry folds observations into a finished job's drift monitor,
// creating the monitor (with the job's thresholds from the spec's telemetry
// knob, package defaults otherwise) on first push. A push that trips the
// watcher appends a drift-detected event and fires the automatic replan
// goroutine for the overlaid cluster.
func (s *Server) PushTelemetry(id string, readings []telemetry.Reading) (*TelemetryAck, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != JobDone || j.runner == nil {
		st, rec := j.state, j.recovered && j.state == JobDone
		s.mu.Unlock()
		if rec {
			return nil, fmt.Errorf("%w: %s predates a server restart; its runner is gone, submit a fresh job to monitor", ErrNotDone, id)
		}
		return nil, fmt.Errorf("%w: telemetry needs a done job, %s is %s", ErrNotDone, id, st)
	}
	// The monitor exists from admission, but the drift watcher needs the
	// runner, so the first push attaches it. Lock ordering s.mu → mon.mu,
	// consistent with fleetEventLocked.
	mon := j.mon
	mon.mu.Lock()
	if mon.watcher == nil {
		w, err := j.runner.Watcher()
		if err != nil {
			mon.mu.Unlock()
			s.mu.Unlock()
			return nil, err
		}
		mon.watcher = w
	}
	mon.mu.Unlock()
	now := s.now()
	s.mu.Unlock()

	mon.mu.Lock()
	before := mon.watcher.Observations()
	fired, reason := mon.watcher.Observe(j.cluster.Cluster, readings...)
	accepted := mon.watcher.Observations() - before
	if fired {
		mon.appendLocked(now, PlanEvent{Type: EventDriftDetected, Reason: reason})
		if !mon.replanning {
			mon.replanning = true
			go s.autoReplan(j, mon)
		}
	}
	ack := &TelemetryAck{
		Observations: mon.watcher.Observations(),
		Fired:        fired,
		Tripped:      mon.watcher.Tripped(),
		Reason:       mon.watcher.Reason(),
		Events:       uint64(len(mon.events)),
	}
	mon.mu.Unlock()

	s.mu.Lock()
	s.telemetry.Observations += accepted
	if fired {
		s.telemetry.DriftEpisodes++
	}
	s.mu.Unlock()
	return ack, nil
}

// autoReplan runs one drift episode end to end: render the watcher's overlay
// onto the source job's nominal cluster, admit a replan job from the
// incumbent runner through the normal queue (retrying briefly through
// backpressure), wait it out, classify the outcome against the stale plan,
// and rebase the watcher so the loop re-arms.
func (s *Server) autoReplan(src *job, mon *monitor) {
	mon.mu.Lock()
	overlay := mon.watcher.Overlay()
	incumbentID := mon.incumbent
	mon.mu.Unlock()

	// Observations are absolute (deviation from nominal), so the overlay
	// always applies to the source job's nominal cluster — not to the last
	// replan's already-overlaid one.
	drifted := src.cluster.ApplyObservations(overlay)

	fail := func(reason string) {
		s.mu.Lock()
		s.telemetry.AutoReplans++
		s.telemetry.Failed++
		now := s.now()
		s.mu.Unlock()
		mon.mu.Lock()
		// Rebase anyway: the episode is spent, and re-arming against the
		// drifted state lets the next drift trigger a fresh attempt instead
		// of wedging the loop tripped forever.
		mon.watcher.Rebase()
		mon.appendLocked(now, PlanEvent{Type: EventReplanFailed, Reason: reason, Cluster: drifted.Name})
		mon.replanning = false
		mon.mu.Unlock()
	}

	re := replanJob(src.spec, src.runner, drifted, incumbentID)
	re.auto = true

	var err error
	for attempt := 0; ; attempt++ {
		_, err = s.admit(re)
		if err == nil || !errors.Is(err, ErrQueueFull) || attempt >= 4 {
			break
		}
		time.Sleep(s.cfg.RetryAfter)
	}
	if err != nil {
		fail(fmt.Sprintf("admit replan: %v", err))
		return
	}

	s.mu.Lock()
	now := s.now()
	s.mu.Unlock()
	mon.append(now, PlanEvent{Type: EventReplanStarted, ReplanJob: re.id, Cluster: drifted.Name})

	<-re.done

	s.mu.Lock()
	state, errMsg := re.state, re.err
	reRunner := re.runner
	var incRunner *heterog.Runner
	if inc := s.jobs[incumbentID]; inc != nil {
		incRunner = inc.runner
	}
	s.mu.Unlock()
	if state != JobDone || reRunner == nil {
		fail(fmt.Sprintf("replan job %s ended %s: %s", re.id, state, errMsg))
		return
	}
	if incRunner == nil {
		fail(fmt.Sprintf("incumbent job %s evicted during replan", incumbentID))
		return
	}

	// The stale plan's makespan on the drifted cluster: re-scoring the
	// incumbent strategy through the replan runner's evaluator is a warm
	// cache hit — Replan already evaluated it to decide whether to keep it.
	newPerIter := reRunner.Plan.PerIter
	oldPerIter := newPerIter
	if stale, evalErr := reRunner.Evaluate(incRunner.Strategy); evalErr == nil {
		oldPerIter = stale.PerIter
	}
	typ := EventReplanKeptIncumbent
	if newPerIter < oldPerIter {
		typ = EventReplanAdopted
	}

	s.mu.Lock()
	s.telemetry.AutoReplans++
	if typ == EventReplanAdopted {
		s.telemetry.Adopted++
	} else {
		s.telemetry.KeptIncumbent++
	}
	now = s.now()
	s.mu.Unlock()

	mon.mu.Lock()
	mon.watcher.Rebase()
	mon.incumbent = re.id
	mon.appendLocked(now, PlanEvent{
		Type: typ, ReplanJob: re.id, Cluster: drifted.Name,
		OldPerIterSec: oldPerIter, NewPerIterSec: newPerIter,
	})
	mon.replanning = false
	mon.mu.Unlock()
}

// Events returns a job's plan-update events with Seq > since, without
// blocking. A job that never logged an event has an empty log.
func (s *Server) Events(id string, since uint64) ([]PlanEvent, error) {
	mon, err := s.monitorOf(id)
	if err != nil {
		return nil, err
	}
	mon.mu.Lock()
	defer mon.mu.Unlock()
	return eventsAfter(mon.events, since), nil
}

// WaitEvents long-polls: it returns as soon as the job has events with
// Seq > since, or an empty slice once ctx fires (a fired deadline is not an
// error, matching the job-status long-poll).
func (s *Server) WaitEvents(ctx context.Context, id string, since uint64) ([]PlanEvent, error) {
	mon, err := s.monitorOf(id)
	if err != nil {
		return nil, err
	}
	for {
		mon.mu.Lock()
		evs, notify := eventsAfter(mon.events, since), mon.notify
		mon.mu.Unlock()
		if len(evs) > 0 {
			return evs, nil
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return []PlanEvent{}, nil
		}
	}
}

// monitorOf resolves a job's monitor.
func (s *Server) monitorOf(id string) (*monitor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return j.mon, nil
}

// eventsAfter copies the suffix with Seq > since. Seqs are dense (Seq == index
// + 1), so the suffix starts at index since.
func eventsAfter(events []PlanEvent, since uint64) []PlanEvent {
	if since >= uint64(len(events)) {
		return []PlanEvent{}
	}
	return append([]PlanEvent(nil), events[since:]...)
}

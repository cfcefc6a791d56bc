package service

// Durable mode: every job admission, state transition, plan-update event and
// fleet-lease grant is written through the configured store (internal/store),
// and New replays the store on startup so a crashed or killed server resumes
// where it stopped:
//
//   - terminal jobs (done/failed/canceled) are restored with their reports —
//     GET /v1/jobs/{id}/report works across a restart; only the in-memory
//     runner is gone, so traces, replans and telemetry against pre-restart
//     jobs report not-done with a "predates restart" cause;
//   - queued, running and waiting jobs are re-queued: planning restarts from
//     scratch (the service never acknowledged a result for them). Each spec
//     is resolved and placed exactly like a fresh submission, so a fleet job
//     asks the allocator for a fresh lease (Lease.Seq resolves any races,
//     exactly as live resizes do);
//   - each job's event log resumes gap-free: recovered events keep their
//     sequence numbers and new appends continue the dense numbering, so a
//     client long-polling /events?since=N across the restart misses nothing.
//     Every re-queued job logs a job-recovered event first, making restarts
//     observable on the log itself.
//
// Store writes are synchronous (the file backend fsyncs per append) but off
// the planning hot path — a handful of small records per job. A failed store
// write does not kill the serving path; it trips the readiness probe
// (GET /v1/readyz answers 503) so an orchestrator can restart the replica
// before unpersisted state accumulates.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"heterog/internal/store"
)

// RecoveryStats reports what New replayed from the store, in /v1/stats.
type RecoveryStats struct {
	// Jobs is the number of job records recovered (all states).
	Jobs int `json:"jobs,omitempty"`
	// Requeued counts recovered jobs that were re-queued for planning
	// (queued, running or waiting at crash time).
	Requeued int `json:"requeued,omitempty"`
	// Unresolvable counts recovered non-terminal jobs whose spec no longer
	// resolved (marked failed rather than dropped).
	Unresolvable int `json:"unresolvable,omitempty"`
	// Events is the total number of plan-update events restored.
	Events int `json:"events,omitempty"`
	// Sec is the wall-clock recovery time (store load + replay + requeue).
	Sec float64 `json:"sec,omitempty"`
}

// persistFail records a store-write failure. The server keeps serving —
// losing durability is better than losing availability — but readiness goes
// false so orchestrators stop routing new work here.
func (s *Server) persistFail(err error) {
	s.persistMu.Lock()
	s.persistErr = err
	s.persistMu.Unlock()
}

// persistHealth returns the last store failure (nil when healthy).
func (s *Server) persistHealth() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.persistErr
}

// record renders a job's durable form. Callers hold s.mu.
func (s *Server) recordLocked(j *job) store.JobRecord {
	rec := store.JobRecord{
		ID:          j.id,
		State:       string(j.state),
		Model:       j.model,
		Batch:       j.batch,
		ReplanOf:    j.replanOf,
		Auto:        j.auto,
		Recovered:   j.recovered,
		Error:       j.err,
		SubmittedAt: j.submitted,
	}
	if raw, err := json.Marshal(j.spec); err == nil {
		rec.Spec = raw
	}
	if j.cluster != nil {
		rec.Cluster = j.cluster.Name
		rec.Devices = j.cluster.NumDevices()
	} else {
		rec.Cluster, rec.Devices = j.clusterName, j.clusterDevices
	}
	if !j.started.IsZero() {
		t := j.started
		rec.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		rec.FinishedAt = &t
	}
	if j.failure != nil {
		code, _ := codeOf(j.failure)
		rec.FailCode = code
	}
	if j.report != nil {
		if raw, err := json.Marshal(j.report); err == nil {
			rec.Report = raw
		}
	} else {
		rec.Report = j.reportRaw
	}
	return rec
}

// persistJobLocked writes a job's current record through the store. Callers
// hold s.mu.
func (s *Server) persistJobLocked(j *job) {
	if err := s.store.PutJob(s.recordLocked(j)); err != nil {
		s.persistFail(fmt.Errorf("persist job %s: %w", j.id, err))
	}
}

// persistEvent appends one plan-update event to the store. Called from the
// monitor's append hook (under mon.mu, sometimes also under s.mu), so it must
// not take s.mu.
func (s *Server) persistEvent(jobID string, ev PlanEvent) {
	raw, err := json.Marshal(ev)
	if err != nil {
		s.persistFail(fmt.Errorf("encode event for %s: %w", jobID, err))
		return
	}
	if err := s.store.AppendEvent(jobID, store.EventRecord{Seq: ev.Seq, Payload: raw}); err != nil {
		s.persistFail(fmt.Errorf("persist event %d for %s: %w", ev.Seq, jobID, err))
	}
}

// persistLease writes a lease grant or release trail record.
func (s *Server) persistLease(rec store.LeaseRecord) {
	if err := s.store.PutLease(rec); err != nil {
		s.persistFail(fmt.Errorf("persist lease for %s: %w", rec.Job, err))
	}
}

// newJobMonitor builds a job's event monitor wired to persistence.
func (s *Server) newJobMonitor(jobID string) *monitor {
	m := newMonitor(nil, jobID)
	m.onAppend = func(ev PlanEvent) { s.persistEvent(jobID, ev) }
	return m
}

// parseJobCounter extracts the numeric counter from a job ID of either form
// ("job-000123" or "<node>-job-000123"); recovery seeds nextID past the max.
func parseJobCounter(id string) (uint64, bool) {
	i := strings.LastIndex(id, "job-")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(id[i+len("job-"):], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover replays the store snapshot into the server's job table, returning
// the jobs that were not finished at crash time. Each is resolved through the
// same spec step as Submit, and Open places it like a fresh submission.
// Called from Open before the queue exists and before any worker runs, so no
// locking is needed yet.
func (s *Server) recover(snap *store.Snapshot) (pending []*job, err error) {
	start := time.Now()
	for _, rec := range snap.Jobs {
		j, err := s.recoverJob(rec, snap.Events[rec.ID])
		if err != nil {
			return nil, err
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n, ok := parseJobCounter(j.id); ok && n > s.nextID {
			s.nextID = n
		}
		s.recovery.Jobs++
		if j.state.Terminal() {
			continue
		}
		// Non-terminal at crash time: plan again from scratch. A spec that no
		// longer resolves fails the job; recovery never silently drops an
		// accepted job.
		g, c, rErr := s.resolve(&j.spec)
		if rErr != nil {
			s.recovery.Unresolvable++
			s.finishLocked(j, JobFailed, fmt.Sprintf("recovery: %v", rErr), rErr)
			continue
		}
		j.graph, j.cluster = g, c
		j.model, j.batch = g.Name, g.BatchSize
		pending = append(pending, j)
		s.recovery.Requeued++
	}
	for id, evs := range snap.Events {
		if s.jobs[id] == nil {
			continue // events for a job evicted before the crash; not restored
		}
		s.recovery.Events += len(evs)
	}
	s.recovery.Sec = time.Since(start).Seconds()
	return pending, nil
}

// recoverJob converts one durable record back into a job with its monitor,
// reattaching its event log. Terminal jobs come back complete (report
// included); non-terminal ones come back as shells the caller re-queues.
func (s *Server) recoverJob(rec store.JobRecord, events []store.EventRecord) (*job, error) {
	j := &job{
		id:        rec.ID,
		state:     JobState(rec.State),
		model:     rec.Model,
		batch:     rec.Batch,
		replanOf:  rec.ReplanOf,
		auto:      rec.Auto,
		recovered: true,
		err:       rec.Error,
		submitted: rec.SubmittedAt,
		done:      make(chan struct{}),
		mon:       s.newJobMonitor(rec.ID),
	}
	if len(rec.Spec) > 0 {
		if err := json.Unmarshal(rec.Spec, &j.spec); err != nil {
			return nil, fmt.Errorf("service: recover %s: decode spec: %w", rec.ID, err)
		}
	}
	if rec.StartedAt != nil {
		j.started = *rec.StartedAt
	}
	if rec.FinishedAt != nil {
		j.finished = *rec.FinishedAt
	}
	if rec.FailCode != "" {
		j.failure = codeSentinels[rec.FailCode]
	}
	j.clusterName, j.clusterDevices = rec.Cluster, rec.Devices
	if len(events) > 0 {
		if err := store.ValidateEventLog(rec.ID, events); err != nil {
			return nil, err
		}
		j.mon.events = make([]PlanEvent, 0, len(events))
		for _, er := range events {
			var ev PlanEvent
			if err := json.Unmarshal(er.Payload, &ev); err != nil {
				return nil, fmt.Errorf("service: recover %s: decode event %d: %w", rec.ID, er.Seq, err)
			}
			j.mon.events = append(j.mon.events, ev)
		}
	}
	if j.state.Terminal() {
		j.reportRaw = rec.Report
		close(j.done)
	}
	return j, nil
}

// decodeReport decodes a recovered job's durable report on first use.
// Callers hold s.mu.
func (j *job) decodeReport() error {
	if j.report != nil || len(j.reportRaw) == 0 {
		return nil
	}
	var rep PlanReport
	if err := json.Unmarshal(j.reportRaw, &rep); err != nil {
		return fmt.Errorf("service: decode recovered report of %s: %w", j.id, err)
	}
	j.report, j.reportRaw = &rep, nil
	return nil
}

package service

// Fleet mode: instead of every job describing its own cluster, the server
// owns one heterogeneous fleet and a fleet.Allocator partitions it into
// leases, one per admitted job. Submit validates only the workload half of
// the spec (the GPUs field caps the lease size rather than naming a
// testbed), acquires a lease through the allocator — possibly shrinking
// elastic incumbents to make room — and the job plans against its lease view
// exactly like a dedicated-cluster job, through the same queue, worker pool
// and warm-cache registry. Identical-shaped leases share warm sets for free:
// ViewOf names views canonically by shape, and the workload fingerprint
// never sees fleet device identities.
//
// Lease lifecycle against the job lifecycle:
//
//	submit  → waiting (no capacity yet) or queued (lease granted)
//	queued  → lease may still be resized by the allocator (grown when a job
//	          finishes, shrunk to admit an arrival); the job just swaps views
//	running → the lease is pinned: a plan in progress is never resized under
//	          the worker planning it
//	terminal (done/failed/canceled) → the lease is released and the freed
//	          servers rebalance: waiting jobs admit first, incumbents grow
//	          onto the rest
//
// Every grant and release is recorded on the owning job's plan-update event
// log (lease-granted / lease-resized / lease-released), the same log the
// telemetry monitor writes drift events to.

import (
	"fmt"

	"heterog/internal/cluster"
	"heterog/internal/fleet"
	"heterog/internal/store"
)

// FleetStatus is the wire representation of GET /v1/fleet: the allocator's
// partition snapshot plus the job states behind it.
type FleetStatus struct {
	fleet.State
	// JobStates maps every lease-holding or waiting job to its lifecycle
	// state, so one call shows which leases back running plans vs queued ones.
	JobStates map[string]JobState `json:"job_states,omitempty"`
}

// Fleet snapshots the fleet partition. ErrNotFound when the server does not
// run in fleet mode.
func (s *Server) Fleet() (*FleetStatus, error) {
	if s.fleetAlloc == nil {
		return nil, fmt.Errorf("%w: server does not run in fleet mode", ErrNotFound)
	}
	st := &FleetStatus{State: s.fleetAlloc.Snapshot(), JobStates: map[string]JobState{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, li := range st.Leases {
		if j := s.jobs[li.Job]; j != nil {
			st.JobStates[li.Job] = j.state
		}
	}
	for _, id := range st.Waiting {
		if j := s.jobs[id]; j != nil {
			st.JobStates[id] = j.state
		}
	}
	return st, nil
}

// requestLease asks the allocator for a lease for a waiting job (spec.GPUs
// caps the lease size; 0 = no cap) and applies whatever grants fall out: the
// job's own admission and any resizes of elastic incumbents that made room
// for it.
func (s *Server) requestLease(j *job) (*JobStatus, error) {
	seed := j.spec.Seed
	if seed == 0 {
		seed = 1
	}
	grants, err := s.fleetAlloc.Submit(fleet.JobSpec{
		ID:         j.id,
		Graph:      j.graph,
		Seed:       seed,
		MaxDevices: j.spec.GPUs,
	})
	if err != nil {
		s.mu.Lock()
		s.finishLocked(j, JobFailed, err.Error(), err) // holds no lease: no grants
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, err
	}
	s.applyGrants(grants)
	return s.Status(j.id)
}

// applyGrants folds allocator decisions into job records: waiting jobs with
// a fresh lease enqueue for planning, queued jobs swap onto their resized
// view, and every change lands on the job's event log. Grants can arrive out
// of order across concurrent Submit/Release calls, so a grant older than the
// job's current lease (by Lease.Seq) is dropped. Running jobs never see
// grants (their leases are pinned; the tiny pin race is resolved inside
// fleetPin). A draining server leaves waiting jobs waiting, since its queue
// is closing; a durable store re-queues them on the next start.
func (s *Server) applyGrants(grants []fleet.Grant) {
	for len(grants) > 0 {
		g := grants[0]
		grants = grants[1:]
		s.mu.Lock()
		j := s.jobs[g.Job]
		if j == nil || (j.lease != nil && j.lease.Seq >= g.Lease.Seq) {
			s.mu.Unlock()
			continue
		}
		switch j.state {
		case JobWaiting:
			if s.draining {
				break
			}
			s.adoptLeaseLocked(j, g.Lease)
			j.state = JobQueued
			s.fleetEventLocked(j, EventLeaseGranted, "")
			s.persistJobLocked(j)
			s.persistLeaseLocked(j)
			// The fleet queue holds MaxJobs, so a full one means the retention
			// bound itself is exceeded; the job fails rather than silently
			// wedging with a lease held.
			if !s.enqueueLocked(j) {
				grants = append(grants, s.finishLocked(j, JobFailed, ErrQueueFull.Error(), ErrQueueFull)...)
			}
		case JobQueued:
			s.adoptLeaseLocked(j, g.Lease)
			reason := "lease grown after a release"
			if g.Shrunk {
				reason = "lease shrunk to admit an arrival"
			}
			s.fleetEventLocked(j, EventLeaseResized, reason)
			s.persistLeaseLocked(j)
		}
		s.mu.Unlock()
	}
}

// adoptLeaseLocked points the job at a lease's view and re-keys its warm
// set. Callers hold s.mu.
func (s *Server) adoptLeaseLocked(j *job, l *cluster.Lease) {
	j.lease = l
	j.cluster = l.View
	j.warmKey = warmKey(&j.spec, j.graph, j.cluster)
}

// persistLeaseLocked records the job's current lease grant in the store.
// Callers hold s.mu.
func (s *Server) persistLeaseLocked(j *job) {
	if j.lease == nil {
		return
	}
	s.persistLease(store.LeaseRecord{
		Job:     j.id,
		Lease:   j.lease.ID,
		Devices: j.lease.NumDevices(),
		Seq:     j.lease.Seq,
	})
}

// fleetEventLocked appends a lease-lifecycle event to the job's plan-update
// log. Callers hold s.mu.
func (s *Server) fleetEventLocked(j *job, typ EventType, reason string) {
	ev := PlanEvent{Type: typ, Reason: reason}
	if j.lease != nil {
		ev.Lease = j.lease.ID
		ev.LeaseDevices = j.lease.NumDevices()
		ev.Cluster = j.lease.View.Name
	}
	j.mon.append(s.now(), ev)
}

// fleetPin freezes the job's lease for the duration of planning and adopts
// the allocator's authoritative lease, closing the race window between a
// worker picking the job up and a concurrent resize grant that was minted
// before the pin but not yet applied (its Seq is older than or equal to the
// pinned lease's, so applyGrants drops it).
func (s *Server) fleetPin(j *job) {
	if s.fleetAlloc == nil {
		return
	}
	s.fleetAlloc.Pin(j.id)
	l := s.fleetAlloc.Lease(j.id)
	if l == nil {
		return
	}
	s.mu.Lock()
	if j.lease == nil || j.lease.Seq < l.Seq {
		s.adoptLeaseLocked(j, l)
	}
	s.mu.Unlock()
}

// leaseReleasedLocked drops a terminal job's lease and journals its release.
// The allocator must already have freed the devices, so a client that sees
// the lease-released event finds them free in the fleet status.
func (s *Server) leaseReleasedLocked(j *job) {
	released := j.lease
	j.lease = nil // j.cluster stays: reports still describe the planned view
	if released == nil {
		return
	}
	s.fleetEventLocked(j, EventLeaseReleased, string(j.state))
	s.persistLease(store.LeaseRecord{
		Job:      j.id,
		Lease:    released.ID,
		Devices:  released.NumDevices(),
		Seq:      released.Seq,
		Released: true,
	})
}

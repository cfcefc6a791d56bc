// Package service is the concurrent planning daemon behind cmd/heterog-serve:
// HeteroG as middleware, online. Clients submit a planning job — a zoo model
// or serialized graph, a cluster description, and the same search knobs the
// public Options expose — and poll (or long-poll) for the resulting plan
// report, robustness report, pipeline instrumentation and Chrome trace.
//
// Inside: a bounded job queue feeding a worker pool sized to GOMAXPROCS,
// admission control with backpressure (queue-full submissions are rejected
// immediately, surfaced over HTTP as 429 + Retry-After), per-job timeouts and
// client cancellation via context, panic isolation per worker, and graceful
// shutdown that drains every accepted job. The performance heart is a
// process-wide registry of warm cache sets keyed by workload fingerprint
// (evalcache.WorkloadFingerprint + the fault configuration): concurrent and
// repeated jobs for the same model/cluster share one evaluation cache and one
// lowered-artifact cache, so the second submission of a workload plans
// against warm state instead of recompiling.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"heterog"
	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/evalcache"
	"heterog/internal/fleet"
	"heterog/internal/graph"
	"heterog/internal/store"
)

// Typed service errors, surfaced by the in-process API and carried over the
// wire by the /v1 error envelope: every non-2xx HTTP response encodes one of
// these as a stable string code, and Client decodes the code back into the
// same sentinel — errors.Is round-trips across the HTTP boundary.
var (
	// ErrQueueFull: the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining: the server is shutting down and accepts no new jobs
	// (HTTP 503).
	ErrDraining = errors.New("service: server draining")
	// ErrNotFound: no such job (HTTP 404).
	ErrNotFound = errors.New("service: job not found")
	// ErrNotDone: the job has not finished successfully, so the requested
	// artifact does not exist (HTTP 409).
	ErrNotDone = errors.New("service: job not done")
	// ErrOOM aliases heterog.ErrOOM: the job's best plan overflows device
	// memory (HTTP 422, attached to failed-job artifact requests).
	ErrOOM = heterog.ErrOOM
	// ErrNoStrategy aliases heterog.ErrNoStrategy: strategy search produced
	// no evaluable plan at all (HTTP 422, like ErrOOM).
	ErrNoStrategy = heterog.ErrNoStrategy
)

// Config sizes the server. The zero value selects every default.
type Config struct {
	// Workers is the planning worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default
	// 2*Workers). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// JobTimeout caps one job's planning time (default 10m; <0 disables).
	JobTimeout time.Duration
	// RetryAfter is the backpressure hint returned with queue-full
	// rejections (default 2s).
	RetryAfter time.Duration
	// MaxWarmSets bounds how many distinct workloads keep warm caches
	// resident; the least recently used set is dropped beyond it
	// (default 16).
	MaxWarmSets int
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// forgotten beyond it (default 1024).
	MaxJobs int
	// Fleet switches the server into fleet mode: the server owns this
	// cluster, and a fleet allocator partitions it into per-job leases (see
	// internal/fleet and fleet.go). Nil keeps the classic mode where every
	// job describes its own cluster.
	Fleet *cluster.Cluster
	// Store is the durable backend for jobs, event logs, leases and warm
	// artifacts (default a fresh in-memory store, which keeps the classic
	// restart-starts-empty behavior). A file store (store.Open) makes the
	// server crash-safe: Open replays it and resumes (see persist.go). The
	// server does not close the store; the owner does after Drain.
	Store store.Store
	// NodeID names this replica. It prefixes job IDs ("<node>-job-000001") so
	// IDs stay unique across a fleet of replicas behind one router, and tags
	// exported warm artifacts. Empty keeps the classic unprefixed IDs.
	NodeID string
	// Peers lists sibling replicas' base URLs ("http://host:port") for the
	// warm-cache exchange: a cold workload first tries the local artifact
	// store, then asks each peer for its exported artifact (see peer.go).
	Peers []string

	// fleetEstimate overrides the fleet allocator's per-iteration time
	// estimator (default core.EstimateLeaseTime). A test seam; ignored
	// without Fleet.
	fleetEstimate fleet.EstimateFunc
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.MaxWarmSets <= 0 {
		c.MaxWarmSets = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	// Fleet mode moves admission control into the allocator (jobs wait for a
	// lease instead of being rejected), so the queue only ever holds jobs
	// that already own devices; size it to the retention bound so a grant
	// can always enqueue without blocking.
	if c.Fleet != nil && c.QueueDepth < c.MaxJobs {
		c.QueueDepth = c.MaxJobs
	}
	return c
}

// warmSet is one workload's shared caches plus registry bookkeeping.
type warmSet struct {
	key     evalcache.Key
	caches  *heterog.CacheSet
	jobs    int
	lastUse time.Time
}

// Server runs the planning service. Construct with New, serve its Handler
// (or call Submit and friends in-process), and stop with Drain or Close.
type Server struct {
	cfg   Config
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for retention eviction
	warm     map[evalcache.Key]*warmSet
	nextID   uint64
	accepted uint64
	rejected uint64
	draining bool
	// pruning accumulates the cold-path pruning counters of every job that
	// produced a pipeline report; failed and canceled jobs do not
	// contribute (their runner never materialized).
	pruning core.PruneReport
	// telemetry accumulates the online-replanning loop counters across every
	// job monitor.
	telemetry TelemetryStats

	// fleetAlloc partitions the owned fleet into leases in fleet mode; nil
	// in classic mode. Lock ordering: s.mu may be taken before the
	// allocator's internal lock (the allocator never calls back into the
	// server), but applyGrants must not run under s.mu.
	fleetAlloc *fleet.Allocator

	// store is the durable backend (never nil; Mem by default). persistErr
	// remembers the last failed store write — it flips readiness (see
	// persist.go) — under its own small mutex because persistence runs under
	// varying combinations of s.mu and monitor locks.
	store      store.Store
	persistMu  sync.Mutex
	persistErr error
	// recovery is what Open replayed from the store (immutable after Open).
	recovery RecoveryStats
	// peer is the warm-cache exchange state (counters under s.mu; see peer.go).
	peer peerState

	workers   sync.WaitGroup
	closeOnce sync.Once
	// now and runHook are test seams: now stamps job transitions, runHook
	// replaces the real planning work.
	now     func() time.Time
	runHook func(ctx context.Context, j *job) error
}

// New builds a server and starts its worker pool. It is Open for callers that
// cannot fail: recovery errors (possible only with a corrupted pre-populated
// store) panic. Servers without a configured store never do.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a server, replays its store (re-queuing every job the previous
// process accepted but did not finish — see persist.go) and starts the worker
// pool. With the default in-memory store this is exactly the classic New.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	s := &Server{
		cfg:   cfg,
		jobs:  make(map[string]*job),
		warm:  make(map[evalcache.Key]*warmSet),
		now:   time.Now,
		store: cfg.Store,
	}
	if cfg.Fleet != nil {
		s.fleetAlloc = fleet.New(cfg.Fleet, cfg.fleetEstimate)
	}
	snap, err := s.store.Load()
	if err != nil {
		return nil, fmt.Errorf("service: load store: %w", err)
	}
	pending, err := s.recover(snap)
	if err != nil {
		return nil, err
	}
	// Recovered jobs enqueue before any new submission, so the queue must
	// hold every one with a cluster on top of the configured depth.
	for _, j := range pending {
		if j.cluster != nil {
			s.cfg.QueueDepth++
		}
	}
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.evictJobsLocked()
	// Each recovered job is placed like a fresh submission; grants and
	// resizes land on its (recovered, gap-free) event log as usual.
	for _, j := range pending {
		s.mu.Lock()
		j.mon.append(s.now(), PlanEvent{Type: EventJobRecovered, Reason: "re-queued after restart"})
		s.placeLocked(j) // cannot fail: the queue was sized for it above
		s.persistJobLocked(j)
		s.mu.Unlock()
		if j.cluster == nil {
			_, _ = s.requestLease(j) // a refused request fails the job itself
		}
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Config returns the resolved (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// warmKey derives the warm-cache registry key: the workload fingerprint of
// (graph, cluster, seed), folded with the fault configuration. Fault
// scenarios are keyed inside the caches only by their index, so two jobs may
// share warm state only when their scenario sets are identical — same count,
// same seed.
func warmKey(spec *cli.Spec, g *graph.Graph, c *cluster.View) evalcache.Key {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	wf := evalcache.WorkloadFingerprint(g, c, seed)
	if spec.FaultK == 0 {
		return wf
	}
	var buf [sha256.Size + 16]byte
	copy(buf[:], wf[:])
	binary.LittleEndian.PutUint64(buf[sha256.Size:], uint64(spec.FaultK))
	binary.LittleEndian.PutUint64(buf[sha256.Size+8:], uint64(spec.FaultSeed))
	return sha256.Sum256(buf[:])
}

// warmSetFor returns (creating if needed) the warm set for a key, updating
// recency and evicting the least recently used set beyond MaxWarmSets.
// Callers hold s.mu.
func (s *Server) warmSetFor(key evalcache.Key) *warmSet {
	ws := s.warm[key]
	if ws == nil {
		ws = &warmSet{
			key:    key,
			caches: heterog.NewCacheSet(),
		}
		s.warm[key] = ws
		for len(s.warm) > s.cfg.MaxWarmSets {
			var oldest *warmSet
			for _, cand := range s.warm {
				if cand == ws {
					continue
				}
				if oldest == nil || cand.lastUse.Before(oldest.lastUse) {
					oldest = cand
				}
			}
			if oldest == nil {
				break
			}
			delete(s.warm, oldest.key)
		}
	}
	ws.jobs++
	ws.lastUse = s.now()
	return ws
}

// Submit validates and admits a planning job, returning its status snapshot.
// Admission is non-blocking: a full queue returns ErrQueueFull immediately
// (backpressure), a draining server ErrDraining. In fleet mode the job
// instead waits for a lease on the server's own cluster (see fleet.go).
func (s *Server) Submit(spec cli.Spec) (*JobStatus, error) {
	if s.fleetAlloc != nil && spec.Cluster != nil {
		return nil, fmt.Errorf("cli: fleet mode: the server owns the cluster; drop the cluster spec (gpus caps the lease size)")
	}
	g, c, err := s.resolve(&spec)
	if err != nil {
		return nil, err
	}
	return s.admit(&job{spec: spec, graph: g, cluster: c})
}

// resolve is the spec step of every submitted or recovered job. A fleet
// server resolves a spec without a cluster description to its graph alone:
// spec.GPUs caps the lease the job will ask for instead of naming a testbed.
func (s *Server) resolve(spec *cli.Spec) (*graph.Graph, *cluster.View, error) {
	if s.fleetAlloc == nil || spec.Cluster != nil {
		return resolveSpec(spec)
	}
	if err := spec.ValidateWorkload(); err != nil {
		return nil, nil, err
	}
	if spec.GPUs < 0 {
		return nil, nil, fmt.Errorf("cli: fleet mode: gpus cap must be non-negative, got %d", spec.GPUs)
	}
	g, err := spec.BuildGraph()
	return g, nil, err
}

// resolveSpec validates the spec and builds its graph and cluster view.
func resolveSpec(spec *cli.Spec) (*graph.Graph, *cluster.View, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	g, err := spec.BuildGraph()
	if err != nil {
		return nil, nil, err
	}
	c, err := spec.BuildCluster()
	if err != nil {
		return nil, nil, err
	}
	return g, c.FullView(), nil
}

// jobIDLocked mints the next job ID, prefixed with the node name in
// multi-replica deployments so IDs stay unique behind a router. Callers hold
// s.mu.
func (s *Server) jobIDLocked() string {
	if s.cfg.NodeID != "" {
		return fmt.Sprintf("%s-job-%06d", s.cfg.NodeID, s.nextID)
	}
	return fmt.Sprintf("job-%06d", s.nextID)
}

// admit assigns a resolved job its ID and monitor, places it and records it.
// Every new job, replans included, enters the server here.
func (s *Server) admit(j *job) (*JobStatus, error) {
	s.mu.Lock()
	if s.draining {
		s.rejected++
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	j.id = s.jobIDLocked()
	j.submitted = s.now()
	j.done = make(chan struct{})
	j.mon = s.newJobMonitor(j.id)
	j.model, j.batch = j.graph.Name, j.graph.BatchSize
	if !s.placeLocked(j) {
		s.rejected++
		s.nextID-- // never observed, reuse the ID
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.accepted++
	s.evictJobsLocked()
	s.persistJobLocked(j)
	st := s.statusLocked(j)
	s.mu.Unlock()
	if j.cluster == nil {
		return s.requestLease(j)
	}
	return st, nil
}

// placeLocked is the placement step that separates the two modes. A job
// whose cluster is resolved is queued for a worker (false when the queue is
// full); one without a cluster waits, and its caller asks the allocator for a
// lease with requestLease once s.mu is dropped. Callers hold s.mu.
func (s *Server) placeLocked(j *job) bool {
	if j.cluster == nil {
		j.state = JobWaiting
		return true
	}
	j.warmKey = warmKey(&j.spec, j.graph, j.cluster)
	j.state = JobQueued
	return s.enqueueLocked(j)
}

// enqueueLocked hands a queued job to the worker pool without blocking,
// reporting false when the queue is full. Callers hold s.mu.
func (s *Server) enqueueLocked(j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

// finishLocked is the one terminal transition. It gives a fleet lease back
// to the allocator before the job turns terminal, so a client that sees the
// job finished finds the lease released on its event log and the devices
// free in the fleet status. A job that never ran here starts and finishes at
// the same instant. Callers hold s.mu and pass the returned grants (the
// rebalance the release caused) to applyGrants once s.mu is dropped.
func (s *Server) finishLocked(j *job, state JobState, msg string, failure error) []fleet.Grant {
	var grants []fleet.Grant
	if s.fleetAlloc != nil {
		grants = s.fleetAlloc.Release(j.id)
	}
	j.finished = s.now()
	if j.state != JobRunning {
		j.started = j.finished
	}
	j.state, j.err, j.failure = state, msg, failure
	s.leaseReleasedLocked(j)
	close(j.done)
	s.persistJobLocked(j)
	return grants
}

// evictJobsLocked forgets the oldest terminal jobs beyond MaxJobs.
func (s *Server) evictJobsLocked() {
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) > s.cfg.MaxJobs && j.state.Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Replan admits a job that replans a finished job onto a changed cluster,
// reusing the source runner's warm agent when device counts match.
func (s *Server) Replan(sourceID string, req ReplanRequest) (*JobStatus, error) {
	// run() finishes the source under s.mu, so its state, runner and
	// cluster are read under the lock too.
	s.mu.Lock()
	src := s.jobs[sourceID]
	var (
		spec   cli.Spec
		view   *cluster.View
		runner *heterog.Runner
		err    error
	)
	switch {
	case src == nil:
		err = ErrNotFound
	case src.state == JobDone && src.runner != nil:
		spec, view, runner = src.spec, src.cluster, src.runner
	case src.recovered && src.state == JobDone:
		err = fmt.Errorf("%w: %s predates a server restart; its runner is gone, submit a fresh job instead", ErrNotDone, sourceID)
	default:
		err = fmt.Errorf("%w: replan needs a done source job, %s is %s", ErrNotDone, sourceID, src.state)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	nc, err := replanCluster(view, req)
	if err != nil {
		return nil, err
	}
	return s.admit(replanJob(spec, runner, nc, sourceID))
}

// replanJob builds the job that replans a source job's workload onto the
// cluster view c, reusing the graph of the source's runner. Its spec is the
// source spec with the cluster fields replaced by a description of c, so the
// job stays self-describing (and resolvable after a restart).
func replanJob(spec cli.Spec, runner *heterog.Runner, c *cluster.View, replanOf string) *job {
	spec.Cluster = describeCluster(c.Cluster)
	spec.GPUs = 0
	return &job{spec: spec, replanOf: replanOf, graph: runner.Graph, cluster: c}
}

// replanCluster builds the changed cluster view a replan request describes
// from the source job's view cur.
func replanCluster(cur *cluster.View, req ReplanRequest) (*cluster.View, error) {
	set := 0
	if req.DropDevice != nil {
		set++
	}
	if req.Cluster != nil {
		set++
	}
	if req.GPUs != 0 {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("service: replan request must set exactly one of drop_device, cluster, gpus")
	}
	switch {
	case req.DropDevice != nil:
		return cur.WithoutDevice(*req.DropDevice)
	case req.Cluster != nil:
		nc, err := req.Cluster.Build()
		if err != nil {
			return nil, err
		}
		return nc.FullView(), nil
	default:
		spec := cli.Spec{GPUs: req.GPUs}
		nc, err := spec.BuildCluster()
		if err != nil {
			return nil, err
		}
		return nc.FullView(), nil
	}
}

// describeCluster records a degraded cluster back into spec form (server by
// server) so job listings stay self-describing. Device drops can produce
// servers mixing GPU counts; the description is per-server, so that is fine.
func describeCluster(c *cluster.Cluster) *cli.ClusterSpec {
	cs := &cli.ClusterSpec{Name: c.Name}
	for _, srv := range c.Servers {
		ss := cli.ServerSpec{
			GPUs:     len(srv.Devices),
			NICGbps:  srv.NICBandwidth * 8 / 1e9,
			PCIeGbps: srv.PCIeBandwidth * 8 / 1e9,
		}
		if len(srv.Devices) > 0 {
			switch c.Devices[srv.Devices[0]].Model.Name {
			case cluster.TeslaV100.Name:
				ss.GPU = "v100"
			case cluster.GTX1080Ti.Name:
				ss.GPU = "1080ti"
			case cluster.TeslaP100.Name:
				ss.GPU = "p100"
			}
		}
		cs.Servers = append(cs.Servers, ss)
	}
	return cs
}

// worker pops jobs until the queue closes (Drain).
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job with timeout, cancellation and panic isolation.
func (s *Server) run(j *job) {
	s.mu.Lock()
	if j.state != JobQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = JobRunning
	j.started = s.now()
	j.cancel = cancel
	s.persistJobLocked(j)
	s.mu.Unlock()
	defer cancel()
	// Fleet mode: freeze the lease for the whole planning run (no-op
	// otherwise). Must happen after JobRunning so late grants are ignored.
	s.fleetPin(j)

	err := func() (err error) {
		// Panic isolation: a crashing job fails alone; the worker survives.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		if s.runHook != nil {
			return s.runHook(ctx, j)
		}
		return s.plan(ctx, j)
	}()
	if err == nil {
		// Export the winning strategy as a warm artifact so peers (and this
		// server's own next incarnation) can warm-start the workload. It lands
		// before the job reports done: a client that sees done and resubmits
		// must find the artifact in /v1/peer/cache, or the router places the
		// repeat with no affinity.
		s.exportArtifact(j)
	}

	var (
		state   = JobDone
		msg     string
		failure error
	)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, msg = JobCanceled, "canceled by client"
	case errors.Is(err, context.DeadlineExceeded):
		state, msg, failure = JobFailed, fmt.Sprintf("timed out after %s", s.cfg.JobTimeout), err
	default:
		state, msg, failure = JobFailed, err.Error(), err
	}
	s.mu.Lock()
	grants := s.finishLocked(j, state, msg, failure)
	s.mu.Unlock()
	s.applyGrants(grants)
}

// planOptions maps the spec's knobs onto the public Options.
func planOptions(spec *cli.Spec) []heterog.Option {
	var opts []heterog.Option
	if spec.Episodes > 0 {
		opts = append(opts, heterog.WithEpisodes(spec.Episodes))
	}
	if spec.Seed != 0 {
		opts = append(opts, heterog.WithSeed(spec.Seed))
	}
	if spec.Robust && spec.FaultK > 0 {
		opts = append(opts, heterog.WithRobustness(spec.FaultK, spec.Blend))
		if spec.FaultSeed != 0 {
			opts = append(opts, heterog.WithFaultSeed(spec.FaultSeed))
		}
	}
	if spec.Telemetry != nil {
		opts = append(opts, heterog.WithTelemetryThresholds(*spec.Telemetry))
	}
	return opts
}

// plan is the real planning work of one job: plan (or replan) through the
// workload's shared warm caches, score faults post-hoc when asked, and
// assemble the wire report.
func (s *Server) plan(ctx context.Context, j *job) error {
	s.mu.Lock()
	ws := s.warmSetFor(j.warmKey)
	cold := ws.jobs <= 1 // read under s.mu: other jobs bump it concurrently
	s.mu.Unlock()

	opts := append(planOptions(&j.spec), heterog.WithContext(ctx), heterog.WithCaches(ws.caches))
	var runner *heterog.Runner
	var err error
	// Recovered replan jobs plan fresh: their source runner died with the old
	// process, but the spec carries the overlaid cluster description.
	if j.replanOf != "" && !j.recovered {
		s.mu.Lock()
		src := s.jobs[j.replanOf]
		s.mu.Unlock()
		if src == nil || src.runner == nil {
			return fmt.Errorf("service: replan source %s no longer available", j.replanOf)
		}
		runner, err = src.runner.ReplanView(j.cluster, opts...)
	} else {
		// Cold workload on this replica: seed the search with an exported
		// artifact — our own store first (restart warm-start), then peers.
		if cold {
			if raw := s.warmStrategyFor(j); len(raw) > 0 {
				opts = append(opts, heterog.WithWarmStrategy(raw))
			}
		}
		model := func() (*graph.Graph, error) { return j.graph, nil }
		input := func() (int, error) { return j.graph.BatchSize, nil }
		runner, err = heterog.GetRunnerView(model, input, j.cluster, opts...)
	}
	if err != nil {
		return err
	}

	var robust *heterog.RobustReport
	if j.spec.Robust {
		robust = runner.RobustReport()
	} else if j.spec.FaultK > 0 {
		if robust, err = runner.ScoreFaults(j.spec.FaultK, j.spec.FaultSeed, j.spec.Blend); err != nil {
			return err
		}
	}

	var stratJSON bytes.Buffer
	if err := runner.Strategy.Save(&stratJSON); err != nil {
		return fmt.Errorf("service: serialize strategy: %w", err)
	}
	pipe := runner.PipelineReport()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruning.Add(pipe.Pruning)
	j.runner = runner
	planSec := s.now().Sub(j.started).Seconds()
	j.report = &PlanReport{
		Model:           j.graph.Name,
		Batch:           j.graph.BatchSize,
		Cluster:         j.cluster.Name,
		Devices:         j.cluster.NumDevices(),
		PerIterationSec: runner.Plan.PerIter,
		ComputeSec:      runner.Plan.ComputeTime,
		CommSec:         runner.Plan.CommTime,
		PeakMemBytes:    append([]int64(nil), runner.Plan.Result.PeakMem...),
		Strategy:        bytes.TrimSpace(stratJSON.Bytes()),
		Robust:          robust,
		Pipeline:        &pipe,
		PlanSec:         planSec,
		Warm:            s.warmStatsLocked(j.warmKey),
	}
	return nil
}

// warmStatsLocked snapshots a warm set's counters ("" when it was evicted).
func (s *Server) warmStatsLocked(key evalcache.Key) *WarmStats {
	ws := s.warm[key]
	if ws == nil {
		return nil
	}
	eval, lowered := ws.caches.Stats()
	return &WarmStats{Eval: eval, Lowered: lowered, SharedJobs: ws.jobs}
}

// statusLocked renders a job's wire status. Callers hold s.mu.
func (s *Server) statusLocked(j *job) *JobStatus {
	st := &JobStatus{
		ID:          j.id,
		State:       j.state,
		Model:       j.model,
		Batch:       j.batch,
		ReplanOf:    j.replanOf,
		Auto:        j.auto,
		Recovered:   j.recovered,
		Error:       j.err,
		SubmittedAt: j.submitted,
	}
	if st.Model == "" && j.graph != nil {
		st.Model, st.Batch = j.graph.Name, j.graph.BatchSize
	}
	// Fleet jobs have no cluster until a lease is granted; recovered terminal
	// jobs keep the recorded name of the cluster they planned on.
	switch {
	case j.cluster != nil:
		st.Cluster = j.cluster.Name
		st.Devices = j.cluster.NumDevices()
	default:
		st.Cluster = j.clusterName
		st.Devices = j.clusterDevices
	}
	if j.lease != nil {
		st.Lease = j.lease.ID
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.Warm = s.warmStatsLocked(j.warmKey)
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		st.PlanSec = j.finished.Sub(j.started).Seconds()
	}
	return st
}

// Status returns a job's current status snapshot.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Jobs lists every retained job in submission order.
func (s *Server) Jobs() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, s.statusLocked(j))
		}
	}
	return out
}

// Wait blocks until the job reaches a terminal state or the context fires,
// returning the status either way (with the context's error in the latter
// case). This backs the HTTP long-poll.
func (s *Server) Wait(ctx context.Context, id string) (*JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		st, err := s.Status(id)
		if err != nil {
			return nil, err
		}
		return st, ctx.Err()
	}
}

// Report returns a finished job's plan report.
func (s *Server) Report(id string) (*PlanReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if err := j.decodeReport(); err != nil {
		return nil, err
	}
	if j.state != JobDone || j.report == nil {
		return nil, notDoneLocked(j)
	}
	return j.report, nil
}

// notDoneLocked renders the no-artifact error for a job, keeping the typed
// planning failure (ErrOOM, ErrNoStrategy, ...) in the wrap chain for failed
// jobs so the error envelope can carry its stable code. Callers hold s.mu.
func notDoneLocked(j *job) error {
	if j.state == JobFailed && j.failure != nil {
		return fmt.Errorf("%w: %s failed: %w", ErrNotDone, j.id, j.failure)
	}
	return fmt.Errorf("%w: %s is %s", ErrNotDone, j.id, j.state)
}

// runnerOf returns a finished job's runner (for trace rendering).
func (s *Server) runnerOf(id string) (*heterog.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if j.state != JobDone || j.runner == nil {
		if j.recovered && j.state == JobDone {
			return nil, fmt.Errorf("%w: %s predates a server restart; its trace is gone", ErrNotDone, j.id)
		}
		return nil, notDoneLocked(j)
	}
	return j.runner, nil
}

// Cancel cancels a queued or running job. Terminal jobs are left untouched
// (their status is returned; cancellation is idempotent).
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	var grants []fleet.Grant
	switch j.state {
	case JobWaiting, JobQueued:
		// The worker that eventually pops a queued job sees the terminal
		// state and skips it. Running jobs finish through run() once the
		// cancel lands.
		grants = s.finishLocked(j, JobCanceled, "canceled by client", nil)
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.applyGrants(grants)
	return st, nil
}

// Stats snapshots the server's queue, job and warm-cache counters.
func (s *Server) Stats() *ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &ServerStats{
		Node:       s.cfg.NodeID,
		Store:      s.store.Kind(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Accepted:   s.accepted,
		Rejected:   s.rejected,
		Pruning:    s.pruning,
		Telemetry:  s.telemetry,
		Recovery:   s.recovery,
		Peer:       s.peer.stats,
	}
	for _, j := range s.jobs {
		switch j.state {
		case JobWaiting:
			st.Waiting++
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCanceled:
			st.Canceled++
		}
	}
	for _, ws := range s.warm {
		eval, lowered := ws.caches.Stats()
		st.WarmSets = append(st.WarmSets, WarmSetStats{
			Workload: fmt.Sprintf("%x", ws.key[:6]),
			Jobs:     ws.jobs,
			Eval:     eval,
			Lowered:  lowered,
		})
	}
	return st
}

// Drain gracefully shuts the server down: new submissions are rejected with
// ErrDraining, every already-accepted job (queued or running) is allowed to
// finish, and the worker pool exits. If ctx fires first, Drain returns its
// error with jobs potentially still in flight (call Close for a hard stop).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.queue) })
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// crash simulates a power failure, for crash-consistency tests: the store is
// severed FIRST — any state transition from here on never reaches disk, which
// is exactly what losing the process mid-write looks like — then every running
// job is canceled and the workers drained. The journal keeps the last
// persisted state of every job (queued/running for in-flight ones), and a new
// Open on the same directory must re-queue them all.
func (s *Server) crash() {
	_ = s.store.Close()
	_ = s.Close()
}

// Close hard-stops the server: drains like Drain but first cancels every
// running job, so shutdown completes within roughly one episode batch.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	for _, j := range s.jobs {
		if j.state == JobRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

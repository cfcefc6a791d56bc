package service

import (
	"context"
	"encoding/json"
	"time"

	"heterog"
	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/evalcache"
	"heterog/internal/graph"
)

// JobState is the lifecycle of a planning job.
type JobState string

const (
	// JobWaiting: accepted in fleet mode, waiting for the allocator to grant
	// a lease (fleet capacity, not worker capacity).
	JobWaiting JobState = "waiting"
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is planning.
	JobRunning JobState = "running"
	// JobDone: planning finished; the report is available.
	JobDone JobState = "done"
	// JobFailed: planning errored (including timeout and worker panic).
	JobFailed JobState = "failed"
	// JobCanceled: canceled by the client before completion.
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// job is the server-side record of one accepted planning job. Mutable fields
// are guarded by the server's mutex; done is closed exactly once when the job
// reaches a terminal state.
type job struct {
	id       string
	spec     cli.Spec
	replanOf string // source job ID for replan jobs ("" for plain plans)
	auto     bool   // true for replans fired by the telemetry monitor
	// recovered marks a job replayed from the store after a restart. Its
	// runner is gone (recovered done jobs serve reports but not traces or
	// replans), and recovered replan jobs plan fresh from their described
	// cluster instead of reusing a source runner that no longer exists.
	recovered bool

	// Resolved at admission so a malformed spec is rejected before queueing.
	// A fleet job's cluster and warmKey stay unset until a lease is granted
	// (adoptLeaseLocked fills them from the lease's view).
	graph   *graph.Graph
	cluster *cluster.View
	warmKey evalcache.Key
	// model and batch duplicate the graph's identity so status survives a
	// restart (recovered terminal jobs carry no graph); clusterName and
	// clusterDevices do the same for the cluster.
	model          string
	batch          int
	clusterName    string
	clusterDevices int
	// lease is the fleet lease backing cluster in fleet mode; nil in classic
	// mode, and cleared on release (cluster stays for reporting).
	lease *cluster.Lease

	state JobState
	err   string
	// failure keeps the typed planning error (heterog.ErrOOM,
	// heterog.ErrNoStrategy, ...) so artifact requests against a failed job
	// can surface it through the error envelope with its stable code.
	failure error
	runner  *heterog.Runner
	report  *PlanReport
	// reportRaw is a recovered job's durable report, decoded into report
	// on first use so a restart does not decode reports nobody reads.
	reportRaw json.RawMessage
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	done      chan struct{}
	// mon holds the job's plan-update event log, created at admission or
	// recovery. The first PushTelemetry attaches its drift watcher.
	mon *monitor
}

// WarmStats reports the warm-cache set a job planned through.
type WarmStats struct {
	// Eval and Lowered snapshot the shared evaluation and lowered-artifact
	// caches (cumulative across every job that shared the set).
	Eval    heterog.CacheStats `json:"eval"`
	Lowered heterog.CacheStats `json:"lowered"`
	// SharedJobs counts jobs (including this one) that planned through the
	// same warm set since the server created it.
	SharedJobs int `json:"shared_jobs"`
}

// JobStatus is the wire representation of a job's lifecycle.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Model    string   `json:"model"`
	Batch    int      `json:"batch"`
	Cluster  string   `json:"cluster"`
	Devices  int      `json:"devices"`
	ReplanOf string   `json:"replan_of,omitempty"`
	// Auto marks replans fired by the telemetry monitor rather than a client.
	Auto bool `json:"auto,omitempty"`
	// Recovered marks jobs replayed from the durable store after a restart.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	// Lease names the fleet lease currently backing the job (fleet mode,
	// until released).
	Lease string `json:"lease,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// PlanSec is the wall-clock planning time (running → terminal).
	PlanSec float64 `json:"plan_sec,omitempty"`
	// Warm snapshots the shared warm-cache set once the job has run.
	Warm *WarmStats `json:"warm,omitempty"`
}

// PlanReport is the wire representation of a finished plan: the numbers a
// Runner exposes in-process, plus the chosen strategy itself and the warm
// state the job planned through.
type PlanReport struct {
	Model   string `json:"model"`
	Batch   int    `json:"batch"`
	Cluster string `json:"cluster"`
	Devices int    `json:"devices"`

	PerIterationSec float64 `json:"per_iteration_sec"`
	ComputeSec      float64 `json:"compute_sec"`
	CommSec         float64 `json:"comm_sec"`
	PeakMemBytes    []int64 `json:"peak_mem_bytes"`

	// Strategy is the chosen deployment plan in the strategy JSON format
	// (decisions per op group, execution order choice).
	Strategy json.RawMessage `json:"strategy,omitempty"`
	// Robust is the fault-scenario profile: present when the job requested
	// robust planning (optimized) or fault scoring (report-only).
	Robust *heterog.RobustReport `json:"robust,omitempty"`
	// Pipeline is the planning-pipeline instrumentation for this job's
	// evaluator family (per-pass timings, recompiles avoided).
	Pipeline *core.PipelineReport `json:"pipeline,omitempty"`

	PlanSec float64    `json:"plan_sec"`
	Warm    *WarmStats `json:"warm,omitempty"`
}

// ReplanRequest asks the server to replan a finished job on a changed
// (typically degraded) cluster, reusing the warm agent where the device
// count allows. Exactly one of the fields must be set.
type ReplanRequest struct {
	// DropDevice removes one device (by ID) from the source job's cluster —
	// the "a GPU just died" fast path.
	DropDevice *int `json:"drop_device,omitempty"`
	// Cluster replans onto an explicitly described cluster.
	Cluster *cli.ClusterSpec `json:"cluster,omitempty"`
	// GPUs replans onto a canned testbed (4, 8, 12 or 64).
	GPUs int `json:"gpus,omitempty"`
}

// ServerStats is the wire representation of /v1/stats.
type ServerStats struct {
	// Node names this replica (Config.NodeID; empty for anonymous servers).
	Node string `json:"node,omitempty"`
	// Store names the durable backend ("mem" or "file").
	Store      string `json:"store,omitempty"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	// Waiting counts fleet-mode jobs admitted but not yet granted a lease.
	Waiting  int `json:"waiting,omitempty"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`

	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`

	// Pruning aggregates the cold-path pruning counters (bounds tried,
	// candidates pruned before and after lowering, sims aborted, time saved)
	// across every completed job.
	Pruning core.PruneReport `json:"pruning"`

	// Telemetry aggregates the online replanning loop: observations folded,
	// drift episodes detected, automatic replans and their outcomes.
	Telemetry TelemetryStats `json:"telemetry"`

	// Recovery reports what the server replayed from its store at startup
	// (zero value for a fresh start).
	Recovery RecoveryStats `json:"recovery,omitempty"`
	// Peer reports the warm-cache exchange counters (zero without peers).
	Peer PeerStats `json:"peer,omitempty"`

	WarmSets []WarmSetStats `json:"warm_sets"`
}

// WarmSetStats describes one warm-cache set in /v1/stats.
type WarmSetStats struct {
	// Workload is a short hex prefix of the workload fingerprint.
	Workload string             `json:"workload"`
	Jobs     int                `json:"jobs"`
	Eval     heterog.CacheStats `json:"eval"`
	Lowered  heterog.CacheStats `json:"lowered"`
}

// Package heterog is the public API of HeteroG-Go, a reproduction of
// "Optimizing Distributed Training Deployment in Heterogeneous GPU Clusters"
// (CoNEXT 2020). It mirrors the paper's client interface (Fig 5): build a
// single-GPU model, describe the device set, call GetRunner, and run the
// returned distributed training plan.
//
//	runner, err := heterog.GetRunner(modelFunc, inputFunc, deviceInfo,
//		heterog.WithEpisodes(8), heterog.WithRobustness(4, 0.5))
//	report, err := runner.Run(500)
//
// GetRunner converts the single-GPU graph into a distributed one by choosing,
// per operation group, a parallelism (data-parallel with even or proportional
// replicas, or model-parallel placement), a gradient-aggregation method (PS
// or AllReduce), and a global execution order — then simulates training on
// the described cluster (this build targets the bundled simulator; see
// DESIGN.md for the substitution rationale).
//
// Configuration is expressed through functional Options (WithEpisodes,
// WithSeed, WithDefaultOrder, WithAgent, WithBatchEpisodes, WithRobustness,
// WithFaultSeed, ...); nil Options are skipped.
//
// Clusters degrade in production: WithRobustness makes planning score every
// candidate across K deterministic fault scenarios (stragglers, contended
// links, mid-iteration device loss, shrunken memory headroom) and optimize a
// blend of nominal and worst-case time; Runner.RobustReport exposes the
// resulting nominal/p95/worst-case profile, and Runner.Replan re-plans on a
// degraded cluster reusing the warm agent.
package heterog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"heterog/internal/agent"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/faults"
	"heterog/internal/graph"
	"heterog/internal/sim"
	"heterog/internal/strategy"
	"heterog/internal/telemetry"
)

// ModelFunc builds the single-GPU training graph, like the paper's
// model_func. Use graph.New and the model-building helpers, or one of the
// bundled zoo models via ZooModel.
type ModelFunc func() (*graph.Graph, error)

// InputFunc describes the input pipeline; it returns the global batch size
// (the dataset itself is synthetic in the simulator).
type InputFunc func() (batchSize int, err error)

// DeviceInfo describes the heterogeneous device set, like the paper's
// device_info argument. Use cluster.New or a canned testbed.
type DeviceInfo = cluster.Cluster

// Typed errors, detectable with errors.Is on anything GetRunner, Replan or
// Runner methods return.
var (
	// ErrOOM reports that the best plan found still overflows device
	// memory: the model does not fit the described cluster at this batch.
	ErrOOM = errors.New("heterog: no strategy fits device memory")
	// ErrNoStrategy reports that strategy search produced no evaluable
	// strategy at all (aliases the internal agent sentinel so wrapped
	// search errors match it).
	ErrNoStrategy = agent.ErrNoStrategy
)

// settings is the resolved planning configuration assembled from Options.
type settings struct {
	episodes        int
	seed            int64
	useDefaultOrder bool
	agent           *agent.Agent
	batchEpisodes   int
	// robustness: faultK scenarios drawn from faultSeed, worst-case blend.
	faultK    int
	faultSeed int64
	blend     float64
	// ctx cancels strategy search between episode batches (nil = Background).
	ctx context.Context
	// caches, when non-nil, is a shared warm-cache set replacing the private
	// per-runner caches; evalCap/loweredCap size private caches otherwise
	// (0 = package defaults).
	caches              *CacheSet
	evalCap, loweredCap int
	// pruning gates bound-based candidate pruning (default on;
	// WithPruning(false) restores exhaustive evaluation).
	pruning bool
	// drift, when non-nil, overrides the telemetry watcher thresholds built
	// by Runner.Watcher (nil = telemetry package defaults).
	drift *telemetry.Thresholds
	// warmStrategy, when non-empty, is a serialized strategy (strategy-JSON
	// wire format) evaluated before search and kept if search cannot beat it.
	warmStrategy []byte
}

func defaultSettings() settings {
	return settings{episodes: 6, seed: 1, faultSeed: 1, pruning: true}
}

// Option configures GetRunner.
type Option func(*settings)

// WithEpisodes sets the RL budget for strategy search on top of the
// heuristic candidate pool (default 6).
func WithEpisodes(n int) Option {
	return func(s *settings) { s.episodes = n }
}

// WithSeed sets the profiling and agent seed (default 1).
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithDefaultOrder disables HeteroG's execution-order scheduling and keeps
// the engine's FIFO order.
func WithDefaultOrder() Option {
	return func(s *settings) { s.useDefaultOrder = true }
}

// WithAgent plans with an existing strategy-search agent (e.g. one
// pre-trained on other graphs) instead of a fresh one.
func WithAgent(a *agent.Agent) Option {
	return func(s *settings) { s.agent = a }
}

// WithBatchEpisodes sets the rollout batch size per policy update (0 keeps
// the agent default).
func WithBatchEpisodes(k int) Option {
	return func(s *settings) { s.batchEpisodes = k }
}

// WithRobustness makes planning robustness-aware: every candidate strategy is
// additionally scored on k deterministic fault scenarios of the cluster
// (straggling GPUs, degraded links, a device dying mid-iteration, shrunken
// memory headroom) and search optimizes the blend
//
//	R = (1-blend)·R_nominal + blend·R_worst-case
//
// of the paper's R = -sqrt(T) reward. blend <= 0 selects the default of 0.5.
// The resulting nominal/p95/worst-case profile is available from
// Runner.RobustReport.
func WithRobustness(k int, blend float64) Option {
	return func(s *settings) { s.faultK, s.blend = k, blend }
}

// WithFaultSeed sets the seed for fault-scenario generation (default 1).
// Identical seeds yield bit-identical scenario sets and robustness scores.
func WithFaultSeed(seed int64) Option {
	return func(s *settings) { s.faultSeed = seed }
}

// WithContext makes strategy search cancellable: planning checks the context
// between episode batches and GetRunner returns the context's error (wrapped,
// errors.Is-detectable) once it fires. The planning service uses this for
// per-job timeouts and client-initiated cancellation.
func WithContext(ctx context.Context) Option {
	return func(s *settings) { s.ctx = ctx }
}

// WithCaches plans through a shared warm-cache set instead of private
// per-runner caches, so repeated and concurrent plans of the same workload
// hit warm state. See CacheSet for the (model, cluster, seed) identity rule
// the caller must uphold.
func WithCaches(cs *CacheSet) Option {
	return func(s *settings) { s.caches = cs }
}

// WithCacheCapacities sizes the runner's private evaluation and
// lowered-artifact caches (entries, not bytes; 0 keeps the package defaults).
// Ignored when WithCaches supplies a shared set, which carries its own
// capacities.
func WithCacheCapacities(evalEntries, loweredEntries int) Option {
	return func(s *settings) { s.evalCap, s.loweredCap = evalEntries, loweredEntries }
}

// WithPruning toggles bound-based candidate pruning during strategy search
// (default on): candidates whose analytic lower bound already loses to the
// incumbent are skipped before compilation, and simulations abort as soon as
// their event clock certifies a loss. Pruning is winner-preserving — the
// bounds are sound and comparisons strict, so the selected plan (and every
// number reported for it) is identical to an exhaustive search; only the
// side evaluations of discarded candidates are skipped. Pass false for
// exhibits that need exact timings for every candidate, not just the winner.
func WithPruning(on bool) Option {
	return func(s *settings) { s.pruning = on }
}

// WithWarmStrategy warm-starts strategy search from a previously exported
// plan: raw is a serialized strategy in the strategy-JSON wire format (what
// Strategy.Save writes and the planning service's reports carry). Before any
// episodes run, the strategy is decoded against the model graph and
// evaluated through the runner's caches, priming the evaluation and
// lowered-artifact caches. Search itself still starts from the heuristic
// candidate pool with no bound, so the seed does not steer pruning or
// learning; it is a full candidate that wins when search cannot beat it, so
// the returned plan is never worse than the seed. A seed that fails to
// decode, evaluate, or fit memory is ignored (warm starting is best-effort);
// a seed for a different workload typically fails the op-count check and is
// likewise ignored.
//
// This is the import half of the peer warm-cache exchange: replicas export
// winning strategies keyed by workload fingerprint and cold peers plan with
// WithWarmStrategy instead of from scratch.
func WithWarmStrategy(raw []byte) Option {
	return func(s *settings) { s.warmStrategy = raw }
}

// WithTelemetryThresholds sets the drift-detection thresholds used by
// Runner.Watcher and by the planning service's per-job telemetry monitors:
// EWMA smoothing factor, per-metric trigger/clear hysteresis bands, and the
// overlay quantization step. The zero value of any knob keeps the telemetry
// package default. The thresholds are validated when the first watcher is
// built, not here.
func WithTelemetryThresholds(th telemetry.Thresholds) Option {
	return func(s *settings) { s.drift = &th }
}

// Runner executes a planned distributed training model.
type Runner struct {
	Graph *graph.Graph
	// View is the cluster view the plan was computed against: the whole
	// cluster wrapped with FullView for GetRunner, or a lease's sub-cluster
	// view in fleet mode. Cluster is the view's projected cluster (View's
	// embedded field), kept as its own field for callers that only care
	// about devices and links.
	View     *cluster.View
	Cluster  *cluster.Cluster
	Plan     *core.Evaluation
	Strategy *strategy.Strategy

	evaluator *core.Evaluator
	agent     *agent.Agent
	cfg       settings
}

// Report summarizes a training run.
type Report struct {
	Steps           int
	PerIterationSec float64
	TotalSec        float64
	ComputeSec      float64
	CommSec         float64
	PeakMemBytes    []int64
	// Stats is the per-strategy operation share (the paper's Tables 2/3).
	Stats strategy.Stats
}

// RobustReport is the public fault-scenario profile of a plan.
type RobustReport struct {
	// Scenarios is the number of fault scenarios scored.
	Scenarios int
	// NominalSec, P95Sec and WorstSec are per-iteration times on the
	// unperturbed cluster, at the 95th percentile across scenarios, and
	// under the worst scenario.
	NominalSec, P95Sec, WorstSec float64
	// OOMUnderFault counts scenarios whose memory shrinkage pushes the
	// plan out of memory.
	OOMUnderFault int
	// WorstScenario names the slowest scenario ("nominal" if none is
	// slower than the unperturbed cluster).
	WorstScenario string
	// Blend is the worst-case weight the plan was optimized under.
	Blend float64
}

// GetRunner plans a distributed deployment for the model over the devices,
// mirroring the paper's heterog.get_runner. Options tune the search; see the
// package documentation for the catalogue.
func GetRunner(model ModelFunc, input InputFunc, devices *DeviceInfo, opts ...Option) (*Runner, error) {
	return GetRunnerView(model, input, devices.FullView(), opts...)
}

// GetRunnerView is GetRunner for a sub-cluster view: plan the model onto a
// lease's slice of a fleet (or any other projected device subset) instead of
// a whole cluster. Local device IDs in the resulting plan map back to fleet
// device IDs through view.FleetID.
func GetRunnerView(model ModelFunc, input InputFunc, view *cluster.View, opts ...Option) (*Runner, error) {
	if view == nil || view.NumDevices() == 0 {
		return nil, fmt.Errorf("heterog: GetRunnerView needs a non-empty view")
	}
	cfg := defaultSettings()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	g, err := model()
	if err != nil {
		return nil, fmt.Errorf("heterog: model_func: %w", err)
	}
	batch, err := input()
	if err != nil {
		return nil, fmt.Errorf("heterog: input_func: %w", err)
	}
	if batch > 0 {
		g.BatchSize = batch
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("heterog: invalid model graph: %w", err)
	}
	return plan(g, view, cfg)
}

// plan runs strategy search for an already-built graph under resolved
// settings; GetRunner, GetRunnerView and Replan all land here.
func plan(g *graph.Graph, devices *cluster.View, cfg settings) (*Runner, error) {
	ev, err := core.NewEvaluator(g, devices, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.caches != nil {
		cfg.caches.install(ev)
	} else if cfg.evalCap > 0 || cfg.loweredCap > 0 {
		NewCacheSet(cfg.evalCap, cfg.loweredCap).install(ev)
	}
	ev.UseFIFO = cfg.useDefaultOrder
	if cfg.faultK > 0 {
		scs := faults.Generate(devices, faults.DefaultModel(cfg.faultK, cfg.faultSeed))
		if err := ev.EnableRobustness(scs, cfg.blend); err != nil {
			return nil, fmt.Errorf("heterog: %w", err)
		}
	}
	if cfg.pruning {
		// After EnableRobustness so the scenario twins inherit the config.
		ev.EnablePruning(nil)
	}
	ag := cfg.agent
	if ag == nil {
		acfg := agent.DefaultConfig(devices.NumDevices())
		acfg.Seed = cfg.seed
		if cfg.batchEpisodes > 0 {
			acfg.BatchEpisodes = cfg.batchEpisodes
		}
		ag, err = agent.New(acfg, devices.NumDevices())
		if err != nil {
			return nil, err
		}
	}
	// Warm start: evaluate the imported strategy through the (possibly
	// shared) caches, priming them for search. Best-effort — any failure
	// falls back to a cold search.
	var warmEval *core.Evaluation
	if len(cfg.warmStrategy) > 0 {
		if st, err := strategy.Load(bytes.NewReader(cfg.warmStrategy), len(g.Ops)); err == nil {
			if e, err := ev.Evaluate(st); err == nil && !e.Result.OOM() {
				warmEval = e
			}
		}
	}
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := ag.PlanContext(ctx, ev, cfg.episodes)
	if err != nil {
		return nil, fmt.Errorf("heterog: strategy search: %w", err)
	}
	// The warm seed is a full candidate: keep it if search never beat it.
	if warmEval != nil && warmEval.Score() < p.Score() {
		p = warmEval
	}
	if p.Result.OOM() {
		return nil, fmt.Errorf("%w: %s at batch %d", ErrOOM, g.Name, g.BatchSize)
	}
	return &Runner{
		Graph: g, View: devices, Cluster: devices.Cluster, Plan: p, Strategy: p.Strategy,
		evaluator: ev, agent: ag, cfg: cfg,
	}, nil
}

// Run executes `steps` training iterations of the planned deployment and
// returns the aggregate report.
func (r *Runner) Run(steps int) (*Report, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("heterog: steps must be positive, got %d", steps)
	}
	return &Report{
		Steps:           steps,
		PerIterationSec: r.Plan.PerIter,
		TotalSec:        r.Plan.PerIter * float64(steps),
		ComputeSec:      r.Plan.ComputeTime,
		CommSec:         r.Plan.CommTime,
		PeakMemBytes:    append([]int64(nil), r.Plan.Result.PeakMem...),
		Stats:           r.Plan.StrategyStats(),
	}, nil
}

// RobustReport returns the plan's fault-scenario profile, or nil when the
// runner was planned without WithRobustness.
func (r *Runner) RobustReport() *RobustReport {
	rep := r.Plan.Robust
	if rep == nil {
		return nil
	}
	return &RobustReport{
		Scenarios:     len(rep.Times),
		NominalSec:    rep.Nominal,
		P95Sec:        rep.P95,
		WorstSec:      rep.Worst,
		OOMUnderFault: rep.OOMFaults,
		WorstScenario: rep.WorstScenario,
		Blend:         rep.Blend,
	}
}

// PipelineReport returns the planning-pipeline instrumentation accumulated
// while this runner was planned: per-pass wall time, op and byte counts in
// pipeline order, how many full lowerings ran, and how many evaluations
// reused a cached lowered artifact instead of recompiling (the
// ranked-vs-FIFO and fault-scenario fast path).
func (r *Runner) PipelineReport() core.PipelineReport {
	return r.evaluator.PipelineReport()
}

// WriteTrace renders the planned schedule in the Chrome trace-event JSON
// format (open in chrome://tracing or Perfetto), so library users get the
// CLI's -trace output without reaching into internal/sim. The trace carries
// a "heterog" metadata record with the planning-pipeline provenance (per-pass
// timings and artifact-reuse counts) alongside the schedule.
func (r *Runner) WriteTrace(w io.Writer) error {
	rep := r.PipelineReport()
	meta := map[string]string{
		"lowerings":          fmt.Sprintf("%d", rep.Lowerings),
		"recompiles_avoided": fmt.Sprintf("%d", rep.Reused),
	}
	for _, ps := range rep.Passes {
		meta["pass."+ps.Name] = fmt.Sprintf("runs=%d total=%s ops=%d bytes=%d",
			ps.Runs, ps.Total, ps.Ops, ps.Bytes)
	}
	return sim.WriteChromeTraceView(w, r.Plan.Dist, r.Plan.Result, r.View, meta)
}

// Replan re-plans the same model on a changed (typically degraded) cluster —
// after stragglers appear, links degrade, or a device is lost — reusing the
// warm strategy-search agent when the device count allows: its learned
// weights, reward baselines and encoder cache carry over, so replanning
// converges faster than planning from scratch. When newDevices has a
// different device count (e.g. a GPU was removed), the action space changes
// and a fresh agent is built.
//
// Extra per-call Options layer on top of the original planning configuration
// — typically WithContext for a timeout on the replanning search, or
// WithCaches to plan through a warm-cache set keyed to the degraded cluster.
// The original request's context and caches are always dropped first: the
// former has usually expired, and the latter is keyed to the old cluster,
// whose cached timings would be silently wrong on the new one.
//
// The incumbent strategy is re-scored on the new cluster and kept if it still
// wins, so a Replan never does worse than running the stale plan on the
// degraded cluster. The original Runner is left untouched.
func (r *Runner) Replan(newDevices *DeviceInfo, opts ...Option) (*Runner, error) {
	if newDevices == nil || newDevices.NumDevices() == 0 {
		return nil, fmt.Errorf("heterog: replan needs a non-empty device set")
	}
	return r.ReplanView(newDevices.FullView(), opts...)
}

// ReplanView is Replan for a sub-cluster view — the fleet-mode counterpart,
// used when a lease shrinks, grows or drifts. The same warm-agent reuse and
// incumbent re-scoring rules apply, keyed on the view's device count.
func (r *Runner) ReplanView(newDevices *cluster.View, opts ...Option) (*Runner, error) {
	if newDevices == nil || newDevices.NumDevices() == 0 {
		return nil, fmt.Errorf("heterog: replan needs a non-empty device set")
	}
	cfg := r.cfg
	cfg.ctx = nil
	cfg.caches = nil
	cfg.agent = nil
	if newDevices.NumDevices() == r.Cluster.NumDevices() {
		cfg.agent = r.agent
	}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	nr, err := plan(r.Graph, newDevices, cfg)
	if err != nil {
		return nil, err
	}
	// Keep the incumbent strategy if it still beats the fresh plan on the
	// new cluster (its grouping travels with it, so cross-cluster
	// evaluation is well-defined as long as the device count matches).
	if newDevices.NumDevices() == r.Cluster.NumDevices() {
		if stale, err := nr.evaluator.Evaluate(r.Strategy); err == nil && stale.Score() < nr.Plan.Score() {
			nr.Plan, nr.Strategy = stale, stale.Strategy
		}
	}
	return nr, nil
}

// Evaluate scores an arbitrary strategy on this runner's cluster through its
// evaluator — and therefore through its warm caches, so re-scoring a strategy
// the planner already visited is a cache hit. This is how a caller compares an
// old plan against a replanned one on equal terms: evaluate the stale strategy
// on the new runner and read both evaluations' PerIter. The runner's own plan
// is left untouched.
func (r *Runner) Evaluate(s *strategy.Strategy) (*core.Evaluation, error) {
	if s == nil {
		return nil, fmt.Errorf("heterog: Evaluate needs a non-nil strategy")
	}
	e, err := r.evaluator.Evaluate(s)
	if err != nil {
		return nil, fmt.Errorf("heterog: evaluate strategy: %w", err)
	}
	return e, nil
}

// Watcher builds a telemetry drift watcher for the runner's cluster under the
// thresholds supplied via WithTelemetryThresholds (telemetry package defaults
// otherwise). The watcher starts with an all-nominal baseline — the state the
// runner's plan was computed for; feed it observations and replan when it
// trips. The planning service builds one per job to drive automatic
// replanning; library users can run the same loop in-process.
func (r *Runner) Watcher() (*telemetry.Watcher, error) {
	var th telemetry.Thresholds
	if r.cfg.drift != nil {
		th = *r.cfg.drift
	}
	if err := th.Validate(); err != nil {
		return nil, fmt.Errorf("heterog: %w", err)
	}
	return telemetry.NewWatcher(r.Cluster, th), nil
}

// ScoreFaults scores the runner's already-chosen plan across k deterministic
// fault scenarios drawn from seed, without replanning — the report-only
// counterpart of WithRobustness (which makes the search itself optimize for
// the scenarios). blend only labels the report's objective weight; <= 0
// selects the default. The runner is left unchanged.
func (r *Runner) ScoreFaults(k int, seed int64, blend float64) (*RobustReport, error) {
	if k <= 0 {
		return nil, fmt.Errorf("heterog: ScoreFaults needs k > 0, got %d", k)
	}
	// Score on a twin of the evaluator so the runner's own evaluator stays in
	// whatever mode it was planned under; the twin shares the caches, with
	// scenario tags keeping the keys disjoint.
	ev := *r.evaluator
	ev.Robust = nil
	scs := faults.Generate(r.View, faults.DefaultModel(k, seed))
	if err := ev.EnableRobustness(scs, blend); err != nil {
		return nil, fmt.Errorf("heterog: %w", err)
	}
	e, err := ev.Evaluate(r.Strategy)
	if err != nil {
		return nil, fmt.Errorf("heterog: fault scoring: %w", err)
	}
	rep := e.Robust
	return &RobustReport{
		Scenarios:     len(rep.Times),
		NominalSec:    rep.Nominal,
		P95Sec:        rep.P95,
		WorstSec:      rep.Worst,
		OOMUnderFault: rep.OOMFaults,
		WorstScenario: rep.WorstScenario,
		Blend:         rep.Blend,
	}, nil
}

// ZooModel adapts a bundled benchmark model into a ModelFunc.
func ZooModel(builder func(batch int) (*graph.Graph, error), batch int) ModelFunc {
	return func() (*graph.Graph, error) { return builder(batch) }
}

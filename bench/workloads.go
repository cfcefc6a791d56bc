package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/service"
	"heterog/internal/telemetry"
)

// workload is one traffic mix of the benchmark (BENCHMARK.json and
// README.md say why each was chosen). Every workload drives its server from
// one client in a closed loop: each caller waits for its plan, the way a CI
// job or a cluster scheduler does.
type workload struct {
	name string
	run  func(env *runEnv) (*run, error)
}

var workloads = []workload{
	{"cold-mix", func(env *runEnv) (*run, error) { return coldMix(env, coldBlocks(env.seed)) }},
	{"warm-repeat", func(env *runEnv) (*run, error) { return warmRepeat(env, warmSpecs(env.seed)) }},
	{"fleet-lease", func(env *runEnv) (*run, error) { return fleetLease(env, fleetClasses(env.seed)) }},
	{"durable-drift", func(env *runEnv) (*run, error) { return durableDrift(env, durableSessions(env.seed), 3) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- Job lists. The workload seed generates every job list; the server
// receives only the jobs. Lists are built whole blocks or rounds at a time,
// so every workload class appears equally often however many rounds fit.

var (
	coldModels = []string{"vgg19", "resnet200", "inception_v3", "mobilenet_v2", "transformer6", "bert24"}
	coldGPUs   = []int{4, 8, 12}
)

// coldBlocks returns the cold-mix job list, one block per server: every
// block holds each model once in a seeded order, and the testbed rotates
// with the block index, so three blocks cover all 18 (model, testbed) pairs,
// each with its own job seed. Later blocks repeat that cycle of 18 jobs on
// fresh servers, so the jobs stay cold and a run's plans do not depend on
// how many blocks fit in it.
func coldBlocks(seed int64) func(b int) []cli.Spec {
	rng := rand.New(rand.NewSource(seed))
	var made [][]cli.Spec
	return func(b int) []cli.Spec {
		for len(made) <= b {
			n := len(made)
			block := make([]cli.Spec, len(coldModels))
			for i, mi := range rng.Perm(len(coldModels)) {
				gi := (n + mi) % len(coldGPUs)
				block[i] = cli.Spec{
					Model: coldModels[mi], Batch: 64, GPUs: coldGPUs[gi],
					Seed: seed*100 + int64(mi*len(coldGPUs)+gi) + 1,
				}
			}
			made = append(made, block)
		}
		return made[b]
	}
}

// warmSpecs are warm-repeat's four workloads, planned once during set-up.
func warmSpecs(seed int64) []cli.Spec {
	var out []cli.Spec
	for _, m := range []string{"inception_v3", "mobilenet_v2", "transformer6", "resnet200"} {
		out = append(out, cli.Spec{Model: m, Batch: 64, GPUs: 8, Seed: seed})
	}
	return out
}

// fleetClasses are fleet-lease's job classes: four models under a 4- or
// 8-GPU lease cap.
func fleetClasses(seed int64) []cli.Spec {
	var out []cli.Spec
	for _, m := range []string{"vgg19", "mobilenet_v2", "inception_v3", "transformer6"} {
		for _, cap := range []int{4, 8} {
			out = append(out, cli.Spec{Model: m, Batch: 64, GPUs: cap, Seed: seed})
		}
	}
	return out
}

// rounds returns successive seeded permutations of n classes.
func rounds(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// session is one durable-drift client session: plan a job, then stream a
// seeded drift trace at it and wait out every automatic replan.
type session struct {
	spec      cli.Spec
	traceSeed int64
}

// sessionGen yields durable-drift's sessions and the cold jobs it kills
// the server under.
type sessionGen struct {
	next func() session
	// kill returns the i-th job to run while the server is killed: a fresh
	// seed, so it is cold and still running a few milliseconds after it
	// starts.
	kill func(i int) cli.Spec
}

// durableSessions rotates vgg19, mobilenet_v2 and transformer6 (batch 192,
// 8 GPUs, 4 episodes, telemetry quantum 0.5) in seeded order. Each model's
// sessions replay that model's own drift trace: the number of replans a
// session fires then does not move with the seed, and neither does the mix
// of plans and replans a run measures.
func durableSessions(seed int64) sessionGen {
	models := []string{"vgg19", "mobilenet_v2", "transformer6"}
	spec := func(m string, s int64) cli.Spec {
		return cli.Spec{Model: m, Batch: 192, GPUs: 8, Episodes: 4, Seed: s,
			Telemetry: &telemetry.Thresholds{Quantum: 0.5}}
	}
	rng := rand.New(rand.NewSource(seed))
	var queue []int
	return sessionGen{
		next: func() session {
			if len(queue) == 0 {
				queue = rng.Perm(len(models))
			}
			mi := queue[0]
			queue = queue[1:]
			return session{spec: spec(models[mi], seed), traceSeed: int64(mi) + 1}
		},
		kill: func(i int) cli.Spec { return spec(models[i%len(models)], seed*10000+int64(i)+1) },
	}
}

// --- Running a workload.

// runEnv is what a workload runs with.
type runEnv struct {
	ctx     context.Context
	launch  launcher
	seed    int64
	seconds time.Duration
	// maxOps ends the timed phase after this many ops (0 = no cap); the
	// harness tests use it for short smoke runs.
	maxOps int
	tr     *tracer
	// gcTrace starts servers with the GC log on (traced runs).
	gcTrace bool
	// dir is the run's working directory inside the checkout.
	dir string
}

// planned is one plan op's job spec and the report it returned, kept for the
// output checks and the per-layer probes.
type planned struct {
	spec cli.Spec
	rep  *service.PlanReport
}

// run collects one workload run: its ops, timed wall time, set-up samples,
// server peaks and the server-side counters over the timed phase.
type run struct {
	env     *runEnv
	root    int // workload span
	ops     []op
	plans   []planned
	setups  []float64
	rss     []float64
	acct    accounting
	elapsed time.Duration
	began   time.Time
	ctr     counters
	seg     segment
	// cur is the server of the current (or last) timed segment.
	cur server
	// layers holds per-layer numbers only this workload produces
	// (fleet, store and telemetry counters).
	layers map[string]float64
	// fleetGPUs is the fleet testbed the plans were leased from (0 =
	// classic), for rebuilding lease views in checks and probes.
	fleetGPUs int
}

func newRun(env *runEnv, name string) *run {
	return &run{env: env, root: env.tr.open(0, "workload "+name), layers: map[string]float64{}}
}

// timedOps counts the ops completed inside timed phases.
func (r *run) timedOps() int {
	n := 0
	for _, o := range r.ops {
		if o.timed {
			n++
		}
	}
	return n
}

// done reports whether the run has measured frac of its budget (or reached
// its op cap).
func (r *run) done(frac float64) bool {
	if r.env.maxOps > 0 {
		return r.timedOps() >= r.env.maxOps
	}
	el := r.elapsed
	if !r.began.IsZero() {
		el += time.Since(r.began)
	}
	return el >= time.Duration(frac*float64(r.env.seconds))
}

// begin starts a timed segment on srv.
func (r *run) begin(srv server) error {
	snap, err := takeSegment(r.env.ctx, srv)
	if err != nil {
		return err
	}
	r.seg, r.cur = snap, srv
	r.began = time.Now()
	return nil
}

// rssOps is the number of timed ops after which a run reads its server's
// peak RSS. Every done job stays resident, so reading after a fixed amount
// of work keeps a change that fits more ops into a run from reading as a
// memory regression.
const rssOps = 24

// record appends an op; the rssOps-th timed op reads the peak RSS of the
// server it ran on.
func (r *run) record(o op) {
	r.ops = append(r.ops, o)
	if o.timed && r.timedOps() == rssOps {
		r.readRSS(r.cur)
	}
}

func (r *run) readRSS(srv server) {
	mb, err := srv.PeakRSSMB()
	if err != nil {
		r.acct.miss("read peak RSS: %v", err)
		return
	}
	r.rss = append(r.rss, mb)
}

// end closes the timed segment begun on srv and folds its counters in.
func (r *run) end(srv server) error {
	r.elapsed += time.Since(r.began)
	r.began = time.Time{}
	after, err := takeSegment(r.env.ctx, srv)
	if err != nil {
		return err
	}
	r.ctr.add(r.seg, after)
	return nil
}

// start launches a server and records its spawn-to-ready time.
func (r *run) start(o serverOpts) (server, float64, error) {
	o.GCTrace = r.env.gcTrace
	t0 := time.Now()
	srv, err := r.env.launch.Start(r.env.ctx, o)
	if err != nil {
		return nil, 0, err
	}
	return srv, time.Since(t0).Seconds(), nil
}

// stop drains (or kills) a server, first reading its peak RSS if the run has
// not reached rssOps yet.
func (r *run) stop(srv server, kill bool) error {
	if r.timedOps() < rssOps {
		r.readRSS(srv)
	}
	if kill {
		return srv.Kill()
	}
	return srv.Stop()
}

// planOp submits spec, waits for the job and fetches its report: one
// plan-ready op, traced as op → Submit, Wait, Report.
func (r *run) planOp(c *service.Client, class string, spec cli.Spec, timed bool) op {
	env, tr := r.env, r.env.tr
	id := tr.open(r.root, "op "+class)
	o := op{class: class, timed: timed}
	start := time.Now()
	var st, fin *service.JobStatus
	err := tr.call(id, "Submit", func() (err error) { st, err = c.Submit(env.ctx, spec); return })
	if err == nil {
		o.job = st.ID
		tr.setJob(id, st.ID)
		err = tr.call(id, "Wait", func() (err error) { fin, err = c.Wait(env.ctx, st.ID, 30*time.Second); return })
	}
	o.latency = time.Since(start)
	if err == nil && fin.State != service.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	var rep *service.PlanReport
	if err == nil {
		o.noteStatus(fin)
		err = tr.call(id, "Report", func() (err error) { rep, err = c.Report(env.ctx, st.ID); return })
	}
	if err != nil {
		o.err = err.Error()
		tr.close(id, err)
		r.record(o)
		return o
	}
	tr.jobSpans(id, fin, rep.Pipeline)
	o.perIter = rep.PerIterationSec
	tr.close(id, nil)
	r.record(o)
	r.plans = append(r.plans, planned{spec: spec, rep: rep})
	return o
}

// noteStatus splits an op's latency with its job's own timestamps.
func (o *op) noteStatus(st *service.JobStatus) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	o.queueWait = st.StartedAt.Sub(st.SubmittedAt)
	o.planSec = st.PlanSec
	o.overhead = o.latency - st.FinishedAt.Sub(st.SubmittedAt)
}

func classOf(spec cli.Spec) string { return fmt.Sprintf("%s/%d", spec.Model, spec.GPUs) }

// coldMix plans blocks of cold jobs, each block on a fresh server: every
// done job keeps its runner (evaluator, caches, agent) resident, so one
// server across the whole mix would grow by ~150 MB per job.
func coldMix(env *runEnv, blocks func(b int) []cli.Spec) (*run, error) {
	r := newRun(env, "cold-mix")
	for b := 0; !r.done(1); b++ {
		srv, ready, err := r.start(serverOpts{})
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, ready)
		err = r.coldBlock(srv, blocks(b))
		if serr := r.stop(srv, false); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return r, r.checkPlans()
}

func (r *run) coldBlock(srv server, block []cli.Spec) error {
	if err := r.begin(srv); err != nil {
		return err
	}
	for _, spec := range block {
		if r.env.maxOps > 0 && r.done(1) {
			break
		}
		r.planOp(srv.Client(), classOf(spec), spec, true)
	}
	return r.end(srv)
}

// setupServers starts n servers one after another, keeping the last: the
// set-up samples are their spawn-to-ready times.
func (r *run) setupServers(o serverOpts, n int) (server, []float64, error) {
	var ready []float64
	for {
		srv, sec, err := r.start(o)
		if err != nil {
			return nil, nil, err
		}
		ready = append(ready, sec)
		if len(ready) >= n {
			return srv, ready, nil
		}
		if err := srv.Stop(); err != nil {
			return nil, nil, err
		}
	}
}

// warmRepeat plans each spec once during set-up, then resubmits them in
// seeded rounds.
func warmRepeat(env *runEnv, specs []cli.Spec) (r *run, err error) {
	r = newRun(env, "warm-repeat")
	srv, ready, err := r.setupServers(serverOpts{}, 5)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := r.stop(srv, false); err == nil {
			err = serr
		}
	}()
	t0 := time.Now()
	for _, spec := range specs {
		if o := r.planOp(srv.Client(), classOf(spec), spec, false); o.err != "" {
			return nil, fmt.Errorf("warm-up %s: %s", o.class, o.err)
		}
	}
	warmup := time.Since(t0).Seconds()
	for _, sec := range ready {
		r.setups = append(r.setups, sec+warmup)
	}
	// The warm-up plans are set-up, not timed ops.
	r.ops, r.plans = nil, nil

	next := rounds(env.seed, len(specs))
	if err := r.begin(srv); err != nil {
		return nil, err
	}
	for !r.done(1) {
		for _, i := range next() {
			r.planOp(srv.Client(), classOf(specs[i]), specs[i], true)
		}
	}
	if err := r.end(srv); err != nil {
		return nil, err
	}
	return r, r.checkPlans()
}

// fleetLease submits capped jobs to a fleet-mode server on Testbed64 in
// seeded rounds of its classes.
func fleetLease(env *runEnv, classes []cli.Spec) (r *run, err error) {
	r = newRun(env, "fleet-lease")
	r.fleetGPUs = 64
	srv, ready, err := r.setupServers(serverOpts{FleetGPUs: r.fleetGPUs}, 5)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := r.stop(srv, false); err == nil {
			err = serr
		}
	}()
	r.setups = ready
	next := rounds(env.seed, len(classes))
	if err := r.begin(srv); err != nil {
		return nil, err
	}
	for !r.done(1) {
		for _, i := range next() {
			r.planOp(srv.Client(), classOf(classes[i]), classes[i], true)
		}
	}
	if err := r.end(srv); err != nil {
		return nil, err
	}
	if err := r.leaseLayers(srv.Client()); err != nil {
		return nil, err
	}
	return r, r.checkPlans()
}

// leaseLayers checks that the fleet holds no live lease once every job is
// done and counts lease events per plan.
func (r *run) leaseLayers(c *service.Client) error {
	st, err := c.Fleet(r.env.ctx)
	if err != nil {
		return err
	}
	if len(st.Leases) > 0 || len(st.Waiting) > 0 {
		r.acct.miss("fleet: %d live leases and %d waiting jobs after every job finished", len(st.Leases), len(st.Waiting))
	}
	events := 0
	for _, o := range r.ops {
		if o.job == "" {
			continue
		}
		evs, err := c.Events(r.env.ctx, o.job, 0, 0)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			switch ev.Type {
			case service.EventLeaseGranted, service.EventLeaseResized, service.EventLeaseReleased:
				events++
			}
		}
	}
	if n := len(r.plans); n > 0 {
		r.layers["fleet.lease_events_per_plan"] = float64(events) / float64(n)
	}
	return nil
}

// durableDrift runs telemetry sessions against a file-store server and, at
// the end of each of cycles equal parts of the run, SIGKILLs it while a job
// is running and restarts it on the same store. The set-up samples are the
// restarts, journal replay included.
func durableDrift(env *runEnv, gen sessionGen, cycles int) (r *run, err error) {
	r = newRun(env, "durable-drift")
	storeDir := filepath.Join(env.dir, "store")
	opts := serverOpts{StoreDir: storeDir, Node: "a"}
	srv, _, err := r.start(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv == nil {
			return
		}
		if serr := r.stop(srv, false); err == nil {
			err = serr
		}
	}()
	d := &durable{run: r}
	for cycle := 1; cycle <= cycles; cycle++ {
		if err := r.begin(srv); err != nil {
			return nil, err
		}
		for !r.done(float64(cycle) / float64(cycles)) {
			if err := d.session(srv.Client(), gen.next()); err != nil {
				return nil, err
			}
		}
		if err := r.end(srv); err != nil {
			return nil, err
		}
		if srv, err = d.killAndRestart(srv, opts, gen.kill(cycle)); err != nil {
			return nil, err
		}
	}
	bytes := 0.0
	for _, name := range []string{"journal.jsonl", "snapshot.json"} {
		if fi, err := os.Stat(filepath.Join(storeDir, name)); err == nil {
			bytes += float64(fi.Size())
		}
	}
	if n := r.timedOps(); n > 0 {
		r.layers["store.journal_bytes_per_plan"] = bytes / float64(n)
	}
	st, err := srv.Client().Stats(env.ctx)
	if err != nil {
		return nil, err
	}
	r.layers["store.replay_s"] = st.Recovery.Sec
	d.telemetryLayers()
	return r, r.checkPlans()
}

// durable is durable-drift's bookkeeping across sessions and restarts.
type durable struct {
	*run
	// accepted lists every job the server accepted: session jobs, the jobs
	// killed in flight and every automatic replan.
	accepted []string
	// logs lists the jobs whose event logs must stay dense across restarts.
	logs     []string
	sessions int
	replans  int
	adopted  int
	pushes   []float64
}

// session plans spec, then pushes the seeded drift trace one tick at a time;
// a push that fires a drift episode starts a replan op, which ends when the
// replan's terminal event arrives.
func (d *durable) session(c *service.Client, s session) error {
	env := d.env
	o := d.planOp(c, classOf(s.spec), s.spec, true)
	if o.job != "" {
		d.accepted = append(d.accepted, o.job)
		d.logs = append(d.logs, o.job)
	}
	if o.err != "" {
		return nil
	}
	d.sessions++
	gen := telemetry.NewGenerator(cluster.Testbed8(), telemetry.GenConfig{Seed: s.traceSeed})
	var seen uint64
	for !gen.Done() && !(env.maxOps > 0 && d.done(1)) {
		readings := gen.Step()
		id := env.tr.open(d.root, "op replan/"+s.spec.Model)
		env.tr.setJob(id, o.job)
		t0 := time.Now()
		var ack *service.TelemetryAck
		err := env.tr.call(id, "PushTelemetry", func() (err error) { ack, err = c.PushTelemetry(env.ctx, o.job, readings); return })
		d.pushes = append(d.pushes, time.Since(t0).Seconds())
		if err != nil {
			env.tr.close(id, err)
			return fmt.Errorf("push telemetry to %s: %w", o.job, err)
		}
		if !ack.Fired {
			// Pushes that fire nothing are not ops; keep them out of the trace.
			env.tr.close(id, nil)
			continue
		}
		rop := op{class: "replan/" + s.spec.Model, timed: true}
		for rop.job == "" && rop.err == "" {
			var evs []service.PlanEvent
			err := env.tr.call(id, "Events", func() (err error) { evs, err = c.Events(env.ctx, o.job, seen, 10*time.Second); return })
			if err != nil {
				env.tr.close(id, err)
				return fmt.Errorf("events of %s: %w", o.job, err)
			}
			for _, ev := range evs {
				seen = ev.Seq
				switch ev.Type {
				case service.EventReplanAdopted, service.EventReplanKeptIncumbent:
					rop.job, rop.perIter = ev.ReplanJob, ev.NewPerIterSec
					if ev.Type == service.EventReplanAdopted {
						d.adopted++
					}
				case service.EventReplanFailed:
					rop.job, rop.err = ev.ReplanJob, "replan failed: "+ev.Reason
				}
			}
			if time.Since(t0) > 2*time.Minute {
				rop.err = "replan never reached a terminal event"
			}
		}
		rop.latency = time.Since(t0)
		d.replans++
		if rop.job != "" {
			d.accepted = append(d.accepted, rop.job)
		}
		if env.tr != nil && rop.job != "" {
			// Traced runs also split replan latency with the replan job's
			// own timestamps.
			if st, err := c.Status(env.ctx, rop.job); err == nil {
				rop.noteStatus(st)
				env.tr.jobSpans(id, st, nil)
			}
		}
		env.tr.close(id, nil)
		d.record(rop)
	}
	return nil
}

// killAndRestart submits a cold job, SIGKILLs the server once the job is
// running, restarts the server on the same store and checks recovery: every
// accepted job is still there, every event log is dense from seq 1, and the
// killed job is re-planned to done with recovered set.
func (d *durable) killAndRestart(srv server, opts serverOpts, spec cli.Spec) (server, error) {
	ctx, c := d.env.ctx, srv.Client()
	o := op{class: "killed/" + spec.Model}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return srv, fmt.Errorf("submit the job to kill under: %w", err)
	}
	o.job = st.ID
	d.accepted = append(d.accepted, st.ID)
	d.logs = append(d.logs, st.ID)
	for st.State != service.JobRunning {
		if st.State.Terminal() {
			return srv, fmt.Errorf("job %s ended %s before the kill", st.ID, st.State)
		}
		time.Sleep(time.Millisecond)
		if st, err = c.Status(ctx, o.job); err != nil {
			return srv, err
		}
	}
	if err := d.stop(srv, true); err != nil {
		return nil, err
	}
	srv, ready, err := d.start(opts)
	if err != nil {
		return nil, fmt.Errorf("restart on the same store: %w", err)
	}
	d.setups = append(d.setups, ready)
	c = srv.Client()

	for _, id := range d.accepted {
		if _, err := c.Status(ctx, id); err != nil {
			d.acct.miss("job %s lost on restart: %v", id, err)
		}
	}
	for _, id := range d.logs {
		evs, err := c.Events(ctx, id, 0, 0)
		if err != nil {
			d.acct.miss("event log of %s: %v", id, err)
			continue
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i)+1 {
				d.acct.miss("event log of %s has seq %d at position %d", id, ev.Seq, i+1)
				break
			}
		}
	}
	t0 := time.Now()
	fin, err := c.Wait(ctx, o.job, 30*time.Second)
	o.latency = time.Since(t0)
	switch {
	case err != nil:
		o.err = err.Error()
	case fin.State != service.JobDone || !fin.Recovered:
		o.err = fmt.Sprintf("killed job %s ended %s (recovered=%v)", fin.ID, fin.State, fin.Recovered)
	}
	d.record(o)
	return srv, nil
}

func (d *durable) telemetryLayers() {
	d.layers["telemetry.push_ms_p50"] = 1e3 * nearestRank(d.pushes, 50)
	if d.sessions > 0 {
		d.layers["telemetry.replans_per_session"] = float64(d.replans) / float64(d.sessions)
	}
	if d.replans > 0 {
		d.layers["telemetry.adopted_ratio"] = float64(d.adopted) / float64(d.replans)
	}
}

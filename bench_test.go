package heterog_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6) plus the appendix. Each benchmark regenerates its
// exhibit through internal/experiments and reports the headline quantity as
// a custom metric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. Absolute numbers come from the bundled simulator (see
// DESIGN.md); EXPERIMENTS.md records paper-vs-measured values.

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"heterog/internal/agent"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/experiments"
	"heterog/internal/gnn"
	"heterog/internal/models"
	"heterog/internal/nn"
	"heterog/internal/plan"
	"heterog/internal/policy"
	"heterog/internal/sched"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

// benchLab is shared across benchmarks so that strategies planned for one
// table are reused by the others, exactly as the experiment harness does.
var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Config{Episodes: 2, Seed: 1})
	})
	return benchLab
}

func BenchmarkTable1PerIteration8GPUs(b *testing.B) {
	var rows []experiments.PerIterRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: geometric-mean speedup of HeteroG over the best DP baseline
	// across feasible standard workloads.
	logSum, n := 0.0, 0
	for _, r := range rows {
		best := math.Inf(1)
		for _, t := range r.Baseline {
			best = math.Min(best, t)
		}
		if math.IsInf(best, 1) || math.IsInf(r.HeteroG, 1) {
			continue
		}
		logSum += math.Log(best / r.HeteroG)
		n++
	}
	b.ReportMetric(math.Exp(logSum/float64(n)), "geomean-speedup-vs-bestDP")
}

func BenchmarkTable2StrategyShares(b *testing.B) {
	var rows []experiments.StatsRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	var mp float64
	for _, r := range rows {
		for _, v := range r.Stats.MPShare {
			mp += v
		}
	}
	b.ReportMetric(100*mp/float64(len(rows)), "avg-MP-share-%")
}

func BenchmarkTable3LargeModelShares(b *testing.B) {
	var rows []experiments.StatsRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	var mp float64
	for _, r := range rows {
		for _, v := range r.Stats.MPShare {
			mp += v
		}
	}
	b.ReportMetric(100*mp/float64(len(rows)), "avg-MP-share-%")
}

func BenchmarkTable4PerIteration12GPUs(b *testing.B) {
	var rows []experiments.PerIterRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	logSum, n := 0.0, 0
	for _, r := range rows {
		best := math.Inf(1)
		for _, t := range r.Baseline {
			best = math.Min(best, t)
		}
		if math.IsInf(best, 1) || math.IsInf(r.HeteroG, 1) {
			continue
		}
		logSum += math.Log(best / r.HeteroG)
		n++
	}
	b.ReportMetric(math.Exp(logSum/float64(n)), "geomean-speedup-vs-bestDP")
}

func BenchmarkTable5EndToEnd(b *testing.B) {
	var rows []experiments.EndToEndRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	var speedup float64
	for _, r := range rows {
		speedup += (r.CPARMin - r.HeteroGMin) / r.HeteroGMin
	}
	b.ReportMetric(100*speedup/float64(len(rows)), "avg-speedup-vs-CPAR-%")
}

func BenchmarkTable6Generalization(b *testing.B) {
	// The full leave-one-out protocol trains GNNs; one representative
	// held-out model keeps the benchmark affordable. Use
	// `heterog-bench -exp table6 -unseen ...` for the full sweep.
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table6([]string{"mobilenet_v2"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RatioPercent, "finetune/scratch-%")
}

func BenchmarkTable7OrderScheduling(b *testing.B) {
	var rows []experiments.OrderRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sp float64
	for _, r := range rows {
		sp += r.SpeedupPercent
	}
	b.ReportMetric(sp/float64(len(rows)), "avg-order-speedup-%")
}

func BenchmarkFig3aProportionalReplicas(b *testing.B) {
	var rows []experiments.Fig3aRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Fig3a()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sp float64
	for _, r := range rows {
		sp += r.SpeedupPercent
	}
	b.ReportMetric(sp/float64(len(rows)), "avg-prop-speedup-%")
}

func BenchmarkFig3bOpTimeSpread(b *testing.B) {
	var rows []experiments.Fig3bRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Fig3b()
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		lo = math.Min(lo, r.GTX1080Ti)
		hi = math.Max(hi, r.GTX1080Ti)
	}
	b.ReportMetric(hi/lo, "speedup-spread")
}

func BenchmarkFig8TimeBreakdown(b *testing.B) {
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	// HeteroG's overlap ratio on VGG (row 1) vs the CP baseline (row 0).
	b.ReportMetric(rows[1].OverlapRatio, "heterog-overlap-ratio")
	b.ReportMetric(rows[0].OverlapRatio, "baseline-overlap-ratio")
}

func BenchmarkFig9ExistingSchemes(b *testing.B) {
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	var hg float64
	for _, r := range rows {
		hg += r.Speeds["HeteroG"]
	}
	b.ReportMetric(hg/float64(len(rows)), "avg-speed-vs-horovod")
}

func BenchmarkFig12Motivation(b *testing.B) {
	var rows []experiments.MotivationRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Motivation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Hetero/rows[0].Homog, "allreduce-hetero-slowdown")
}

func BenchmarkAppendixSchedulerBound(b *testing.B) {
	var rows []experiments.AppendixResult
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Appendix()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].RatioLS, "worstcase-LS-ratio")
}

func BenchmarkAblationMechanisms(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = lab().Ablation()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mechanism == "Sparse embedding PS" {
			b.ReportMetric(r.DeltaPct, "densePS-slowdown-%")
		}
	}
}

// BenchmarkPlannerVGG19 measures the end-to-end planning cost (profile +
// candidates + strategy search) for one workload — the "time to produce a
// deployment" a user of GetRunner experiences.
func BenchmarkPlannerVGG19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lab().HeteroG("vgg19", 192, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Evaluation fast-path benchmarks (see BENCH_eval.json for the recorded
// seed-vs-optimized baselines; DESIGN.md documents the fast path). ---

func benchEvaluator(b *testing.B) *core.Evaluator {
	b.Helper()
	g, err := models.VGG19(64)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed4().FullView(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func benchStrategy(b *testing.B, ev *core.Evaluator) *strategy.Strategy {
	b.Helper()
	gr, err := strategy.Group(ev.Graph, ev.Cost, 500)
	if err != nil {
		b.Fatal(err)
	}
	return strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenAR})
}

// BenchmarkEvaluateCold measures the full compile → rank → simulate pipeline
// with both the evaluation cache and the lowered-artifact cache disabled, so
// every op lowers, verifies, orders and simulates the strategy from scratch:
// the price of one candidate no cache has seen.
func BenchmarkEvaluateCold(b *testing.B) {
	ev := benchEvaluator(b)
	ev.Cache, ev.Lowered = nil, nil
	s := benchStrategy(b, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCached measures the cache-hit fast path: identical
// resampled strategies short-circuit compile and simulation entirely.
func BenchmarkEvaluateCached(b *testing.B) {
	ev := benchEvaluator(b)
	s := benchStrategy(b, ev)
	if _, err := ev.Evaluate(s); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := ev.Cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
}

// BenchmarkRunEpisodesSequential is the pre-batching episode loop: one
// forward pass, one decode and one evaluation per episode, 8 episodes per op.
func BenchmarkRunEpisodesSequential(b *testing.B) {
	ev := benchEvaluator(b)
	ev.Cache = nil // isolate rollout mechanics from memoization wins
	a, err := agent.New(agent.DefaultConfig(4), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			if _, err := a.RunEpisode(ev, false, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// BenchmarkRunEpisodesParallel is the batched fast path: 8 strategies decoded
// from one forward pass and evaluated concurrently over the worker pool.
func BenchmarkRunEpisodesParallel(b *testing.B) {
	ev := benchEvaluator(b)
	ev.Cache = nil // isolate rollout mechanics from memoization wins
	a, err := agent.New(agent.DefaultConfig(4), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RunEpisodes(ev, 8, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// --- Fleet-scale cold-path benchmarks (the cold_path_64dev section of
// BENCH_eval.json; DESIGN.md §10 documents the pruning layers). ---

func benchEvaluator64(b *testing.B) *core.Evaluator {
	b.Helper()
	g, err := models.VGG19(256)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed64().FullView(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkEvaluateCold64 measures one exact cold evaluation on the
// 64-device testbed, with both caches disabled so every op lowers the
// strategy from scratch — the per-candidate price the planner paid for every
// sampled strategy before bound-based pruning.
func BenchmarkEvaluateCold64(b *testing.B) {
	ev := benchEvaluator64(b)
	ev.Cache, ev.Lowered = nil, nil
	s := benchStrategy(b, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBounded64Pruned measures the certified-loser path: an
// all-MP candidate screened out by the analytic pre-lowering bound against a
// data-parallel incumbent — no compilation, no simulation.
func BenchmarkEvaluateBounded64Pruned(b *testing.B) {
	ev := benchEvaluator64(b)
	ev.Cache = nil
	ev.EnablePruning(nil)
	dp := benchStrategy(b, ev)
	inc, err := ev.Evaluate(dp)
	if err != nil {
		b.Fatal(err)
	}
	bound := inc.Score()
	mp := strategy.Uniform(dp.Grouping, strategy.Decision{Kind: strategy.MP, Device: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := ev.EvaluateBounded(mp, bound)
		if err != nil {
			b.Fatal(err)
		}
		if !e.Pruned {
			b.Fatal("expected the all-MP candidate to be pruned")
		}
	}
}

// BenchmarkRunEpisodes64 is the PR-1-style batched episode loop on the
// 64-device testbed with pruning off: 8 strategies decoded from one forward
// pass, every one fully compiled and simulated. This is the baseline the
// cold_path_64dev throughput claim is measured against.
func BenchmarkRunEpisodes64(b *testing.B) {
	ev := benchEvaluator64(b)
	ev.Cache = nil // isolate rollout mechanics from memoization wins
	a, err := agent.New(agent.DefaultConfig(64), 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RunEpisodes(ev, 8, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// BenchmarkRunEpisodes64Pruned is the same episode loop with bound-based
// pruning armed: analytic bound screening and early-abort simulation against
// a data-parallel incumbent.
func BenchmarkRunEpisodes64Pruned(b *testing.B) {
	ev := benchEvaluator64(b)
	ev.Cache = nil // isolate pruning wins from memoization wins
	ev.EnablePruning(nil)
	a, err := agent.New(agent.DefaultConfig(64), 64)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := ev.Evaluate(benchStrategy(b, ev))
	if err != nil {
		b.Fatal(err)
	}
	bound := inc.Score()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.RunEpisodesBounded(ev, 8, false, bound); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "episodes/s")
	rep := ev.PipelineReport()
	b.ReportMetric(float64(rep.Pruning.PrunedPreLower), "pruned-pre")
	b.ReportMetric(float64(rep.Pruning.SimsAborted), "sims-aborted")
}

// benchMutationWalk times one mutationWalk step per op, the walk that
// TestIncrementalSpeedupGate gates.
func benchMutationWalk(b *testing.B, delta bool) {
	w := newMutationWalk(b, delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
	rep := w.ev.PipelineReport()
	b.ReportMetric(float64(rep.Pruning.DeltaCompiles), "delta-compiles")
	b.ReportMetric(float64(rep.Pruning.OpsRelowered), "ops-relowered")
	b.ReportMetric(float64(rep.Reused), "reused")
}

// BenchmarkRunEpisodes64Incremental is the incremental_64dev exhibit: the
// mutation walk through the delta path (patch compilation and the zero-diff
// memo). Compare BenchmarkRunEpisodes64MutationFull for the same walk paying
// full price; TestIncrementalSpeedupGate (make bench-smoke) hard-fails CI
// when the ratio drops below 2x.
func BenchmarkRunEpisodes64Incremental(b *testing.B) {
	benchMutationWalk(b, true)
}

// BenchmarkRunEpisodes64MutationFull is the denominator of the
// incremental_64dev ratio: the identical walk through the full pipeline.
func BenchmarkRunEpisodes64MutationFull(b *testing.B) {
	benchMutationWalk(b, false)
}

// BenchmarkSimReuse measures a reused Simulator on a precompiled graph —
// the zero-alloc steady state (compare the seed sim.Run baseline recorded in
// BENCH_eval.json: 7188 allocs/op).
func BenchmarkSimReuse(b *testing.B) {
	ev := benchEvaluator(b)
	s := benchStrategy(b, ev)
	dg, err := plan.CompileIter(ev.Graph, ev.Cluster.Cluster, s, ev.Cost, 3)
	if err != nil {
		b.Fatal(err)
	}
	pr := sched.Ranks(dg)
	sm := sim.NewSimulator()
	if _, err := sm.RunBounded(dg, pr, math.Inf(1)); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.RunBounded(dg, pr, math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPooledRun measures the compatibility wrapper (pooled simulator
// plus a cloned caller-owned Result).
func BenchmarkSimPooledRun(b *testing.B) {
	ev := benchEvaluator(b)
	s := benchStrategy(b, ev)
	dg, err := plan.CompileIter(ev.Graph, ev.Cluster.Cluster, s, ev.Cost, 3)
	if err != nil {
		b.Fatal(err)
	}
	pr := sched.Ranks(dg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(dg, pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorBert measures the simulator's throughput on the largest
// standard workload (~10k dist-ops across 3 chained iterations).
func BenchmarkSimulatorBert(b *testing.B) {
	shared, err := lab().Evaluator("bert24", 48, 8)
	if err != nil {
		b.Fatal(err)
	}
	// Work on an uncached twin: this benchmark measures compile+simulate
	// throughput, which memoization would short-circuit after one iteration.
	uncached := *shared
	uncached.Cache = nil
	ev := &uncached
	be, err := lab().Baseline("bert24", 48, 8, strategy.DPEvenPS)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(be.Strategy); err != nil {
			b.Fatal(err)
		}
	}
}

// policyStep is one policy step on a 500-group graph (ResNet-200 on
// Testbed8, grouped as the agent groups it): the GAT encoder and the
// strategy network forward, the REINFORCE surrogate, and the backward pass.
type policyStep struct {
	gat       *gnn.GAT
	net       *policy.Network
	features  *nn.Matrix
	neighbors [][]int
	members   [][]int
	picks     []int
	weights   []float64
}

func newPolicyStep(b *testing.B) *policyStep {
	g, err := models.Build("resnet200", 64)
	if err != nil {
		b.Fatal(err)
	}
	view := cluster.Testbed8().FullView()
	ev, err := core.NewEvaluator(g, view, 1)
	if err != nil {
		b.Fatal(err)
	}
	gr, err := strategy.Group(g, ev.Cost, agent.DefaultConfig(view.NumDevices()).MaxGroups)
	if err != nil {
		b.Fatal(err)
	}
	m := view.NumDevices()
	rng := rand.New(rand.NewSource(1))
	gat, err := gnn.New(gnn.DefaultConfig(agent.FeatureDim(m)), rng)
	if err != nil {
		b.Fatal(err)
	}
	net, err := policy.New(policy.DefaultConfig(gat.OutDim, strategy.ActionSpaceSize(m)), rng)
	if err != nil {
		b.Fatal(err)
	}
	features := nn.NewMatrix(g.NumOps(), agent.FeatureDim(m))
	features.Randomize(rng)
	var edges [][2]int
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			edges = append(edges, [2]int{in.ID, op.ID})
		}
	}
	picks := make([]int, gr.NumGroups())
	weights := make([]float64, gr.NumGroups())
	for i := range picks {
		picks[i] = rng.Intn(strategy.ActionSpaceSize(m))
		weights[i] = rng.NormFloat64()
	}
	return &policyStep{
		gat:       gat,
		net:       net,
		features:  features,
		neighbors: gnn.Neighborhoods(g.NumOps(), edges),
		members:   gr.Members,
		picks:     picks,
		weights:   weights,
	}
}

// run performs one step on a tape drawn from and returned to the shared
// pool, as the agent's rollout batches do. It only reads the network's
// parameters, so steps may run concurrently.
func (s *policyStep) run() error {
	t := nn.GetTape()
	defer nn.PutTape(t)
	var params []*nn.Node
	groups, err := s.gat.Forward(t, s.features, s.neighbors, s.members, &params)
	if err != nil {
		return err
	}
	probs, err := s.net.Forward(t, groups, &params)
	if err != nil {
		return err
	}
	return t.Backward(t.GatherLogProbs(probs, s.picks, s.weights))
}

// BenchmarkPolicyStep measures one policy step on a 500-group graph. Run
// with -benchmem: allocations per op track how much of the step the tape
// arena recycles. With -cpu 1 the kernels run on one goroutine; above it
// they split their rows into bands across cores.
func BenchmarkPolicyStep(b *testing.B) {
	s := newPolicyStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s.members)), "groups")
}

// BenchmarkPolicyStepConcurrent runs GOMAXPROCS policy steps at once, each
// on its own tape, as the planning service's worker pool (Workers =
// GOMAXPROCS) runs jobs. Every step's kernels fork their own row bands, so
// this is the oversubscribed case; ns/op is wall time over all steps, the
// inverse of aggregate throughput.
func BenchmarkPolicyStepConcurrent(b *testing.B) {
	s := newPolicyStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.run(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(len(s.members)), "groups")
}

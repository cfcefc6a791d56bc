// Command heterog-plan plans a single model on a canned topology: it runs
// HeteroG's strategy search, prints the per-iteration comparison against the
// four DP baselines, and can save the chosen strategy as JSON and the
// simulated schedule as a Chrome trace (chrome://tracing / Perfetto).
//
// With -faults K it additionally scores the plan across K deterministic
// fault scenarios (stragglers, degraded links, device loss, shrunken memory)
// and prints the nominal/p95/worst-case robustness report; -robust makes the
// search itself optimize the blended nominal/worst-case objective.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"heterog/internal/agent"
	"heterog/internal/baselines"
	"heterog/internal/cli"
	"heterog/internal/core"
	"heterog/internal/faults"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

func main() {
	log.SetFlags(0)
	var spec cli.Spec
	spec.RegisterModelFlags(flag.CommandLine, "vgg19", 192)
	spec.RegisterClusterFlags(flag.CommandLine, 8)
	spec.RegisterSearchFlags(flag.CommandLine, 4)
	spec.RegisterFaultFlags(flag.CommandLine, 0)
	verbose := flag.Bool("v", false, "print per-unit busy times and evaluation-cache stats")
	savePath := flag.String("save", "", "write the HeteroG strategy as JSON to this path")
	tracePath := flag.String("trace", "", "write the simulated schedule as a Chrome trace to this path")
	dumpPasses := flag.Bool("dump-passes", false, "print per-pass planning-pipeline stats (timings, op/byte counts, recompiles avoided)")
	flag.Parse()

	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	c, err := spec.BuildCluster()
	if err != nil {
		log.Fatal(err)
	}
	g, err := spec.BuildGraph()
	if err != nil {
		log.Fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("model %s  batch %d  ops %d  edges %d  params %.1f MB  flops %.1f G\n",
		g.Name, g.BatchSize, st.Ops, st.Edges, float64(st.ParamBytes)/(1<<20), st.TotalFLOPs/1e9)

	cv := c.FullView()
	ev, err := core.NewEvaluator(g, cv, spec.Seed)
	if err != nil {
		log.Fatal(err)
	}
	var scenarios []*faults.Scenario
	if spec.FaultK > 0 {
		scenarios = faults.Generate(cv, faults.DefaultModel(spec.FaultK, spec.FaultSeed))
		if spec.Robust {
			// Enable before planning: search optimizes the blended
			// nominal/worst-case objective.
			if err := ev.EnableRobustness(scenarios, spec.Blend); err != nil {
				log.Fatal(err)
			}
		}
	}
	report := func(label string, e *core.Evaluation) {
		status := fmt.Sprintf("%.3fs", e.PerIter)
		if e.Result.OOM() {
			status = "OOM"
		}
		fmt.Printf("%-8s per-iter %-8s compute %.3fs comm %.3fs peakMem[0] %.2f GB peakMem[last] %.2f GB\n",
			label, status, e.ComputeTime, e.CommTime,
			float64(e.Result.PeakMem[0])/(1<<30), float64(e.Result.PeakMem[len(e.Result.PeakMem)-1])/(1<<30))
		if *verbose {
			iters := float64(e.Dist.Iterations)
			for u, b := range e.Result.BusyTime {
				if b > 0 {
					fmt.Printf("    unit %2d kind %v busy/iter %.3fs\n", u, e.Dist.UnitKindOf(u), b/iters)
				}
			}
		}
	}

	acfg := agent.DefaultConfig(c.NumDevices())
	if spec.BatchEpisodes > 0 {
		acfg.BatchEpisodes = spec.BatchEpisodes
	}
	if !spec.Exact {
		// Cold-path pruning, winner-preserving; after EnableRobustness so
		// scenario twins inherit the bound screens.
		ev.EnablePruning(nil)
	}
	ag, err := agent.New(acfg, c.NumDevices())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := ag.Plan(ev, spec.Episodes)
	if err != nil {
		log.Fatal(err)
	}
	report("HeteroG", plan)
	if len(scenarios) > 0 {
		if plan.Robust == nil {
			// Report-only mode: score the nominally planned strategy across
			// the scenarios after the fact.
			if err := ev.EnableRobustness(scenarios, spec.Blend); err != nil {
				log.Fatal(err)
			}
			if plan, err = ev.Evaluate(plan.Strategy); err != nil {
				log.Fatal(err)
			}
		}
		rr := plan.Robust
		fmt.Printf("robustness over %d fault scenarios (seed %d, blend %.2f, objective: %s):\n",
			len(rr.Times), spec.FaultSeed, rr.Blend, map[bool]string{true: "robust", false: "nominal"}[spec.Robust])
		fmt.Printf("  nominal    %.3fs/iter\n", rr.Nominal)
		fmt.Printf("  p95        %.3fs/iter\n", rr.P95)
		fmt.Printf("  worst-case %.3fs/iter  (%s)\n", rr.Worst, rr.WorstScenario)
		fmt.Printf("  OOM under fault: %d/%d scenarios\n", rr.OOMFaults, len(rr.Times))
		if *verbose {
			for k, sc := range scenarios {
				status := fmt.Sprintf("%.3fs", rr.Times[k])
				if rr.OOMs[k] {
					status += " OOM"
				}
				fmt.Printf("    %-28s %s\n", sc.Name, status)
			}
		}
	}
	if *verbose && ev.Cache != nil {
		cs := ev.Cache.Stats()
		fmt.Printf("eval cache: %d hits / %d misses / %d evictions (%d entries)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Len)
	}
	if *verbose && !spec.Exact {
		pr := ev.PipelineReport().Pruning
		fmt.Printf("pruning: %d bounds tried / %d pre-lowering / %d post-lowering / %d sims aborted (saved ~%s)\n",
			pr.BoundsTried, pr.PrunedPreLower, pr.PrunedPostLower, pr.SimsAborted, pr.TimeSaved.Round(time.Millisecond))
	}
	for _, kind := range []strategy.DecisionKind{strategy.DPEvenPS, strategy.DPEvenAR, strategy.DPPropPS, strategy.DPPropAR} {
		e, err := baselines.EvaluateDP(ev, kind)
		if err != nil {
			log.Fatal(err)
		}
		report(kind.String(), e)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := plan.Strategy.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy saved to %s\n", *savePath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.WriteChromeTrace(f, plan.Dist, plan.Result); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule trace saved to %s (open in chrome://tracing)\n", *tracePath)
	}
	if *verbose {
		fmt.Print(sim.GanttSummary(plan.Dist, plan.Result))
	}
	if *dumpPasses {
		pr := ev.PipelineReport()
		fmt.Printf("planning pipeline (%d lowerings, %d recompiles avoided via cached artifacts):\n",
			pr.Lowerings, pr.Reused)
		fmt.Printf("  %-22s %6s %12s %10s %14s\n", "pass", "runs", "total", "ops", "bytes")
		for _, ps := range pr.Passes {
			fmt.Printf("  %-22s %6d %12s %10d %14d\n", ps.Name, ps.Runs, ps.Total.Round(time.Microsecond), ps.Ops, ps.Bytes)
		}
	}
}

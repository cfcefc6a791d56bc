// Command heterog-bench regenerates the paper's tables and figures.
//
//	heterog-bench -exp table1          # one exhibit
//	heterog-bench -exp all             # everything (slow)
//	heterog-bench -exp table6 -unseen vgg19,nasnet
//	heterog-bench -exp robust -faults 4 -robust -out BENCH_robust.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"heterog/internal/cli"
	"heterog/internal/experiments"
)

// writeJSON records a bench exhibit's typed rows for BENCH_*.json files.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	var spec cli.Spec
	exp := flag.String("exp", "table1", "exhibit: table1,table2,table3,table4,table5,table6,table7,fig3a,fig3b,fig8,fig9,fig12,ablation,appendix,robust,all")
	flag.IntVar(&spec.Episodes, "episodes", 6, "RL episodes per model when planning HeteroG strategies")
	flag.Int64Var(&spec.Seed, "seed", 1, "random seed")
	unseen := flag.String("unseen", "", "comma-separated held-out models for table6")
	spec.RegisterFaultFlags(flag.CommandLine, 4)
	out := flag.String("out", "", "write the robust exhibit's rows as JSON to this path")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the exhibit run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this path")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}()

	lab := experiments.NewLab(experiments.Config{Episodes: spec.Episodes, Seed: spec.Seed})
	run := func(name string) error {
		t0 := time.Now()
		var rep *experiments.Report
		var err error
		switch name {
		case "table1":
			rep, _, err = lab.Table1()
		case "table2":
			rep, _, err = lab.Table2()
		case "table3":
			rep, _, err = lab.Table3()
		case "table4":
			rep, _, err = lab.Table4()
		case "table5":
			rep, _, err = lab.Table5()
		case "table6":
			var held []string
			if *unseen != "" {
				held = strings.Split(*unseen, ",")
			}
			rep, _, err = lab.Table6(held)
		case "table7":
			rep, _, err = lab.Table7()
		case "fig3a":
			rep, _, err = lab.Fig3a()
		case "fig3b":
			rep, _, err = lab.Fig3b()
		case "fig8":
			rep, _, err = lab.Fig8()
		case "fig9":
			rep, _, err = lab.Fig9()
		case "fig12":
			rep, _, err = experiments.Motivation()
		case "ablation":
			rep, _, err = lab.Ablation()
		case "robust":
			var rows []experiments.RobustRow
			rep, rows, err = lab.Robust(spec.FaultK, spec.FaultSeed, spec.Robust, spec.Blend)
			if err == nil && *out != "" {
				if werr := writeJSON(*out, rows); werr != nil {
					return werr
				}
				fmt.Printf("robustness rows saved to %s\n", *out)
			}
		case "appendix":
			rep, _, err = experiments.Appendix()
		default:
			return fmt.Errorf("unknown exhibit %q", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s regenerated in %s)\n\n", name, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig12", "fig3a", "fig3b", "table1", "table2", "table3", "table4", "table5", "table7", "fig8", "fig9", "ablation", "appendix", "table6", "robust"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			log.Fatal(err)
		}
	}
}

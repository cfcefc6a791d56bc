// Command heterog-train trains the GNN agent with reinforcement learning
// over a set of benchmark graphs (§4.1.3), optionally holding one out to
// measure generalization (Table 6's protocol), and prints the per-graph
// reward traces and best strategies found.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"heterog/internal/agent"
	"heterog/internal/cli"
	"heterog/internal/core"
	"heterog/internal/models"
)

func main() {
	log.SetFlags(0)
	var spec cli.Spec
	modelsFlag := flag.String("models", "vgg19,mobilenet_v2,inception_v3", "comma-separated training graphs")
	spec.RegisterClusterFlags(flag.CommandLine, 8)
	spec.RegisterSearchFlags(flag.CommandLine, 40)
	patience := flag.Int("patience", 8, "stop a graph after this many episodes without improvement")
	loadPath := flag.String("load", "", "warm-start from an agent checkpoint (Table 6's fine-tuning protocol)")
	savePath := flag.String("save", "", "write the trained agent checkpoint to this path")
	flag.Parse()

	c, err := spec.BuildCluster()
	if err != nil {
		log.Fatal(err)
	}

	var evs []*core.Evaluator
	for _, key := range strings.Split(*modelsFlag, ",") {
		key = strings.TrimSpace(key)
		batch := cli.DefaultBatch(key, spec.GPUs, 192)
		g, err := models.Build(key, batch)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := core.NewEvaluator(g, c.FullView(), spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		evs = append(evs, ev)
		fmt.Printf("training graph: %s (batch %d, %d ops)\n", g.Name, batch, g.NumOps())
	}

	cfg := agent.DefaultConfig(c.NumDevices())
	cfg.Seed = spec.Seed
	ag, err := agent.New(cfg, c.NumDevices())
	if err != nil {
		log.Fatal(err)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ag.LoadWeights(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("warm-started from %s\n", *loadPath)
	}
	t0 := time.Now()
	results, err := ag.Train(evs, spec.Episodes, *patience)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained in %s\n", time.Since(t0).Round(time.Millisecond))
	for i, r := range results {
		fmt.Printf("%-28s episodes %3d  best reward %.4f  best per-iter %.3fs\n",
			evs[i].Graph.Name, r.Episodes, r.BestReward, r.BestTime)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ag.SaveWeights(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint saved to %s\n", *savePath)
	}
}

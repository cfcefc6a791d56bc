package heterog_test

import (
	"errors"
	"fmt"

	"heterog"
	"heterog/internal/cluster"
	"heterog/internal/graph"
	"heterog/internal/models"
)

// ExampleGetRunner mirrors the paper's Fig-5 workflow: define a single-GPU
// model and input pipeline, describe the devices, and run the planned
// distributed deployment.
func ExampleGetRunner() {
	runner, err := heterog.GetRunner(
		heterog.ZooModel(models.MobileNetV2, 64), // model_func
		func() (int, error) { return 64, nil },   // input_func
		cluster.Testbed4(),                       // device_info
		heterog.WithEpisodes(0),                  // heterog_config
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report, err := runner.Run(10)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("model:", runner.Graph.Name)
	fmt.Println("steps:", report.Steps)
	fmt.Println("feasible:", report.PerIterationSec > 0)
	// Output:
	// model: MobileNet_v2
	// steps: 10
	// feasible: true
}

// ExampleGetRunner_options shows the functional-options API with
// robustness-aware search: the plan is scored on 4 deterministic fault
// scenarios and search optimizes a 50/50 blend of nominal and worst-case
// reward.
func ExampleGetRunner_options() {
	runner, err := heterog.GetRunner(
		heterog.ZooModel(models.MobileNetV2, 64),
		func() (int, error) { return 64, nil },
		cluster.Testbed4(),
		heterog.WithEpisodes(1),
		heterog.WithSeed(1),
		heterog.WithRobustness(4, 0.5),
		heterog.WithFaultSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rr := runner.RobustReport()
	fmt.Println("model:", runner.Graph.Name)
	fmt.Println("scenarios:", rr.Scenarios)
	fmt.Println("worst >= nominal:", rr.WorstSec >= rr.NominalSec)
	fmt.Println("oom under fault:", rr.OOMUnderFault)
	// Output:
	// model: MobileNet_v2
	// scenarios: 4
	// worst >= nominal: true
	// oom under fault: 0
}

// ExampleErrOOM shows detecting infeasibility with errors.Is: a model that
// cannot fit the described devices at the requested batch yields ErrOOM
// rather than a plan that would crash in production.
func ExampleErrOOM() {
	tiny := cluster.New("tiny", cluster.Config{
		GPUs:          2,
		Model:         cluster.GPUModel{Name: "Tiny", PeakTFLOPS: 5, MemBytes: 4 << 30, Power: 1},
		NICBandwidth:  cluster.Gbps(10),
		PCIeBandwidth: cluster.Gbps(32),
	})
	_, err := heterog.GetRunner(
		heterog.ZooModel(func(b int) (*graph.Graph, error) { return models.BertLarge(48, b) }, 24),
		func() (int, error) { return 24, nil },
		tiny,
		heterog.WithEpisodes(0),
	)
	fmt.Println("out of memory:", errors.Is(err, heterog.ErrOOM))
	// Output:
	// out of memory: true
}

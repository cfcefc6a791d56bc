// Package cli holds the workload specification shared by every entry point:
// the heterog-plan / heterog-bench / heterog-train command lines and the
// planning service's JSON job payloads all decode into the same Spec, so a
// workload that plans from the shell plans identically over HTTP.
//
// A Spec names the model (a zoo model by key, or a serialized graph in the
// internal/graph JSON wire format), the cluster (a canned testbed by GPU
// count, or an explicit server-by-server description), and the search knobs
// (episodes, seeds, execution order, fault/robustness configuration).
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"heterog/internal/cluster"
	"heterog/internal/graph"
	"heterog/internal/models"
	"heterog/internal/telemetry"
)

// ServerSpec describes one server class of a custom cluster.
type ServerSpec struct {
	// GPUs is the device count of this server.
	GPUs int `json:"gpus"`
	// GPU names the device model: "v100", "1080ti" or "p100".
	GPU string `json:"gpu"`
	// NICGbps and PCIeGbps are the server's NIC and intra-server bandwidths
	// in gigabits per second.
	NICGbps  float64 `json:"nic_gbps"`
	PCIeGbps float64 `json:"pcie_gbps"`
}

// ClusterSpec describes a custom heterogeneous cluster, server by server.
type ClusterSpec struct {
	Name    string       `json:"name,omitempty"`
	Servers []ServerSpec `json:"servers"`
}

// gpuModels maps ServerSpec.GPU keys to the stock models.
var gpuModels = map[string]cluster.GPUModel{
	"v100":   cluster.TeslaV100,
	"1080ti": cluster.GTX1080Ti,
	"p100":   cluster.TeslaP100,
}

// GPUModelNames lists the accepted ServerSpec.GPU keys.
func GPUModelNames() []string { return []string{"1080ti", "p100", "v100"} }

// Build constructs the described cluster.
func (cs *ClusterSpec) Build() (*cluster.Cluster, error) {
	if len(cs.Servers) == 0 {
		return nil, fmt.Errorf("cli: cluster spec has no servers")
	}
	name := cs.Name
	if name == "" {
		name = "custom"
	}
	cfgs := make([]cluster.Config, len(cs.Servers))
	for i, ss := range cs.Servers {
		m, ok := gpuModels[strings.ToLower(ss.GPU)]
		if !ok {
			return nil, fmt.Errorf("cli: server %d: unknown GPU model %q (have %v)", i, ss.GPU, GPUModelNames())
		}
		if ss.GPUs <= 0 {
			return nil, fmt.Errorf("cli: server %d: needs at least one GPU", i)
		}
		if ss.NICGbps <= 0 || ss.PCIeGbps <= 0 {
			return nil, fmt.Errorf("cli: server %d: NIC and PCIe bandwidths must be positive", i)
		}
		cfgs[i] = cluster.Config{
			GPUs: ss.GPUs, Model: m,
			NICBandwidth:  cluster.Gbps(ss.NICGbps),
			PCIeBandwidth: cluster.Gbps(ss.PCIeGbps),
		}
	}
	return cluster.New(name, cfgs...), nil
}

// Spec is the complete description of one planning workload.
type Spec struct {
	// Model selects a zoo model by registry key; Graph instead submits a
	// serialized single-GPU graph (internal/graph JSON wire format). Exactly
	// one of the two must be set.
	Model string          `json:"model,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
	// Batch is the global batch size (required for zoo models; overrides the
	// serialized graph's reference batch when positive).
	Batch int `json:"batch,omitempty"`
	// GPUs selects a canned testbed (4, 8, 12 or 64 GPUs); Cluster instead
	// describes a custom cluster and takes precedence.
	GPUs    int          `json:"gpus,omitempty"`
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Search knobs, mirroring the public Options.
	Seed          int64 `json:"seed,omitempty"`
	Episodes      int   `json:"episodes,omitempty"`
	BatchEpisodes int   `json:"batch_episodes,omitempty"`
	DefaultOrder  bool  `json:"default_order,omitempty"`
	// Fault knobs: FaultK scenarios from FaultSeed. Robust optimizes the
	// blended nominal/worst-case objective during search; without it the
	// plan is scored across the scenarios after the fact (report-only).
	FaultK    int     `json:"faults,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	Robust    bool    `json:"robust,omitempty"`
	Blend     float64 `json:"blend,omitempty"`
	// Exact disables bound-based pruning, restoring the exhaustive cold path
	// (exact timings for every candidate, not just the winner).
	Exact bool `json:"exact,omitempty"`
	// Telemetry overrides the drift-detection thresholds (EWMA alpha,
	// trigger/clear hysteresis bands, overlay quantum) the planning service
	// uses when this job's telemetry monitor watches pushed observations.
	// Nil keeps the telemetry package defaults.
	Telemetry *telemetry.Thresholds `json:"telemetry,omitempty"`
}

// RegisterModelFlags binds -model and -batch.
func (s *Spec) RegisterModelFlags(fs *flag.FlagSet, defModel string, defBatch int) {
	fs.StringVar(&s.Model, "model", defModel, "model name (see internal/models)")
	fs.IntVar(&s.Batch, "batch", defBatch, "global batch size")
}

// RegisterClusterFlags binds -gpus.
func (s *Spec) RegisterClusterFlags(fs *flag.FlagSet, defGPUs int) {
	fs.IntVar(&s.GPUs, "gpus", defGPUs, "testbed size: 4, 8, 12 or 64 GPUs")
}

// RegisterSearchFlags binds -seed, -episodes and -batch-episodes.
func (s *Spec) RegisterSearchFlags(fs *flag.FlagSet, defEpisodes int) {
	fs.Int64Var(&s.Seed, "seed", 1, "profiling and agent seed")
	fs.IntVar(&s.Episodes, "episodes", defEpisodes, "RL episodes for strategy search")
	fs.IntVar(&s.BatchEpisodes, "batch-episodes", 0, "rollout batch size per policy update (0 = default)")
	fs.BoolVar(&s.Exact, "exact", false, "disable bound-based pruning (exhaustive cold path)")
}

// RegisterFaultFlags binds -faults, -fault-seed, -robust and -blend.
func (s *Spec) RegisterFaultFlags(fs *flag.FlagSet, defFaults int) {
	fs.IntVar(&s.FaultK, "faults", defFaults, "score plans across this many fault scenarios (0 = off)")
	fs.Int64Var(&s.FaultSeed, "fault-seed", 1, "fault-scenario seed (same seed = identical scenarios)")
	fs.BoolVar(&s.Robust, "robust", false, "optimize the blended nominal/worst-case objective instead of nominal time (needs -faults)")
	fs.Float64Var(&s.Blend, "blend", 0.5, "worst-case weight in the robust objective")
}

// Validate checks the spec for structural errors before any expensive work.
func (s *Spec) Validate() error {
	if err := s.ValidateWorkload(); err != nil {
		return err
	}
	if s.Cluster == nil {
		switch s.GPUs {
		case 4, 8, 12, 64:
		default:
			return fmt.Errorf("cli: unsupported gpus %d (want 4, 8, 12 or 64, or a custom cluster spec)", s.GPUs)
		}
	}
	return nil
}

// ValidateWorkload checks everything Validate does except the cluster
// fields. The planning service uses it in fleet mode, where the server owns
// the cluster and the spec's GPUs field caps the lease size instead of
// naming a testbed.
func (s *Spec) ValidateWorkload() error {
	switch {
	case s.Model == "" && len(s.Graph) == 0:
		return fmt.Errorf("cli: spec needs a model name or a serialized graph")
	case s.Model != "" && len(s.Graph) > 0:
		return fmt.Errorf("cli: spec sets both a model name and a serialized graph")
	case s.Model != "" && s.Batch <= 0:
		return fmt.Errorf("cli: zoo model %q needs a positive batch size", s.Model)
	}
	if s.Episodes < 0 {
		return fmt.Errorf("cli: episodes must be non-negative, got %d", s.Episodes)
	}
	if s.FaultK < 0 {
		return fmt.Errorf("cli: faults must be non-negative, got %d", s.FaultK)
	}
	if s.Robust && s.FaultK == 0 {
		return fmt.Errorf("cli: robust planning needs faults > 0")
	}
	if s.Blend < 0 || s.Blend > 1 {
		return fmt.Errorf("cli: blend must be in [0,1], got %g", s.Blend)
	}
	if s.Telemetry != nil {
		if err := s.Telemetry.Validate(); err != nil {
			return fmt.Errorf("cli: %w", err)
		}
	}
	return nil
}

// BuildCluster constructs the spec's cluster: the custom description when
// given, otherwise the canned testbed for the GPU count.
func (s *Spec) BuildCluster() (*cluster.Cluster, error) {
	if s.Cluster != nil {
		return s.Cluster.Build()
	}
	switch s.GPUs {
	case 4:
		return cluster.Testbed4(), nil
	case 8:
		return cluster.Testbed8(), nil
	case 12:
		return cluster.Testbed12(), nil
	case 64:
		return cluster.Testbed64(), nil
	default:
		return nil, fmt.Errorf("cli: unsupported gpus %d (want 4, 8, 12 or 64)", s.GPUs)
	}
}

// BuildGraph constructs the spec's single-GPU training graph: the zoo model
// at the spec's batch, or the decoded (and validated) serialized graph with
// the batch override applied.
func (s *Spec) BuildGraph() (*graph.Graph, error) {
	if len(s.Graph) > 0 {
		g, err := graph.ReadJSON(bytes.NewReader(s.Graph))
		if err != nil {
			return nil, err
		}
		if s.Batch > 0 {
			g.BatchSize = s.Batch
		}
		if g.BatchSize <= 0 {
			return nil, fmt.Errorf("cli: serialized graph %q needs a positive batch size", g.Name)
		}
		return g, nil
	}
	return models.Build(s.Model, s.Batch)
}

// DefaultBatch returns the paper's standard batch size for a benchmark key on
// a testbed, falling back to def for models outside the standard set. Shared
// by heterog-train's per-model batch lookup and spec defaulting.
func DefaultBatch(key string, gpus, def int) int {
	for _, bm := range models.StandardBenchmarks() {
		if bm.Key == key {
			if gpus == 12 {
				return bm.Batch12
			}
			return bm.Batch8
		}
	}
	return def
}

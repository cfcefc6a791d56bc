// Package experiments regenerates every table and figure of the paper's
// evaluation section (§6) plus the appendix theorems: one entry point per
// exhibit, each returning a typed result and a rendered table whose rows
// mirror the paper's units. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"heterog/internal/agent"
	"heterog/internal/baselines"
	"heterog/internal/cli"
	"heterog/internal/core"
	"heterog/internal/models"
	"heterog/internal/strategy"
)

// Config controls experiment fidelity.
type Config struct {
	// Episodes is the RL-episode budget per model when planning HeteroG
	// strategies (heuristic candidates are always evaluated). Zero selects
	// the default of 6.
	Episodes int
	// Seed drives profiling noise and agent initialization.
	Seed int64
}

func (c *Config) fill() {
	if c.Episodes == 0 {
		c.Episodes = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Report is a rendered exhibit.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Lab caches evaluators and planned strategies so that tables sharing
// workloads (1, 2, 5, 7, 8...) don't re-plan.
type Lab struct {
	cfg Config

	mu     sync.Mutex
	evals  map[string]*core.Evaluator
	agents map[string]*agent.Agent
	plans  map[string]*core.Evaluation
}

// NewLab returns a lab with the given fidelity configuration.
func NewLab(cfg Config) *Lab {
	cfg.fill()
	return &Lab{
		cfg:    cfg,
		evals:  make(map[string]*core.Evaluator),
		agents: make(map[string]*agent.Agent),
		plans:  make(map[string]*core.Evaluation),
	}
}

// Evaluator returns (building if needed) the evaluator for a workload.
func (l *Lab) Evaluator(key string, batch, gpus int) (*core.Evaluator, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ck := fmt.Sprintf("%s/%d/%d", key, batch, gpus)
	if ev, ok := l.evals[ck]; ok {
		return ev, nil
	}
	c, err := (&cli.Spec{GPUs: gpus}).BuildCluster()
	if err != nil {
		return nil, err
	}
	g, err := models.Build(key, batch)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(g, c.FullView(), l.cfg.Seed)
	if err != nil {
		return nil, err
	}
	l.evals[ck] = ev
	return ev, nil
}

// agentFor returns one shared agent per cluster size.
func (l *Lab) agentFor(gpus int) (*agent.Agent, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ck := fmt.Sprintf("m%d", gpus)
	if a, ok := l.agents[ck]; ok {
		return a, nil
	}
	cfg := agent.DefaultConfig(gpus)
	cfg.Seed = l.cfg.Seed
	a, err := agent.New(cfg, gpus)
	if err != nil {
		return nil, err
	}
	l.agents[ck] = a
	return a, nil
}

// HeteroG plans (once) and returns the HeteroG evaluation for a workload.
func (l *Lab) HeteroG(key string, batch, gpus int) (*core.Evaluation, error) {
	ck := fmt.Sprintf("%s/%d/%d", key, batch, gpus)
	l.mu.Lock()
	if e, ok := l.plans[ck]; ok {
		l.mu.Unlock()
		return e, nil
	}
	l.mu.Unlock()
	ev, err := l.Evaluator(key, batch, gpus)
	if err != nil {
		return nil, err
	}
	a, err := l.agentFor(gpus)
	if err != nil {
		return nil, err
	}
	e, err := a.Plan(ev, l.cfg.Episodes)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.plans[ck] = e
	l.mu.Unlock()
	return e, nil
}

// Baseline evaluates a DP baseline for a workload.
func (l *Lab) Baseline(key string, batch, gpus int, kind strategy.DecisionKind) (*core.Evaluation, error) {
	ev, err := l.Evaluator(key, batch, gpus)
	if err != nil {
		return nil, err
	}
	return baselines.EvaluateDP(ev, kind)
}

// speedup renders the paper's "(baseline - heterog)/heterog" percentage.
func speedup(base, hg float64) string {
	return fmt.Sprintf("%.1f%%", 100*(base-hg)/hg)
}

// secs renders a per-iteration time or OOM.
func secs(e *core.Evaluation) string {
	if e.Result.OOM() {
		return "OOM"
	}
	return fmt.Sprintf("%.3f", e.PerIter)
}

// uniformStrategy builds a per-op uniform strategy for an evaluator.
func uniformStrategy(ev *core.Evaluator, kind strategy.DecisionKind) (*strategy.Strategy, error) {
	gr, err := strategy.Group(ev.Graph, ev.Cost, ev.Graph.NumOps())
	if err != nil {
		return nil, err
	}
	return strategy.Uniform(gr, strategy.Decision{Kind: kind}), nil
}

var dpKinds = []strategy.DecisionKind{
	strategy.DPEvenPS, strategy.DPEvenAR, strategy.DPPropPS, strategy.DPPropAR,
}

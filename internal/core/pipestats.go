package core

import (
	"sort"
	"sync"
	"time"

	"heterog/internal/plan"
)

// PassStat aggregates every execution of one pipeline pass across an
// evaluator (and all twins sharing its recorder).
type PassStat struct {
	Name  string        `json:"name"`
	Runs  int64         `json:"runs"`
	Total time.Duration `json:"total_ns"`
	Ops   int64         `json:"ops"`
	Bytes int64         `json:"bytes"`
}

// PipelineReport is a point-in-time snapshot of the planning-pipeline
// instrumentation: per-pass totals in pipeline order, how many full lowering
// runs happened, and how many were avoided by reusing a cached lowered
// artifact (the FIFO-vs-ranked and scenario-twin fast path).
type PipelineReport struct {
	Passes []PassStat `json:"passes"`
	// Lowerings counts full lowering-pipeline executions (compiles).
	Lowerings int64 `json:"lowerings"`
	// Reused counts evaluations that skipped lowering by reusing a cached
	// artifact: the FIFO-vs-ranked and scenario-twin fast paths (only the
	// Ordering pass re-ran) and zero-diff delta memo hits (nothing re-ran).
	Reused int64 `json:"reused"`
	// Pruning aggregates the bound-based cold-path pruning counters (zero
	// unless EnablePruning armed the evaluator family).
	Pruning PruneReport `json:"pruning"`
}

// PruneReport counts the work the bound-based pruning layers discarded
// across one evaluator family (nominal, FIFO and scenario twins).
type PruneReport struct {
	// BoundsTried counts bounded evaluations that reached the screening
	// layers (cache misses with a finite incumbent bound).
	BoundsTried int64 `json:"bounds_tried"`
	// PrunedPreLower counts candidates discarded by the analytic per-op
	// bound before any compilation happened.
	PrunedPreLower int64 `json:"pruned_pre_lower"`
	// PrunedPostLower counts candidates discarded after lowering by the
	// busiest-unit or critical-path bound, before ordering and simulation.
	PrunedPostLower int64 `json:"pruned_post_lower"`
	// SimsAborted counts simulations stopped mid-run by the makespan bound.
	SimsAborted int64 `json:"sims_aborted"`
	// CandidatesHalved counts episode candidates demoted by the agent's
	// successive-halving fast pass (never fully evaluated).
	CandidatesHalved int64 `json:"candidates_halved"`
	// DeltaCompiles counts evaluations served by the incremental patch path:
	// the mutated strategy was lowered by rewiring the retained baseline
	// instead of a from-scratch compile (see Evaluator.EvaluateDelta).
	DeltaCompiles int64 `json:"delta_compiles"`
	// OpsRelowered totals the logical ops (compute ops + aggregation sites)
	// actually rebuilt across all delta compiles — the work the patch path
	// did, as opposed to the full compile it avoided.
	OpsRelowered int64 `json:"ops_relowered"`
	// TimeSaved estimates wall-clock evaluation time avoided: for each
	// pruned candidate, the running mean duration of a full cold evaluation
	// minus what the pruned attempt actually spent.
	TimeSaved time.Duration `json:"time_saved_ns"`
}

// Add folds another report's counters into p (used by the serving layer to
// aggregate across jobs).
func (p *PruneReport) Add(o PruneReport) {
	p.BoundsTried += o.BoundsTried
	p.PrunedPreLower += o.PrunedPreLower
	p.PrunedPostLower += o.PrunedPostLower
	p.SimsAborted += o.SimsAborted
	p.CandidatesHalved += o.CandidatesHalved
	p.DeltaCompiles += o.DeltaCompiles
	p.OpsRelowered += o.OpsRelowered
	p.TimeSaved += o.TimeSaved
}

// pipeStats is the shared, concurrency-safe recorder behind an evaluator's
// PipelineReport. Value copies of an Evaluator (FIFO twins) and the
// scenario twins built by EnableRobustness share the pointer, so the report
// covers the whole planning effort of one evaluator family.
type pipeStats struct {
	mu        sync.Mutex
	passes    map[string]*PassStat
	lowerings int64
	reused    int64
	prune     PruneReport
	// fullCount/fullDur track completed cold evaluations under pruning so
	// TimeSaved can price each prune at the mean full-evaluation cost.
	fullCount int64
	fullDur   time.Duration
}

func newPipeStats() *pipeStats { return &pipeStats{passes: make(map[string]*PassStat)} }

// absorb folds one pipeline run's metrics into the totals.
func (p *pipeStats) absorb(ms []plan.PassMetrics) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range ms {
		st := p.passes[m.Pass]
		if st == nil {
			st = &PassStat{Name: m.Pass}
			p.passes[m.Pass] = st
		}
		st.Runs++
		st.Total += m.Duration
		st.Ops += int64(m.Ops)
		st.Bytes += m.Bytes
	}
}

func (p *pipeStats) lowered() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.lowerings++
	p.mu.Unlock()
}

func (p *pipeStats) reuse() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.reused++
	p.mu.Unlock()
}

func (p *pipeStats) boundTried() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.prune.BoundsTried++
	p.mu.Unlock()
}

// saved credits one prune with the mean full-evaluation duration minus the
// time the pruned attempt itself burned. Callers hold p.mu.
func (p *pipeStats) saved(spent time.Duration) {
	if p.fullCount == 0 {
		return
	}
	if gain := p.fullDur/time.Duration(p.fullCount) - spent; gain > 0 {
		p.prune.TimeSaved += gain
	}
}

func (p *pipeStats) prunedPre(spent time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.prune.PrunedPreLower++
	p.saved(spent)
	p.mu.Unlock()
}

func (p *pipeStats) prunedPost(spent time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.prune.PrunedPostLower++
	p.saved(spent)
	p.mu.Unlock()
}

func (p *pipeStats) simAborted(spent time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.prune.SimsAborted++
	p.saved(spent)
	p.mu.Unlock()
}

func (p *pipeStats) halved(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	p.prune.CandidatesHalved += int64(n)
	p.mu.Unlock()
}

func (p *pipeStats) deltaCompile(relowered int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.prune.DeltaCompiles++
	p.prune.OpsRelowered += int64(relowered)
	p.mu.Unlock()
}

func (p *pipeStats) fullEval(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.fullCount++
	p.fullDur += d
	p.mu.Unlock()
}

// snapshot renders the totals in canonical pipeline order.
func (p *pipeStats) snapshot() PipelineReport {
	if p == nil {
		return PipelineReport{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := PipelineReport{Lowerings: p.lowerings, Reused: p.reused, Pruning: p.prune}
	seen := make(map[string]bool)
	for _, name := range plan.PassOrder() {
		if st, ok := p.passes[name]; ok {
			rep.Passes = append(rep.Passes, *st)
			seen[name] = true
		}
	}
	var extras []string
	for name := range p.passes {
		if !seen[name] {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		rep.Passes = append(rep.Passes, *p.passes[name])
	}
	return rep
}

// PipelineReport snapshots the per-pass instrumentation accumulated by this
// evaluator and every twin sharing its recorder (FIFO and fault-scenario
// twins). Evaluators constructed without NewEvaluator return a zero report.
func (ev *Evaluator) PipelineReport() PipelineReport {
	return ev.pipe.snapshot()
}

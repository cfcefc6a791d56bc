package core

import (
	"fmt"

	"heterog/internal/plan"
	"heterog/internal/strategy"
)

// DeltaConfig tunes the incremental evaluation path armed by EnableDelta.
// The zero value (or a nil pointer) selects every default.
type DeltaConfig struct {
	// MaxOps is the per-mutation diff budget: when more logical ops change
	// their effective decision against the retained baseline, the evaluation
	// falls back to a full recompilation (still through the delta state, so
	// the new strategy becomes the next baseline). <= 0 selects
	// plan.DefaultDeltaMaxOps.
	MaxOps int
}

func (c *DeltaConfig) maxOps() int {
	if c == nil || c.MaxOps <= 0 {
		return plan.DefaultDeltaMaxOps
	}
	return c.MaxOps
}

// EnableDelta arms incremental evaluation for subsequent EvaluateDelta calls:
// mutation proposals are lowered by patching the retained baseline artifacts
// (see plan.DeltaState). cfg may be nil for defaults. Call it after
// Iterations and Ablate are final and before the evaluator is shared across
// goroutines. The fault-scenario twins share the baseline map, each lazily
// getting its own baseline the first time EvaluateDelta touches it; calling
// EnableDelta before or after EnableRobustness both work.
func (ev *Evaluator) EnableDelta(cfg *DeltaConfig) {
	if cfg == nil {
		cfg = &DeltaConfig{}
	}
	ev.Delta = cfg
	ev.dstates = make(map[uint64]*deltaEntry)
	if ev.Robust != nil {
		for _, sev := range ev.Robust.evs {
			sev.Delta, sev.dstates = cfg, ev.dstates
		}
	}
}

// deltaMemo remembers one exact evaluation of the baseline artifacts under
// one execution order, tagged with the artifacts generation it was simulated
// from.
type deltaMemo struct {
	eval *Evaluation
	gen  uint64
}

// deltaEntry couples a retained delta baseline with memoized evaluations of
// it: a proposal whose effective per-op decisions match the baseline exactly
// (a zero diff — e.g. a mutation on a gradient group, which follows its
// forward op's decision) is answered from the memo without re-ordering or
// re-simulating the unchanged program.
type deltaEntry struct {
	ds     *plan.DeltaState
	ranked deltaMemo
	fifo   deltaMemo
}

func (en *deltaEntry) memo(useFIFO bool) *deltaMemo {
	if useFIFO {
		return &en.fifo
	}
	return &en.ranked
}

// remember seeds the zero-diff memo for one order. A successful exact
// simulation is always an evaluation of the current baseline (Apply rebases
// the artifacts onto the strategy), so it stands until the next patch bumps
// the generation.
func (en *deltaEntry) remember(useFIFO bool, e *Evaluation) {
	*en.memo(useFIFO) = deltaMemo{eval: e, gen: en.ds.Generation()}
}

// deltaLowered is the delta lowering source of evaluateBounded: it patches
// the retained baseline for ev's scenario tag (building it on first use) onto
// s and returns the rebased artifacts. A proposal whose effective decisions
// match the baseline op for op (grouped mutations frequently land on ops that
// follow another op's decision) is answered by the memoized exact evaluation
// of the current baseline instead — same artifacts, same order, same
// simulation — and counted as a reuse, like a cache hit that skipped lowering.
func (ev *Evaluator) deltaLowered(s *strategy.Strategy, iters int) (*plan.Artifacts, *Evaluation, error) {
	en, ok := ev.dstates[ev.ScenarioTag]
	if !ok {
		ds, err := plan.NewDeltaState(ev.Graph, ev.Cluster.Cluster, s, ev.Cost, iters, ev.Ablate, ev.Delta.maxOps())
		if err != nil {
			return nil, nil, fmt.Errorf("delta compile %s: %w", ev.Graph.Name, err)
		}
		ev.pipe.lowered()
		en = &deltaEntry{ds: ds}
		ev.dstates[ev.ScenarioTag] = en
	}
	if mm := en.memo(ev.UseFIFO); mm.eval != nil && mm.gen == en.ds.Generation() && en.ds.DiffCount(s) == 0 {
		e := *mm.eval
		e.Strategy = s
		ev.pipe.reuse()
		return nil, &e, nil
	}
	art, st, err := en.ds.Apply(s)
	if err != nil {
		return nil, nil, fmt.Errorf("delta compile %s: %w", ev.Graph.Name, err)
	}
	if st.Full {
		ev.pipe.lowered()
	} else if st.ChangedOps > 0 {
		ev.pipe.deltaCompile(st.Relowered)
	}
	return art, nil, nil
}

// EvaluateDelta is EvaluateBounded for mutation episodes: instead of a
// from-scratch compile, the proposed strategy is diffed against the retained
// baseline and only the affected ops re-lowered; every other stage (cache
// read, pruning screens, ordering, bounded simulation, robustness) is the
// one EvaluateBounded runs. Results are bit-identical to the full path — the
// patch machinery is golden-pinned against full recompile + resimulate — but
// the returned Evaluation carries a nil Dist and is never cached: the patched
// DistGraph is invalidated by the next EvaluateDelta call, so callers needing
// the graph (exhibits, the final winner) must re-run plain Evaluate, which
// hits the full pipeline and caches normally.
//
// EvaluateDelta is NOT safe for concurrent use (the baselines mutate in
// place, so scenario twins are also evaluated one at a time); callers
// evaluate their mutation proposals one at a time. Without EnableDelta it
// degrades to EvaluateBounded.
func (ev *Evaluator) EvaluateDelta(s *strategy.Strategy, bound float64) (*Evaluation, error) {
	return ev.evaluate(s, bound, unscreened, ev.Delta != nil)
}

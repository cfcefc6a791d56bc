package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"heterog/internal/core"
	"heterog/internal/gnn"
	"heterog/internal/nn"
	"heterog/internal/policy"
	"heterog/internal/strategy"
)

// ErrNoStrategy reports that strategy search produced no evaluable strategy
// at all. The public API surfaces it as heterog.ErrNoStrategy; detect it with
// errors.Is.
var ErrNoStrategy = errors.New("no feasible strategy")

// Config sizes the agent.
type Config struct {
	// MaxGroups caps the action sequence length (the paper's N, 2000).
	MaxGroups int
	// Entropy is the exploration-bonus weight λ.
	Entropy float64
	// LearningRate drives the Adam optimizer.
	LearningRate float64
	// BatchEpisodes is the rollout batch size k used by Train and Plan: k
	// strategies are decoded from one forward pass, evaluated in parallel,
	// and folded into one averaged policy-gradient update. Zero selects the
	// default of 4.
	BatchEpisodes int
	// GAT and Policy size the two networks; zero values pick CPU-friendly
	// defaults (gnn.DefaultConfig / policy.DefaultConfig).
	GAT    gnn.Config
	Policy policy.Config
	// Seed drives sampling and initialization.
	Seed int64
}

// DefaultConfig returns a CPU-friendly agent for m devices.
func DefaultConfig(m int) Config {
	return Config{MaxGroups: 500, Entropy: 0.02, LearningRate: 3e-3, BatchEpisodes: 4, Seed: 1}
}

// Agent couples the GAT encoder and the strategy network with an optimizer
// and the per-graph reward baselines of the paper's policy-gradient update.
//
// An Agent's learning methods mutate the network weights and RNG and are not
// safe for concurrent use, except Plan and PlanContext, which serialize on a
// per-agent lock: replans of one runner share its warm agent and may run on
// different workers at once. The per-evaluator state cache is mutex-guarded
// so that distinct agents sharing an evaluator (and Plan's internal
// evaluation goroutines) race-free.
type Agent struct {
	GAT *gnn.GAT
	Net *policy.Network
	Opt *nn.Adam

	// planMu is held across each Plan/PlanContext call.
	planMu sync.Mutex

	cfg       Config
	m         int
	rng       *rand.Rand
	baselines map[string]float64

	// states caches per-evaluator encodings across episodes, bounded to
	// maxCachedStates entries evicted in insertion order.
	mu         sync.Mutex
	states     map[*core.Evaluator]*graphState
	stateOrder []*core.Evaluator
}

// New builds an agent for clusters of m devices.
func New(cfg Config, m int) (*Agent, error) {
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = 500
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 3e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gcfg := cfg.GAT
	if gcfg.Layers == 0 {
		gcfg = gnn.DefaultConfig(FeatureDim(m))
	}
	gcfg.InDim = FeatureDim(m)
	gat, err := gnn.New(gcfg, rng)
	if err != nil {
		return nil, err
	}
	pcfg := cfg.Policy
	if pcfg.Blocks == 0 {
		pcfg = policy.DefaultConfig(gcfg.OutDim, strategy.ActionSpaceSize(m))
	}
	pcfg.InDim = gcfg.OutDim
	pcfg.Actions = strategy.ActionSpaceSize(m)
	net, err := policy.New(pcfg, rng)
	if err != nil {
		return nil, err
	}
	return &Agent{
		GAT: gat, Net: net, Opt: nn.NewAdam(cfg.LearningRate),
		cfg: cfg, m: m, rng: rng, baselines: map[string]float64{},
		states: map[*core.Evaluator]*graphState{},
	}, nil
}

// Episode is one sampled rollout on one graph.
type Episode struct {
	Strategy *strategy.Strategy
	Eval     *core.Evaluation
	Reward   float64
	// Greedy marks argmax decoding instead of sampling.
	Greedy bool
}

// graphState caches per-evaluator encodings across episodes.
type graphState struct {
	grouping  *strategy.Grouping
	features  *nn.Matrix
	neighbors [][]int

	// pickScratch pools the per-episode action buffers for batched decoding.
	// Rows are overwritten every batch, so nothing that outlives a batch may
	// alias them.
	pickScratch [][]int
}

// picksFor returns k reusable action buffers of length n, growing the scratch
// pool on demand. Callers run under the learning methods' single-goroutine
// contract.
func (st *graphState) picksFor(k, n int) [][]int {
	for len(st.pickScratch) < k {
		st.pickScratch = append(st.pickScratch, nil)
	}
	buf := st.pickScratch[:k]
	for i, p := range buf {
		if len(p) != n {
			buf[i] = make([]int, n)
		}
	}
	return buf
}

// maxCachedStates bounds the per-evaluator encoding cache: beyond it the
// oldest entry is dropped, so long-lived agents planning across many graphs
// cannot grow without bound.
const maxCachedStates = 16

func (a *Agent) state(ev *core.Evaluator) (*graphState, error) {
	a.mu.Lock()
	if st, ok := a.states[ev]; ok {
		a.mu.Unlock()
		return st, nil
	}
	a.mu.Unlock()
	// Encode outside the lock: grouping + feature extraction walk the whole
	// graph, and concurrent first-touch callers can race benignly (last
	// writer wins, both values are equivalent).
	gr, err := strategy.Group(ev.Graph, ev.Cost, a.cfg.MaxGroups)
	if err != nil {
		return nil, err
	}
	st := &graphState{
		grouping:  gr,
		features:  encodeFeatures(ev),
		neighbors: encodeNeighbors(ev.Graph),
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if prior, ok := a.states[ev]; ok {
		return prior, nil
	}
	a.states[ev] = st
	a.stateOrder = append(a.stateOrder, ev)
	for len(a.stateOrder) > maxCachedStates {
		delete(a.states, a.stateOrder[0])
		a.stateOrder = a.stateOrder[1:]
	}
	return st, nil
}

// ReleaseState evicts the cached encodings for ev, freeing the grouping and
// feature matrices once an evaluator is no longer trained or planned on.
// Train releases every evaluator it finished with automatically.
func (a *Agent) ReleaseState(ev *core.Evaluator) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.states[ev]; !ok {
		return
	}
	delete(a.states, ev)
	for i, e := range a.stateOrder {
		if e == ev {
			a.stateOrder = append(a.stateOrder[:i], a.stateOrder[i+1:]...)
			break
		}
	}
}

// forward runs GAT + strategy network, returning per-group action
// probabilities and the parameter nodes for the update step. Every matrix
// it returns lives in t's arena: callers read the probabilities before they
// return t to the pool, and nothing they keep aliases them.
func (a *Agent) forward(t *nn.Tape, st *graphState) (*nn.Node, []*nn.Node, error) {
	var params []*nn.Node
	groups, err := a.GAT.Forward(t, st.features, st.neighbors, st.grouping.Members, &params)
	if err != nil {
		return nil, nil, err
	}
	probs, err := a.Net.Forward(t, groups, &params)
	if err != nil {
		return nil, nil, err
	}
	return probs, params, nil
}

// decode turns per-group probabilities into a strategy, sampling when greedy
// is false.
func (a *Agent) decode(probs *nn.Matrix, gr *strategy.Grouping, greedy bool, picks []int) (*strategy.Strategy, []int, error) {
	if len(picks) != probs.Rows {
		picks = make([]int, probs.Rows)
	}
	ds := make([]strategy.Decision, probs.Rows)
	for gi := 0; gi < probs.Rows; gi++ {
		row := probs.Row(gi)
		var action int
		if greedy {
			best := -1.0
			for j, p := range row {
				if p > best {
					best, action = p, j
				}
			}
		} else {
			r := a.rng.Float64()
			var acc float64
			action = len(row) - 1
			for j, p := range row {
				acc += p
				if r <= acc {
					action = j
					break
				}
			}
		}
		picks[gi] = action
		d, err := strategy.DecisionFromAction(action, a.m)
		if err != nil {
			return nil, nil, err
		}
		ds[gi] = d
	}
	return &strategy.Strategy{Grouping: gr, Decisions: ds}, picks, nil
}

// SeedIncumbent encodes ev's graph for the agent (the cached per-evaluator
// state every episode reuses) and checks that e's strategy has one decision
// per group of the agent's grouping for ev. It records nothing else: search
// still starts from the heuristic candidate pool and a +Inf bound.
func (a *Agent) SeedIncumbent(ev *core.Evaluator, e *core.Evaluation) error {
	st, err := a.state(ev)
	if err != nil {
		return err
	}
	if got, want := len(e.Strategy.Decisions), st.grouping.NumGroups(); got != want {
		return fmt.Errorf("agent: incumbent has %d decisions, grouping has %d groups", got, want)
	}
	return nil
}

// RunEpisode samples one strategy for the evaluator's graph, simulates it,
// and applies the paper's policy-gradient update:
//
//	θ ← θ + α (r - R̄) ∇ log π(a) + λ ∇ H(π)
//
// with R̄ a per-graph moving average of rewards. Set learn=false for pure
// evaluation (no update), greedy=true for argmax decoding. It is the k=1
// case of the batched rollout.
func (a *Agent) RunEpisode(ev *core.Evaluator, learn, greedy bool) (*Episode, error) {
	eps, err := a.rollout(ev, 1, learn, greedy, math.Inf(1))
	if err != nil {
		return nil, err
	}
	return eps[0], nil
}

// maxParallelEvals bounds the rollout-evaluation worker pool.
func maxParallelEvals() int { return runtime.GOMAXPROCS(0) }

// incumbent is the planner's racing best-score bound: a mutex-guarded
// monotone minimum shared by the concurrent evaluation goroutines.
type incumbent struct {
	mu    sync.Mutex
	score float64
}

func newIncumbent() *incumbent { return &incumbent{score: math.Inf(1)} }

func (in *incumbent) get() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.score
}

func (in *incumbent) offer(score float64) {
	in.mu.Lock()
	if score < in.score {
		in.score = score
	}
	in.mu.Unlock()
}

// RunEpisodes is the batched rollout path: it decodes k strategies from one
// forward pass, evaluates them concurrently over a bounded worker pool (the
// evaluator's cache deduplicates resampled strategies), and, when learn is
// set, applies one policy-gradient update averaged over the batch:
//
//	θ ← θ + α/k Σᵢ (rᵢ - R̄) ∇ log π(aᵢ) + λ ∇ H(π)
//
// Decoding draws from the agent's RNG sequentially, so results are
// deterministic for a given seed regardless of evaluation interleaving; for
// k=1 it is RunEpisode with sampled decoding.
func (a *Agent) RunEpisodes(ev *core.Evaluator, k int, learn bool) ([]*Episode, error) {
	return a.RunEpisodesBounded(ev, k, learn, math.Inf(1))
}

// evalParallel runs f(0..k-1) over the bounded worker pool, collecting
// evaluations by index (deterministic regardless of interleaving).
func evalParallel(k int, f func(i int) (*core.Evaluation, error)) ([]*core.Evaluation, error) {
	evals := make([]*core.Evaluation, k)
	errs := make([]error, k)
	sem := make(chan struct{}, maxParallelEvals())
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			evals[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return evals, nil
}

// RunEpisodesBounded is RunEpisodes threading an incumbent score bound into
// every evaluation (see core.Evaluator.EvaluateBounded); +Inf degrades to
// the exact path. Decoding draws from the agent's RNG sequentially and the
// bound is fixed for the whole batch, so results are deterministic for a
// given seed and bound regardless of evaluation interleaving.
func (a *Agent) RunEpisodesBounded(ev *core.Evaluator, k int, learn bool, bound float64) ([]*Episode, error) {
	return a.rollout(ev, k, learn, false, bound)
}

// rollout is the one rollout body: decode k strategies from one forward pass
// (argmax with greedy, sampled otherwise), evaluate them against bound, and
// with learn apply the averaged policy-gradient update.
func (a *Agent) rollout(ev *core.Evaluator, k int, learn, greedy bool, bound float64) ([]*Episode, error) {
	if k <= 0 {
		return nil, fmt.Errorf("agent: batch size must be positive, got %d", k)
	}
	st, err := a.state(ev)
	if err != nil {
		return nil, err
	}
	// The tape and its arena are taken for this batch only: an agent never
	// owns one, so the finished runners a service keeps hold no arena.
	t := nn.GetTape()
	defer nn.PutTape(t)
	probs, params, err := a.forward(t, st)
	if err != nil {
		return nil, err
	}
	strats := make([]*strategy.Strategy, k)
	picks := st.picksFor(k, probs.Value.Rows)
	for i := 0; i < k; i++ {
		strats[i], picks[i], err = a.decode(probs.Value, st.grouping, greedy, picks[i])
		if err != nil {
			return nil, err
		}
	}
	evals, err := evalParallel(k, func(i int) (*core.Evaluation, error) {
		return ev.EvaluateBounded(strats[i], bound)
	})
	if err != nil {
		return nil, err
	}
	eps := make([]*Episode, k)
	rewards := make([]float64, k)
	for i := range eps {
		eps[i] = &Episode{Strategy: strats[i], Eval: evals[i], Reward: core.Reward(evals[i]), Greedy: greedy}
		rewards[i] = eps[i].Reward
	}
	if !learn {
		return eps, nil
	}
	if err := a.update(t, probs, params, ev.Graph.Name, picks, rewards); err != nil {
		return nil, err
	}
	return eps, nil
}

// update applies the averaged REINFORCE step for a batch of rollouts sampled
// from one forward pass.
func (a *Agent) update(t *nn.Tape, probs *nn.Node, params []*nn.Node, key string, picks [][]int, rewards []float64) error {
	k := len(rewards)
	var meanReward float64
	for _, r := range rewards {
		meanReward += r
	}
	meanReward /= float64(k)
	baseline, ok := a.baselines[key]
	if !ok {
		baseline = meanReward
	}
	a.baselines[key] = 0.9*baseline + 0.1*meanReward
	var objective *nn.Node
	for i := range picks {
		adv := rewards[i] - baseline
		weights := make([]float64, len(picks[i]))
		for j := range weights {
			weights[j] = adv / float64(k*len(picks[i]))
		}
		term := t.GatherLogProbs(probs, picks[i], weights)
		if objective == nil {
			objective = term
		} else {
			objective = t.Add(objective, term)
		}
	}
	if a.cfg.Entropy > 0 {
		ent := t.Scale(t.Entropy(probs), a.cfg.Entropy/float64(len(picks[0])))
		objective = t.Add(objective, ent)
	}
	if err := t.Backward(objective); err != nil {
		return err
	}
	nn.ClipGradNorm(params, 5)
	a.Opt.Step(params, true)
	return nil
}

// Plan returns the best strategy the agent can find for the evaluator within
// `episodes` RL rollouts, seeded with the domain-heuristic candidate pool.
// The returned evaluation is re-simulated, so its timings are exact.
func (a *Agent) Plan(ev *core.Evaluator, episodes int) (*core.Evaluation, error) {
	return a.PlanContext(context.Background(), ev, episodes)
}

// PlanContext is Plan with cooperative cancellation: the context is checked
// between the heuristic candidate pool and each episode batch (a rollout
// batch is the unit of work — an in-flight batch finishes before the
// cancellation is observed), returning the context's error once it fires.
// Long-lived callers (the planning service) use this for per-job timeouts
// and client-initiated cancellation.
//
// The heuristic seeds are evaluated in ascending pre-lowering bound, the
// order in which the incumbent tightens fastest, so more of the later seeds
// are discarded before they are lowered. Each seed's bound is computed once
// for the sort and handed to its evaluations. The evaluation order does not
// choose the winner: bounds are sound screens, the results are compared in
// generation order with a strict "<", and a seed's FIFO twin is tied to its
// generation index, so only the work skipped depends on the order.
func (a *Agent) PlanContext(ctx context.Context, ev *core.Evaluator, episodes int) (*core.Evaluation, error) {
	return a.plan(ctx, ev, episodes, boundOrder)
}

// boundOrder lists seed indexes by ascending pre-lowering bound. The sort is
// stable, so ties keep generation order, and without pruning (every bound
// reads 0) the order is the generation order.
func boundOrder(pre []float64) []int {
	idx := make([]int, len(pre))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return pre[idx[x]] < pre[idx[y]] })
	return idx
}

// plan is PlanContext with the seed evaluation order supplied by seedOrder,
// which maps each seed's pre-lowering bound to the order the seeds are
// evaluated in.
func (a *Agent) plan(ctx context.Context, ev *core.Evaluator, episodes int, seedOrder func(pre []float64) []int) (*core.Evaluation, error) {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := a.state(ev)
	if err != nil {
		return nil, err
	}
	var best *core.Evaluation
	// inc is the racing incumbent score bound threaded into every bounded
	// evaluation. Bounds are sound lower-bound screens and comparisons are
	// strict, so the selected winner is independent of the (scheduling-
	// dependent) order in which candidates tighten the bound — only the
	// amount of work skipped varies.
	inc := newIncumbent()
	// Score is the nominal per-iteration time, or the blended
	// nominal/worst-case objective when the evaluator is in robustness mode.
	consider := func(e *core.Evaluation) {
		if e == nil || e.Pruned {
			return
		}
		inc.offer(e.Score())
		if best == nil || e.Score() < best.Score() {
			best = e
		}
	}
	fifoEv := *ev
	fifoEv.UseFIFO = true
	// Heuristic candidates are independent simulations: evaluate them
	// concurrently across the available cores, in seedOrder.
	cands := HeuristicCandidates(ev, st.grouping)
	pre := make([]float64, len(cands))
	for i, cand := range cands {
		pre[i] = ev.PreLowerBound(cand)
	}
	evals := make([]*core.Evaluation, len(cands))
	fifoEvals := make([]*core.Evaluation, len(cands))
	errs := make([]error, len(cands))
	// Acquire the semaphore before spawning so in-flight goroutines (not
	// just running evaluations) stay bounded by the core count.
	sem := make(chan struct{}, maxParallelEvals())
	var wg sync.WaitGroup
	for _, i := range seedOrder(pre) {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, cand *strategy.Strategy) {
			defer wg.Done()
			defer func() { <-sem }()
			e, err := ev.EvaluateScreened(cand, inc.get(), pre[i])
			if err != nil {
				errs[i] = err
				return
			}
			evals[i] = e
			if !e.Pruned {
				inc.offer(e.Score())
			}
			// HeteroG's order scheduling increases overlap — and with it
			// the transient memory peak. A candidate can be feasible under
			// the default FIFO order even when the ranked order overflows,
			// so the uniform-DP candidates (the first four generated, i <
			// 4, wherever they fall in the evaluation order) and any
			// ranked-OOM candidate are also tried under FIFO; the order
			// choice ships in heterog_config. A pruned ranked evaluation
			// reveals neither feasibility nor time, so it conservatively
			// keeps the FIFO twin in play (the work-based bounds are
			// order-independent and usually discharge it immediately).
			if i < 4 || e.Pruned || e.Result.OOM() {
				ef, err := fifoEv.EvaluateScreened(cand, inc.get(), pre[i])
				if err != nil {
					errs[i] = err
					return
				}
				fifoEvals[i] = ef
				if !ef.Pruned {
					inc.offer(ef.Score())
				}
			}
		}(i, cands[i])
	}
	wg.Wait()
	for i := range cands {
		if errs[i] != nil {
			return nil, fmt.Errorf("evaluate heuristic candidate: %w", errs[i])
		}
		consider(evals[i])
		consider(fifoEvals[i])
	}
	for done := 0; done < episodes; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := min(a.batchSize(), episodes-done)
		// The bound snapshot is taken at the batch boundary: every rollout in
		// the batch sees the same incumbent, so the policy-gradient update —
		// and with it the whole learning trajectory — stays deterministic for
		// a given seed.
		eps, err := a.RunEpisodesBounded(ev, k, true, inc.get())
		if err != nil {
			return nil, err
		}
		for _, ep := range eps {
			consider(ep.Eval)
		}
		done += k
	}
	if episodes > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ep, err := a.RunEpisode(ev, false, true)
		if err != nil {
			return nil, err
		}
		consider(ep.Eval)
	}
	if best == nil {
		return nil, fmt.Errorf("%w for %s", ErrNoStrategy, ev.Graph.Name)
	}
	// Execution order is part of the produced configuration (§3.5's
	// heterog_config chooses between the default order and the scheduling
	// algorithm): keep whichever order runs the winning strategy faster.
	if !ev.UseFIFO {
		if e, err := fifoEv.Evaluate(best.Strategy); err == nil {
			consider(e)
		}
	}
	return best, nil
}

// TrainResult summarizes a training run (Table 6's measurements).
type TrainResult struct {
	Episodes     int
	BestReward   float64
	BestTime     float64
	RewardsTrace []float64
}

// batchSize returns the configured rollout batch size.
func (a *Agent) batchSize() int {
	if a.cfg.BatchEpisodes > 0 {
		return a.cfg.BatchEpisodes
	}
	return 4
}

// Train runs batched episodes round-robin over several graphs until the best
// reward stops improving for `patience` consecutive episodes (or maxEpisodes
// is hit), returning the per-graph convergence traces. Each round decodes a
// batch from one forward pass and evaluates it in parallel (RunEpisodes).
// This is the multi-graph pre-training of §4.1.3 and the measurement behind
// Table 6. Cached per-evaluator encodings are released on return.
func (a *Agent) Train(evs []*core.Evaluator, maxEpisodes, patience int) ([]TrainResult, error) {
	defer func() {
		for _, ev := range evs {
			a.ReleaseState(ev)
		}
	}()
	results := make([]TrainResult, len(evs))
	for i := range results {
		results[i].BestReward = -1e18
	}
	stale := make([]int, len(evs))
	activeAll := true
	for activeAll {
		activeAll = false
		for gi, ev := range evs {
			r := &results[gi]
			if stale[gi] >= patience || r.Episodes >= maxEpisodes {
				continue
			}
			activeAll = true
			k := min(a.batchSize(), maxEpisodes-r.Episodes, patience-stale[gi])
			eps, err := a.RunEpisodes(ev, k, true)
			if err != nil {
				return nil, err
			}
			for _, e := range eps {
				r.Episodes++
				r.RewardsTrace = append(r.RewardsTrace, e.Reward)
				if e.Reward > r.BestReward+1e-9 {
					r.BestReward = e.Reward
					r.BestTime = e.Eval.Time()
					stale[gi] = 0
				} else {
					stale[gi]++
				}
			}
		}
	}
	return results, nil
}

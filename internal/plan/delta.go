package plan

import (
	"fmt"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// DefaultDeltaMaxOps is the patch-path diff budget: when more logical ops
// change their effective decision between the baseline and the proposed
// strategy, Apply falls back to a full recompilation. Mutation episodes flip
// one or two groups — a handful of ops (forward + backward + gradient +
// apply per group) — so the default comfortably covers the intended regime
// while keeping large jumps on the exact full path.
const DefaultDeltaMaxOps = 16

// DeltaStats reports what one Apply did.
type DeltaStats struct {
	// Full is true when Apply recompiled from scratch (diff over budget, no
	// baseline yet, or a patch error forcing the safe path).
	Full bool
	// ChangedOps counts logical ops whose effective decision changed.
	ChangedOps int
	// Relowered counts logical ops (compute ops + aggregation sites) whose
	// lowered form was rebuilt by the patch; 0 on the full path.
	Relowered int
}

// DeltaState incrementally re-lowers successive strategies against a retained
// baseline. The first Apply compiles in full; later Applies diff the new
// strategy's effective per-op decisions against the baseline's and rebuild
// only the affected ops' lowered form:
//
//   - changed ops get fresh instances under their new layouts;
//   - unchanged ops structure-share their DistOp instances (the same
//     objects, not copies), so references from untouched buckets stay valid;
//   - consumers of changed ops rebuild their glue (Split/Concat/Send) and
//     control edges in place, reusing their own instances;
//   - aggregation sites re-lower when their gradient changed or when the
//     parameter-server load balancer would now place them elsewhere —
//     detected by an analytic replay of PS placement from recorded
//     per-candidate costs, never by re-walking unchanged transfer times;
//   - Materialize and Verify then run in full over the patched program, so
//     dense IDs, NIC-lane round-robin and every structural invariant are
//     re-established exactly as a from-scratch compile would.
//
// The patched artifacts are bit-identical to a full recompilation of the new
// strategy (golden-pinned in core's tests). A DeltaState is not safe for
// concurrent use, and the Artifacts it returns are invalidated by the next
// Apply — callers must finish simulating before proposing the next mutation.
type DeltaState struct {
	g     *graph.Graph
	c     *cluster.Cluster
	cost  compiler.Coster
	iters int
	ab    compiler.Ablations

	maxChanged int

	art  *Artifacts          // current baseline; nil after a failed rebuild
	decs []strategy.Decision // effective decision per logical op ID
	byID []*graph.Op         // logical ops indexed by ID
	gen  uint64              // bumped whenever the baseline artifacts change
}

// NewDeltaState compiles the initial baseline in full. maxChanged <= 0 picks
// DefaultDeltaMaxOps.
func NewDeltaState(g *graph.Graph, c *cluster.Cluster, s *strategy.Strategy, cost compiler.Coster, iters int, ab compiler.Ablations, maxChanged int) (*DeltaState, error) {
	d := &DeltaState{g: g, c: c, cost: cost, iters: iters, ab: ab, maxChanged: maxChanged}
	if d.maxChanged <= 0 {
		d.maxChanged = DefaultDeltaMaxOps
	}
	if err := d.rebuild(s); err != nil {
		return nil, err
	}
	return d, nil
}

// Generation identifies the current baseline artifacts: it advances on every
// Apply that rebuilt or patched them, and stays put across Applies that found
// a zero diff. Callers memoizing results derived from the artifacts (an
// ordered schedule, a simulation) can use it as their validity token.
func (d *DeltaState) Generation() uint64 { return d.gen }

// DiffCount reports how many logical ops' effective decisions differ between
// s and the retained baseline, without touching the baseline. Returns -1 when
// no baseline exists (after a failed rebuild). A zero diff means Apply(s)
// would return the baseline artifacts unchanged.
func (d *DeltaState) DiffCount(s *strategy.Strategy) int {
	if d.art == nil {
		return -1
	}
	n := 0
	for _, op := range d.art.Order {
		if compiler.EffectiveDecision(s, op) != d.decs[op.ID] {
			n++
		}
	}
	return n
}

// rebuild compiles s from scratch and adopts it as the baseline.
func (d *DeltaState) rebuild(s *strategy.Strategy) error {
	d.art = nil
	d.gen++
	a := NewArtifacts(d.g, d.c, s, d.cost, d.iters, d.ab)
	if err := Lower(a); err != nil {
		return err
	}
	d.art = a
	d.record()
	return nil
}

// record snapshots the baseline's effective per-op decisions and ID index.
func (d *DeltaState) record() {
	a := d.art
	n := d.g.NumOps()
	if cap(d.decs) < n {
		d.decs = make([]strategy.Decision, n)
		d.byID = make([]*graph.Op, n)
	}
	d.decs = d.decs[:n]
	d.byID = d.byID[:n]
	for _, op := range a.Order {
		d.decs[op.ID] = compiler.EffectiveDecision(a.Strategy, op)
		d.byID[op.ID] = op
	}
}

// Apply patches the baseline toward strategy s and returns the resulting
// artifacts (lowered and verified; run Ordering via ForOrder before
// simulating). The returned artifacts are owned by the DeltaState and are
// invalidated by the next Apply or rebuild.
func (d *DeltaState) Apply(s *strategy.Strategy) (*Artifacts, DeltaStats, error) {
	if err := s.Validate(d.c); err != nil {
		return nil, DeltaStats{}, err
	}
	if d.art == nil {
		// Previous build failed; start over in full.
		st := DeltaStats{Full: true}
		if err := d.rebuild(s); err != nil {
			return nil, st, err
		}
		return d.art, st, nil
	}
	a := d.art
	var st DeltaStats
	changed := make(map[int]bool)
	for _, op := range a.Order {
		if compiler.EffectiveDecision(s, op) != d.decs[op.ID] {
			changed[op.ID] = true
		}
	}
	st.ChangedOps = len(changed)
	if len(changed) == 0 {
		// Effectively the incumbent strategy: artifacts are already exact.
		a.Strategy = s
		return a, st, nil
	}
	if len(changed) > d.maxChanged {
		st.Full = true
		if err := d.rebuild(s); err != nil {
			return nil, st, err
		}
		return d.art, st, nil
	}
	d.gen++
	if err := d.patch(s, changed, &st); err != nil {
		// A failed patch leaves the program half-rewired; rebuild from
		// scratch. If the strategy itself cannot lower (e.g. a missing link),
		// the rebuild reports the same error the full path would.
		st.Full = true
		st.Relowered = 0
		if rerr := d.rebuild(s); rerr != nil {
			return nil, st, rerr
		}
		return d.art, st, nil
	}
	d.record()
	return d.art, st, nil
}

// patch rewires the baseline program in place for strategy s, given the set
// of changed logical op IDs.
func (d *DeltaState) patch(s *strategy.Strategy, changed map[int]bool, st *DeltaStats) error {
	a := d.art
	a.Strategy = s

	// Fresh instances for changed compute ops (their layout moves).
	fresh := make(map[int]bool, len(changed))
	for id := range changed {
		op := d.byID[id]
		if op == nil || op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient {
			continue
		}
		fresh[id] = true
	}

	// Replay PS placement analytically to find the aggregation sites that
	// must re-lower: a changed gradient, or a parameter-server pick that
	// moved because earlier sites shifted the projected NIC load.
	affectedSite, err := d.replaySites(s, changed)
	if err != nil {
		return err
	}

	// Rewire set: unchanged compute ops whose buckets reference re-created
	// instances — data or control consumers of fresh ops, control consumers
	// of re-lowered apply sites, and the forward ops whose cross-iteration
	// parameter-ready inputs come from a re-lowered site.
	rewire := make(map[int]bool)
	for _, op := range a.Order {
		if op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient || fresh[op.ID] {
			continue
		}
		need := false
		for _, in := range op.Inputs {
			if fresh[in.ID] {
				need = true
			}
		}
		for _, cd := range op.ControlDeps {
			if cd.Kind == graph.KindApplyGradient {
				if affectedSite[cd.ID] {
					need = true
				}
			} else if fresh[cd.ID] {
				need = true
			}
		}
		if need {
			rewire[op.ID] = true
		}
	}
	for applyID := range affectedSite {
		if fwd := d.byID[applyID].Forward; fwd != nil && !fresh[fwd.ID] {
			rewire[fwd.ID] = true
		}
	}

	// New layouts for fresh ops; apply-site layouts are owned by the site
	// re-lowering below.
	for id := range fresh {
		a.Layouts[id] = LayoutFor(compiler.EffectiveDecision(s, d.byID[id]), a.Cluster)
	}

	// Rebuild affected buckets in emission order. Slots are position-
	// addressed, so interleaving edge and aggregation lowering per iteration
	// flattens identically to the full pipeline's pass-at-a-time order.
	pass := NewAggregationLowering()
	ctx := &AggContext{a: a, psLoad: make([]float64, a.Cluster.NumDevices())}
	for it := 0; it < a.Iterations; it++ {
		for i := range ctx.psLoad {
			ctx.psLoad[i] = 0
		}
		for ti, op := range a.Order {
			switch {
			case op.Kind == graph.KindNoOp:
			case op.Kind == graph.KindApplyGradient:
				if affectedSite[op.ID] {
					a.prog.clear(it, ti)
					clear(a.inst(it, op.ID))
					if fwd := op.Forward; fwd != nil {
						clear(a.readyRow(it, fwd.ID))
					}
					site, err := newAggSite(a, op, it, ti)
					if err != nil {
						return err
					}
					// Drop the PS record: the PS backend re-records it, and a
					// site re-lowered to AllReduce/local must stop contributing
					// to the load replay (a stale record would skew psLoad for
					// every later site).
					delete(a.psSites, op.ID)
					ctx.e = &emitter{a: a, iter: it, slot: ti}
					backend := pass.backendFor(site)
					if backend == nil {
						return fmt.Errorf("no aggregation backend accepts apply op %q (decision %v over %d replicas)", op.Name, site.Decision.Kind, len(site.Devs))
					}
					if err := backend.Lower(ctx, site); err != nil {
						return err
					}
					if it == 0 {
						st.Relowered++
					}
				} else if rec := a.psSites[op.ID]; rec != nil {
					// Unaffected PS site: advance the shared load balancer
					// exactly as its (unchanged) lowering did.
					ctx.psLoad[rec.best] += rec.bestBusy
				}
			case fresh[op.ID] || rewire[op.ID]:
				if err := relowerBucket(a, it, ti, op, !fresh[op.ID]); err != nil {
					return err
				}
				if it == 0 {
					st.Relowered++
				}
			}
		}
	}

	relit := func(id int) bool { return fresh[id] || rewire[id] }
	patchParamReady(a, relit)
	patchDeferredCtrl(a, relit)
	a.PersistentBytes = persistentBytes(a)
	if err := (MaterializePass{}).Run(a); err != nil {
		return err
	}
	return (VerifyPass{}).Run(a)
}

// replaySites classifies every aggregation site under the new strategy and
// returns the set of apply op IDs whose lowered form must be rebuilt. PS
// placement is replayed from the recorded per-candidate costs: the choice at
// each site is argmin(worst + psLoad), so an earlier site's move can cascade
// into later picks — the replay tracks the evolving load exactly as the full
// pass would, in O(sites x replicas) float compares, recomputing transfer
// times only for sites whose replica set actually changed.
func (d *DeltaState) replaySites(s *strategy.Strategy, changed map[int]bool) (map[int]bool, error) {
	a := d.art
	affected := make(map[int]bool)
	psLoad := make([]float64, a.Cluster.NumDevices())
	for _, op := range a.Order {
		if op.Kind != graph.KindApplyGradient {
			continue
		}
		if len(op.Inputs) != 1 {
			return nil, fmt.Errorf("apply op %q must have exactly one grad input, has %d", op.Name, len(op.Inputs))
		}
		gw := op.Inputs[0]
		dec := compiler.EffectiveDecision(s, op)
		var devs []int
		if changed[gw.ID] {
			devs = LayoutFor(compiler.EffectiveDecision(s, gw), a.Cluster).Devices()
		} else {
			devs = a.Layouts[gw.ID].Devices()
		}
		// Backend chain mirror: local single-replica, AllReduce, else PS.
		if len(devs) == 1 || dec.Kind.UsesAllReduce() {
			if changed[op.ID] || changed[gw.ID] {
				affected[op.ID] = true
			}
			continue
		}
		gradBytes := gw.ParamBytes
		if gradBytes == 0 {
			gradBytes = gw.OutputBytes
		}
		pushWhole := psPushBytes(a.Ablate, gw, gradBytes)
		rec := a.psSites[op.ID]
		var worst, busy []float64
		if rec != nil && !changed[gw.ID] && rec.pushBytes == pushWhole {
			worst, busy = rec.worst, rec.busy
		} else {
			worst, busy = psCosts(a.Cost, devs, pushWhole)
		}
		ps, bestBusy := choosePSLoaded(a.Cluster, devs, worst, busy, psLoad)
		psLoad[ps] += bestBusy
		if changed[op.ID] || changed[gw.ID] || rec == nil || ps != rec.best {
			affected[op.ID] = true
		}
	}
	return affected, nil
}

// relowerBucket rebuilds one compute op's bucket: instances (fresh objects
// for changed ops, the baseline's own objects with reset inputs for rewired
// consumers), then the same glue and control wiring lowerCompute emits.
// Control deps on apply ops are deliberately not re-deferred — the deferred
// list is strategy-independent and patchDeferredCtrl re-links from it.
func relowerBucket(a *Artifacts, it, slot int, op *graph.Op, keepInst bool) error {
	a.prog.clear(it, slot)
	e := &emitter{a: a, iter: it, slot: slot}
	lay := a.Layouts[op.ID]
	inst := a.inst(it, op.ID)
	if keepInst {
		for _, dev := range lay.Devices() {
			dop := inst[dev].Op
			dop.Inputs = dop.Inputs[:0]
			n := &Node{Op: dop, PlanMem: true, Frac: lay.Fracs[dev]}
			a.prog.emit(it, slot, n)
			inst[dev] = n
		}
	} else {
		clear(inst)
		room := len(op.Inputs) + len(op.ControlDeps) + 1
		for _, dev := range lay.Devices() {
			frac := lay.Fracs[dev]
			t := a.Cost.OpTime(op, dev, frac)
			n := e.add(instName(it, op.Name, "", dev), op.Kind, a.unit(dev), t, 0, dev, op)
			n.Op.Iter = it
			n.Op.Inputs = a.slab.inputs(room)
			n.PlanMem = true
			n.Frac = frac
			// MemoryPlanning equivalent, applied inline: the full pass only
			// sizes buffers it has not sized before.
			n.Op.OutBytes = activationBytes(op, frac)
			inst[dev] = n
		}
	}
	for _, in := range op.Inputs {
		if in.Kind == graph.KindNoOp {
			continue
		}
		if _, err := connect(a, e, in, op); err != nil {
			return err
		}
	}
	for _, cd := range op.ControlDeps {
		if cd.Kind == graph.KindApplyGradient {
			continue
		}
		wireCtrl(inst, a.inst(it, cd.ID))
	}
	return nil
}

// patchParamReady re-adds the cross-iteration parameter-ready inputs that
// bucket rebuilding dropped, mirroring linkParamReady for relit ops only.
// Unrelit forward ops keep their baseline ready pointers (still valid: their
// sites were not rebuilt).
func patchParamReady(a *Artifacts, relit func(int) bool) {
	for it := 1; it < a.Iterations; it++ {
		for _, op := range a.Order {
			if op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient {
				continue
			}
			if op.ParamBytes <= 0 || op.Kind.IsBackward() {
				continue
			}
			if !relit(op.ID) {
				continue
			}
			ready := a.readyRow(it-1, op.ID)
			inst := a.inst(it, op.ID)
			for _, dev := range a.Layouts[op.ID].Devices() {
				if pr := ready[dev]; pr != nil {
					inst[dev].link(pr)
				}
			}
		}
	}
}

// patchDeferredCtrl re-links apply-sourced control edges for relit consumers,
// mirroring linkDeferredCtrl. Consumers of re-lowered sites are always in the
// rewire set, so every stale edge is covered.
func patchDeferredCtrl(a *Artifacts, relit func(int) bool) {
	for _, ce := range a.deferredCtrl {
		if !relit(ce.consumer.ID) {
			continue
		}
		wireCtrl(a.inst(ce.iter, ce.consumer.ID), a.inst(ce.iter, ce.src.ID))
	}
}

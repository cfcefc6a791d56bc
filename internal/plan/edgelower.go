package plan

import (
	"fmt"
	"strconv"

	"heterog/internal/compiler"
	"heterog/internal/graph"
)

// EdgeLoweringPass instantiates replicas of every computation op and wires
// data edges between them, inserting Split/Concat/Send glue where producer
// and consumer layouts differ. ApplyGradient ops (and their push/pull/relay
// traffic) belong to AggregationLowering; control dependencies whose source
// is an apply op are deferred to that pass's link step.
type EdgeLoweringPass struct{}

// Name implements Pass.
func (EdgeLoweringPass) Name() string { return "edge-lowering" }

// Run implements Pass.
func (EdgeLoweringPass) Run(a *Artifacts) error {
	a.devs = a.Cluster.NumDevices()
	rowLen := len(a.Graph.Ops) * a.devs
	insts := make([]*Node, a.Iterations*rowLen)
	ready := make([]*compiler.DistOp, a.Iterations*rowLen)
	a.instances = make([][]*Node, a.Iterations)
	a.ready = make([][]*compiler.DistOp, a.Iterations)
	for it := range a.instances {
		a.instances[it] = insts[it*rowLen : (it+1)*rowLen]
		a.ready[it] = ready[it*rowLen : (it+1)*rowLen]
	}
	a.unitIDs = make([]int, (&compiler.DistGraph{Cluster: a.Cluster}).NumUnits())
	for u := range a.unitIDs {
		a.unitIDs[u] = u
	}
	// Size the node list for the compute instances plus a quarter for glue
	// and aggregation.
	replicas := 0
	for _, op := range a.Order {
		replicas += len(a.Layouts[op.ID].Devices())
	}
	a.prog = newProgram(a.Iterations, len(a.Order), a.Iterations*replicas*5/4)
	var bytes int64
	for it := 0; it < a.Iterations; it++ {
		for ti, op := range a.Order {
			switch op.Kind {
			case graph.KindNoOp:
				// Input pipeline: materializes on demand with no cost.
				continue
			case graph.KindApplyGradient:
				continue
			}
			e := emitter{a: a, iter: it, slot: ti}
			moved, err := lowerCompute(a, &e, op)
			if err != nil {
				return err
			}
			bytes += moved
		}
	}
	a.note(a.prog.count(), bytes)
	return nil
}

// lowerCompute mirrors the monolithic compileCompute: one instance per
// layout device, then glue per input edge, then control dependencies. It
// returns the tensor bytes routed through inserted transfers.
func lowerCompute(a *Artifacts, e *emitter, op *graph.Op) (int64, error) {
	lay := a.Layouts[op.ID]
	inst := a.inst(e.iter, op.ID)
	// Every data input, control dependency and the cross-iteration
	// parameter-ready input adds one producer to each instance.
	room := len(op.Inputs) + len(op.ControlDeps) + 1
	for _, dev := range lay.Devices() {
		frac := lay.Fracs[dev]
		t := a.Cost.OpTime(op, dev, frac)
		// The activation buffer (OutBytes) is sized by MemoryPlanning; the
		// node carries the batch fraction it needs.
		n := e.add(instName(e.iter, op.Name, "", dev), op.Kind, a.unit(dev), t, 0, dev, op)
		n.Op.Iter = e.iter
		n.Op.Inputs = a.slab.inputs(room)
		n.PlanMem = true
		n.Frac = frac
		inst[dev] = n
	}
	var moved int64
	for _, in := range op.Inputs {
		if in.Kind == graph.KindNoOp {
			continue
		}
		if in.Kind == graph.KindApplyGradient {
			return 0, fmt.Errorf("op %q consumes the output of apply op %q: apply outputs have no tensor value and cannot be data inputs", op.Name, in.Name)
		}
		b, err := connect(a, e, in, op)
		if err != nil {
			return 0, err
		}
		moved += b
	}
	// Control dependencies transfer device-wise where possible, else to all.
	// Sources lowered by the aggregation pass do not exist yet: defer them.
	for _, cd := range op.ControlDeps {
		if cd.Kind == graph.KindApplyGradient {
			a.deferredCtrl = append(a.deferredCtrl, ctrlEdge{iter: e.iter, consumer: op, src: cd})
			continue
		}
		wireCtrl(inst, a.inst(e.iter, cd.ID))
	}
	return moved, nil
}

// wireCtrl adds ordering-only edges from a source op's instances to a
// consumer's instances: same-device where available, else the first instance
// in device order. A source with no instances adds nothing.
func wireCtrl(inst, srcInst []*Node) {
	first := firstInstance(srcInst)
	if first == nil {
		return
	}
	for dev, di := range inst {
		if di == nil {
			continue
		}
		si := first
		if s := srcInst[dev]; s != nil {
			si = s
		}
		di.link(si.Op)
		di.markCtrl(si.Op)
	}
}

// connect wires producer p's instances into consumer c's instances,
// returning the bytes moved over inserted transfers.
func connect(a *Artifacts, e *emitter, p, c *graph.Op) (int64, error) {
	pl := a.Layouts[p.ID]
	if pl.Fracs == nil {
		return 0, fmt.Errorf("producer %q lowered after consumer %q", p.Name, c.Name)
	}
	cl := a.Layouts[c.ID]
	pInst := a.inst(e.iter, p.ID)
	cInst := a.inst(e.iter, c.ID)
	var moved int64

	// Non-batch producers hold a full copy per instance: each consumer device
	// either has a local copy or receives a broadcast of the full tensor.
	if !p.BatchDim {
		src := firstInstance(pInst)
		for _, dev := range cl.Devices() {
			if pi := pInst[dev]; pi != nil {
				cInst[dev].link(pi.Op)
				continue
			}
			send, err := e.addSend(p.Name+"->"+strconv.Itoa(dev), src.Op.MemDevice, dev, p.OutputBytes, src.Op)
			if err != nil {
				return 0, err
			}
			moved += p.OutputBytes
			cInst[dev].link(send.Op)
		}
		return moved, nil
	}

	// Aligned layouts: direct same-device edges, no communication.
	if pl.Equal(cl) {
		for _, dev := range cl.Devices() {
			cInst[dev].link(pInst[dev].Op)
		}
		return 0, nil
	}

	// MP -> MP across devices: a single whole-tensor transfer.
	pDevs, cDevs := pl.Devices(), cl.Devices()
	if len(pDevs) == 1 && len(cDevs) == 1 {
		send, err := e.addSend(p.Name+"->"+c.Name, pDevs[0], cDevs[0], p.OutputBytes, pInst[pDevs[0]].Op)
		if err != nil {
			return 0, err
		}
		cInst[cDevs[0]].link(send.Op)
		return p.OutputBytes, nil
	}

	// General mismatch: gather shards to a hub, Concat, Split, scatter.
	// The hub is the device touching the most data on both sides.
	hub, best := -1, -1.0
	for dev := 0; dev < a.Cluster.NumDevices(); dev++ {
		score := pl.Fracs[dev] + cl.Fracs[dev]
		if score > best {
			best, hub = score, dev
		}
	}
	hubName := strconv.Itoa(hub)
	concatIns := a.slab.inputs(len(pDevs))
	for _, dev := range pDevs {
		pi := pInst[dev].Op
		if dev == hub {
			concatIns = append(concatIns, pi)
			continue
		}
		bytes := int64(float64(p.OutputBytes) * pl.Fracs[dev])
		send, err := e.addSend(p.Name+"@"+strconv.Itoa(dev)+"->hub"+hubName, dev, hub, bytes, pi)
		if err != nil {
			return 0, err
		}
		moved += bytes
		concatIns = append(concatIns, send.Op)
	}
	whole := concatIns[0]
	if len(concatIns) > 1 {
		t := a.synthTime(p.Name+"_concat", graph.KindConcat, p.OutputBytes, true, hub)
		cn := e.add(p.Name+"_concat@"+hubName, graph.KindConcat, a.unit(hub), t, p.OutputBytes, hub, nil)
		cn.Op.Inputs = concatIns
		cn.ShardDevs = append(a.slab.units(len(pDevs)), pDevs...)
		whole = cn.Op
	}
	shardSrc := whole
	if len(cDevs) > 1 {
		t := a.synthTime(p.Name+"_split", graph.KindSplit, p.OutputBytes, true, hub)
		shardSrc = e.add(p.Name+"_split@"+hubName, graph.KindSplit, a.unit(hub), t, p.OutputBytes, hub, nil, whole).Op
	}
	for _, dev := range cDevs {
		if dev == hub {
			cInst[dev].link(shardSrc)
			continue
		}
		bytes := int64(float64(p.OutputBytes) * cl.Fracs[dev])
		send, err := e.addSend("hub"+hubName+"->"+c.Name+"@"+strconv.Itoa(dev), hub, dev, bytes, shardSrc)
		if err != nil {
			return 0, err
		}
		moved += bytes
		cInst[dev].link(send.Op)
	}
	return moved, nil
}

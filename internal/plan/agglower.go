package plan

import (
	"fmt"
	"strconv"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// AggSite describes one gradient-aggregation site: an ApplyGradient op, its
// weight-gradient producer, and the replica layout the gradient lives in.
type AggSite struct {
	// Apply is the logical ApplyGradient op being lowered.
	Apply *graph.Op
	// Grad is its single weight-gradient input.
	Grad *graph.Op
	// Decision is the effective strategy decision (the forward op's group).
	Decision strategy.Decision
	// Layout and Devs describe where gradient replicas live.
	Layout Layout
	Devs   []int
	// GradBytes is the dense gradient tensor size.
	GradBytes int64
	// Iter and Slot locate the site in the emission program.
	Iter, Slot int
}

// Lowering is a pluggable gradient-aggregation backend. Backends are probed
// in order; the first whose Accepts returns true lowers the site. A backend
// must emit through the AggContext so node creation order (and therefore
// dist-op IDs and NIC-lane assignment) stays deterministic.
type Lowering interface {
	Name() string
	Accepts(site *AggSite) bool
	Lower(ctx *AggContext, site *AggSite) error
}

// AggContext gives a Lowering controlled access to the pipeline state: node
// emission scoped to the site's bucket, the shared PS-load balancer, and the
// bookkeeping every backend must maintain (apply instances, apply layout,
// parameter-ready ops for cross-iteration dependencies).
type AggContext struct {
	a *Artifacts
	e *emitter
	// psLoad tracks projected NIC busy-seconds already committed to each
	// device acting as a PS, so parameter-server roles spread across servers
	// instead of piling onto one NIC. It resets every iteration.
	psLoad []float64
	moved  int64
}

// Cost returns the cost model.
func (ctx *AggContext) Cost() compiler.Coster { return ctx.a.Cost }

// GradInstances returns the gradient producer's instances for the site's
// iteration, indexed by device (nil where it has no replica).
func (ctx *AggContext) GradInstances(site *AggSite) []*Node {
	return ctx.a.inst(site.Iter, site.Grad.ID)
}

// Unit returns the shared one-element unit list {u}; it must not be
// modified.
func (ctx *AggContext) Unit(u int) []int { return ctx.a.unit(u) }

// Inputs returns an empty producer list with room for k entries, for a node
// whose inputs are collected before it is emitted.
func (ctx *AggContext) Inputs(k int) []*compiler.DistOp { return ctx.a.slab.inputs(k) }

// Emit creates a node in the site's bucket. The inputs are copied.
func (ctx *AggContext) Emit(name string, kind graph.OpKind, units []int, t float64, outBytes int64, memDev int, src *graph.Op, inputs ...*compiler.DistOp) *Node {
	n := ctx.e.add(name, kind, units, t, outBytes, memDev, src, inputs...)
	n.Op.Iter = ctx.e.iter
	return n
}

// EmitSend creates a transfer in the site's bucket (comm units are assigned
// at materialization, in global emission order).
func (ctx *AggContext) EmitSend(name string, srcDev, dstDev int, bytes int64, inputs ...*compiler.DistOp) (*Node, error) {
	n, err := ctx.e.addSend(name, srcDev, dstDev, bytes, inputs...)
	if err != nil {
		return nil, err
	}
	n.Op.Iter = ctx.e.iter
	ctx.moved += bytes
	return n, nil
}

// SetApply records the apply op's resulting layout (a PS collapses it to the
// chosen server device).
func (ctx *AggContext) SetApply(site *AggSite, lay Layout) {
	ctx.a.Layouts[site.Apply.ID] = lay
}

// SetApplyInstance records the apply op's lowered instance on dev, the
// source of control edges from the apply op.
func (ctx *AggContext) SetApplyInstance(site *AggSite, dev int, n *Node) {
	ctx.a.inst(site.Iter, site.Apply.ID)[dev] = n
}

// SetReady records the op that must finish before the site's forward op may
// reuse its parameters on dev in the next iteration.
func (ctx *AggContext) SetReady(site *AggSite, dev int, op *compiler.DistOp) {
	fwd := site.Apply.Forward
	if fwd == nil {
		return
	}
	ctx.a.readyRow(site.Iter, fwd.ID)[dev] = op
}

// AggregationLoweringPass lowers every ApplyGradient op through its first
// accepting backend, then links the deferred edges that cross pass
// boundaries: cross-iteration parameter-ready inputs and control
// dependencies whose source is an apply op.
type AggregationLoweringPass struct {
	Backends []Lowering
}

// NewAggregationLowering returns the pass with the standard backend chain:
// single-replica local apply, NCCL AllReduce, parameter server.
func NewAggregationLowering() *AggregationLoweringPass {
	return &AggregationLoweringPass{Backends: []Lowering{
		LocalApplyLowering{},
		AllReduceLowering{},
		ParamServerLowering{},
	}}
}

// Name implements Pass.
func (*AggregationLoweringPass) Name() string { return "aggregation-lowering" }

// Run implements Pass.
func (p *AggregationLoweringPass) Run(a *Artifacts) error {
	ctx := &AggContext{a: a, psLoad: make([]float64, a.Cluster.NumDevices())}
	// PS placement choices are identical across iterations (psLoad resets per
	// iteration and every input is iteration-independent), so one record per
	// apply op suffices; later iterations overwrite with equal values.
	a.psSites = make(map[int]*psSiteRec)
	before := a.prog.count()
	for it := 0; it < a.Iterations; it++ {
		for i := range ctx.psLoad {
			ctx.psLoad[i] = 0
		}
		for ti, op := range a.Order {
			if op.Kind != graph.KindApplyGradient {
				continue
			}
			site, err := newAggSite(a, op, it, ti)
			if err != nil {
				return err
			}
			ctx.e = &emitter{a: a, iter: it, slot: ti}
			backend := p.backendFor(site)
			if backend == nil {
				return fmt.Errorf("no aggregation backend accepts apply op %q (decision %v over %d replicas)", op.Name, site.Decision.Kind, len(site.Devs))
			}
			if err := backend.Lower(ctx, site); err != nil {
				return err
			}
		}
	}
	linkParamReady(a)
	linkDeferredCtrl(a)
	a.note(a.prog.count()-before, ctx.moved)
	return nil
}

func (p *AggregationLoweringPass) backendFor(site *AggSite) Lowering {
	for _, b := range p.Backends {
		if b.Accepts(site) {
			return b
		}
	}
	return nil
}

func newAggSite(a *Artifacts, op *graph.Op, iter, slot int) (*AggSite, error) {
	if len(op.Inputs) != 1 {
		return nil, fmt.Errorf("apply op %q must have exactly one grad input, has %d", op.Name, len(op.Inputs))
	}
	gw := op.Inputs[0]
	gradBytes := gw.ParamBytes
	if gradBytes == 0 {
		gradBytes = gw.OutputBytes
	}
	lay := a.Layouts[gw.ID]
	return &AggSite{
		Apply:     op,
		Grad:      gw,
		Decision:  compiler.EffectiveDecision(a.Strategy, op),
		Layout:    lay,
		Devs:      lay.Devices(),
		GradBytes: gradBytes,
		Iter:      iter,
		Slot:      slot,
	}, nil
}

// linkParamReady wires the cross-iteration dependency: a forward op that
// owns parameters in iteration k waits for the op that delivered its updated
// parameters in iteration k-1 (the PS pull/relay, or the local apply).
func linkParamReady(a *Artifacts) {
	for it := 1; it < a.Iterations; it++ {
		for _, op := range a.Order {
			if op.Kind == graph.KindNoOp || op.Kind == graph.KindApplyGradient {
				continue
			}
			if op.ParamBytes <= 0 || op.Kind.IsBackward() {
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

// linkDeferredCtrl resolves control dependencies whose source is an
// ApplyGradient op, now that apply instances exist.
func linkDeferredCtrl(a *Artifacts) {
	for _, ce := range a.deferredCtrl {
		wireCtrl(a.inst(ce.iter, ce.consumer.ID), a.inst(ce.iter, ce.src.ID))
	}
}

// LocalApplyLowering handles single-replica layouts: the gradient is already
// whole on one device, so the update is a plain local apply.
type LocalApplyLowering struct{}

// Name implements Lowering.
func (LocalApplyLowering) Name() string { return "local" }

// Accepts implements Lowering.
func (LocalApplyLowering) Accepts(site *AggSite) bool { return len(site.Devs) == 1 }

// Lower implements Lowering.
func (LocalApplyLowering) Lower(ctx *AggContext, site *AggSite) error {
	dev := site.Devs[0]
	op := site.Apply
	gwInst := ctx.GradInstances(site)
	t := ctx.Cost().OpTime(op, dev, 1)
	apply := ctx.Emit(instName(site.Iter, op.Name, "", dev), op.Kind, ctx.Unit(dev), t, op.OutputBytes, dev, op, gwInst[dev].Op)
	ctx.SetReady(site, dev, apply.Op)
	ctx.SetApplyInstance(site, dev, apply)
	ctx.SetApply(site, oneHot(ctx.a.Cluster.NumDevices(), dev))
	return nil
}

// AllReduceLowering emits one NCCL collective followed by per-replica local
// applies. The collective occupies the NCCL unit (collectives for different
// ops never overlap) plus the NICs or PCIe buses of every participating
// server while it transfers — PS traffic for other ops can only fill the
// gaps while a collective waits for its inputs, exactly the hybrid-overlap
// opportunity the paper describes.
type AllReduceLowering struct{}

// Name implements Lowering.
func (AllReduceLowering) Name() string { return "allreduce" }

// Accepts implements Lowering.
func (AllReduceLowering) Accepts(site *AggSite) bool { return site.Decision.Kind.UsesAllReduce() }

// Lower implements Lowering.
func (AllReduceLowering) Lower(ctx *AggContext, site *AggSite) error {
	a := ctx.a
	op, gw := site.Apply, site.Grad
	gwInst := ctx.GradInstances(site)
	t := allReduceTime(a, site.Devs, site.GradBytes)
	units := allReduceUnits(a, site.Devs)
	grads := ctx.Inputs(len(site.Devs))
	for _, n := range gwInst {
		if n != nil {
			grads = append(grads, n.Op)
		}
	}
	ar := ctx.Emit("it"+strconv.Itoa(site.Iter)+"/"+gw.Name+"_allreduce", graph.KindAllReduce, units, t, 0, -1, nil)
	ar.Op.Inputs = grads
	for _, dev := range site.Devs {
		at := ctx.Cost().OpTime(op, dev, 1)
		apply := ctx.Emit(instName(site.Iter, op.Name, "", dev), op.Kind, ctx.Unit(dev), at, op.OutputBytes, dev, op, ar.Op)
		ctx.SetApplyInstance(site, dev, apply)
		ctx.SetReady(site, dev, apply.Op)
	}
	ctx.SetApply(site, site.Layout)
	return nil
}

// ParamServerLowering emits the PS push/aggregate/apply/pull pipeline: pick
// the PS among replica devices minimizing the worst-case push completion
// (ties go to the slowest GPU so the laggard's own gradient needs no
// transfer — Fig 2(a)'s trick), aggregate and apply there, then pull updated
// parameters once per server with PCIe relays fanning out within servers.
// Parameter servers can ship embedding gradients in sparse IndexedSlices
// form: each replica pushes only the rows its shard touched, and pulls only
// the updated rows. AllReduce always moves the dense tensor.
type ParamServerLowering struct{}

// Name implements Lowering.
func (ParamServerLowering) Name() string { return "param-server" }

// Accepts implements Lowering.
func (ParamServerLowering) Accepts(site *AggSite) bool { return true }

// Lower implements Lowering.
func (ParamServerLowering) Lower(ctx *AggContext, site *AggSite) error {
	a := ctx.a
	op, gw := site.Apply, site.Grad
	gwInst := ctx.GradInstances(site)
	lay, devs, gradBytes := site.Layout, site.Devs, site.GradBytes
	pushWhole := psPushBytes(a.Ablate, gw, gradBytes)
	ps := choosePS(ctx, site, devs, pushWhole)
	aggIns := ctx.Inputs(len(devs))
	aggIns = append(aggIns, gwInst[ps].Op)
	for _, dev := range devs {
		if dev == ps {
			continue
		}
		pushBytes := pushWhole
		if pushWhole != gradBytes {
			pushBytes = int64(float64(pushWhole) * lay.Fracs[dev])
		}
		send, err := ctx.EmitSend(instName(site.Iter, gw.Name, "_push", dev), dev, ps, pushBytes, gwInst[dev].Op)
		if err != nil {
			return err
		}
		aggIns = append(aggIns, send.Op)
	}
	aggT := a.synthTime(gw.Name+"_agg", graph.KindGradAgg, gradBytes*int64(len(devs)), false, ps)
	agg := ctx.Emit(instName(site.Iter, gw.Name, "_agg", ps), graph.KindGradAgg, ctx.Unit(ps), aggT, gradBytes, ps, nil)
	agg.Op.Inputs = aggIns
	at := ctx.Cost().OpTime(op, ps, 1)
	apply := ctx.Emit(instName(site.Iter, op.Name, "", ps), op.Kind, ctx.Unit(ps), at, op.OutputBytes, ps, op, agg.Op)
	ctx.SetReady(site, ps, apply.Op)
	// Updated parameters are pulled once per server; GPUs sharing the server
	// receive them over the PCIe bus (hierarchical broadcast, halving the
	// NIC pull traffic exactly as TF's replicated-variable broadcast does).
	c := a.Cluster
	pullHead := ctx.Inputs(len(c.Servers))[:len(c.Servers)] // per server
	for _, dev := range devs {
		if dev == ps {
			continue
		}
		srv := c.Devices[dev].Server
		if srv == c.Devices[ps].Server {
			pull, err := ctx.EmitSend(instName(site.Iter, gw.Name, "_pull", dev), ps, dev, pushWhole, apply.Op)
			if err != nil {
				return err
			}
			ctx.SetReady(site, dev, pull.Op)
			continue
		}
		if head := pullHead[srv]; head != nil && !a.Ablate.NoHierarchicalPull {
			relay, err := ctx.EmitSend(instName(site.Iter, gw.Name, "_relay", dev), head.MemDevice, dev, pushWhole, head)
			if err != nil {
				return err
			}
			ctx.SetReady(site, dev, relay.Op)
			continue
		}
		pull, err := ctx.EmitSend(instName(site.Iter, gw.Name, "_pull", dev), ps, dev, pushWhole, apply.Op)
		if err != nil {
			return err
		}
		pullHead[srv] = pull.Op
		ctx.SetReady(site, dev, pull.Op)
	}
	ctx.SetApplyInstance(site, ps, apply)
	ctx.SetApply(site, oneHot(c.NumDevices(), ps))
	return nil
}

// psPushBytes is the per-push gradient size: parameter servers can ship the
// sparse IndexedSlices form when the op provides one (and the DensePS
// ablation is off); AllReduce always moves the dense tensor.
func psPushBytes(ab compiler.Ablations, gw *graph.Op, gradBytes int64) int64 {
	if !ab.DensePS && gw.SparseGradBytes > 0 && gw.SparseGradBytes < gradBytes {
		return gw.SparseGradBytes
	}
	return gradBytes
}

// psSiteRec records one PS site's load-balancer inputs and outcome from the
// last lowering: per-candidate costs (a pure function of the replica set and
// push size, independent of the shared psLoad state) plus the pick actually
// made. The delta path replays PS placement from these records without
// re-walking transfer times for unchanged sites.
type psSiteRec struct {
	devs        []int
	pushBytes   int64
	worst, busy []float64 // per candidate, indexed like devs
	best        int       // chosen PS device
	bestBusy    float64   // projected NIC busy-seconds charged to best
}

// psCosts computes, per candidate PS device, the worst-case push completion
// time and the projected NIC busy-seconds the site would charge to it. Both
// depend only on the replica set and push size, never on psLoad.
func psCosts(cost compiler.Coster, devs []int, gradBytes int64) (worst, busy []float64) {
	worst = make([]float64, len(devs))
	busy = make([]float64, len(devs))
	for i, cand := range devs {
		for _, w := range devs {
			if w == cand {
				continue
			}
			t := cost.TransferTime(w, cand, gradBytes)
			if t > worst[i] {
				worst[i] = t
			}
			// Push in plus pull out; ingress and egress are separate units,
			// so each side carries about half of the projected occupancy.
			busy[i] += (t + cost.TransferTime(cand, w, gradBytes)) / 2
		}
	}
	return worst, busy
}

// choosePSLoaded is the pick given precomputed per-candidate costs and the
// current projected load: minimize worst push completion plus committed load,
// ties to the lower-power (slower) GPU so the laggard's own gradient needs no
// transfer (Fig 2(a)).
func choosePSLoaded(c *cluster.Cluster, devs []int, worst, busy, psLoad []float64) (int, float64) {
	best := devs[0]
	bestCost := -1.0
	bestBusy := 0.0
	for i, cand := range devs {
		candCost := worst[i] + psLoad[cand]
		power := c.Devices[cand].Model.Power
		if bestCost < 0 || candCost < bestCost-1e-12 ||
			(candCost < bestCost+1e-12 && power < c.Devices[best].Model.Power) {
			best, bestCost, bestBusy = cand, candCost, busy[i]
		}
	}
	return best, bestBusy
}

// choosePS selects the parameter-server device for a gradient: the replica
// device minimizing aggregation completion time, accounting for gradient
// traffic already routed to each candidate's NIC (so PS roles for different
// operations spread over servers) and preferring slower GPUs on ties so the
// laggard's own gradient needs no transfer (Fig 2(a)). The site's costs and
// pick are recorded for delta replay.
func choosePS(ctx *AggContext, site *AggSite, devs []int, gradBytes int64) int {
	worst, busy := psCosts(ctx.a.Cost, devs, gradBytes)
	best, bestBusy := choosePSLoaded(ctx.a.Cluster, devs, worst, busy, ctx.psLoad)
	ctx.psLoad[best] += bestBusy
	if ctx.a.psSites != nil {
		ctx.a.psSites[site.Apply.ID] = &psSiteRec{
			devs: devs, pushBytes: gradBytes,
			worst: worst, busy: busy,
			best: best, bestBusy: bestBusy,
		}
	}
	return best
}

// allReduceUnits returns the resources a collective occupies: the NCCL unit
// plus every participating server's NICs (cross-server) or PCIe bus
// (single-server). Unit indexes are computed through a throwaway DistGraph
// header because the unit layout is a pure function of the cluster.
func allReduceUnits(a *Artifacts, devs []int) []int {
	c := a.Cluster
	dg := &compiler.DistGraph{Cluster: c}
	// The participating servers, marked in one table indexed by device and
	// by server ID alike: each device clears its own index, then marks its
	// server's, and the marked indexes, ascending, are the servers. The
	// clearing keeps the unit lists identical to earlier lowerings (the
	// simulated times, and so the goldens, depend on them); with devices
	// numbered in server order it never unmarks a participating server.
	const cleared, marked = 1, 2
	var buf [64]uint8
	mark := buf[:0]
	if n := max(len(c.Devices), len(c.Servers)); n <= len(buf) {
		mark = buf[:n]
	} else {
		mark = make([]uint8, n)
	}
	for _, d := range devs {
		mark[d] = cleared
		mark[c.Devices[d].Server] = marked
	}
	nSrv, last, size := 0, 0, 0
	if !a.Ablate.NoNCCLSerialization {
		size++
	}
	for s, m := range mark {
		if m == marked {
			nSrv, last = nSrv+1, s
			size += 2 * dg.ServerLanes(s)
		}
	}
	if nSrv == 1 {
		size = 2
	}
	units := a.slab.units(size)
	if !a.Ablate.NoNCCLSerialization {
		units = append(units, dg.NCCLUnit())
	}
	if nSrv == 1 {
		return append(units, dg.PCIeUnit(last))
	}
	for s, m := range mark {
		if m != marked {
			continue
		}
		// A cross-server collective saturates every lane of each NIC.
		for lane := 0; lane < dg.ServerLanes(s); lane++ {
			units = append(units, dg.NICInUnit(s, lane), dg.NICOutUnit(s, lane))
		}
	}
	return units
}

// ncclCollectiveOverhead is the fixed launch/synchronization cost of one
// NCCL collective across servers (kernel launches on every rank, connection
// handshakes, rendezvous). It is why AllReduce degrades on models with many
// small gradient tensors (Bert/XLNet rows of Table 1): the per-collective
// cost is paid once per aggregated operation and collectives cannot overlap.
const ncclCollectiveOverhead = 1.2e-3

// arBandwidthEff is the fraction of nominal link bandwidth NCCL collectives
// achieve across servers (socket transport, chunking, protocol overhead).
const arBandwidthEff = 0.65

// allReduceTime estimates the better of ring and hierarchical AllReduce for
// gradBytes over the given devices (the paper always picks the faster of the
// two given the topology).
func allReduceTime(a *Artifacts, devs []int, gradBytes int64) float64 {
	ring := ringTime(a, devs, gradBytes)
	hier := hierTime(a, devs, gradBytes)
	if hier < ring {
		ring = hier
	}
	if a.Ablate.FreeCollectiveLaunch {
		return ring
	}
	return ncclCollectiveOverhead + ring
}

// ringTime is the classic ring AllReduce estimate: 2(n-1) chunk steps of
// S/n bytes each, bottlenecked by the slowest consecutive link.
func ringTime(a *Artifacts, devs []int, bytes int64) float64 {
	n := len(devs)
	if n < 2 {
		return 0
	}
	c := a.Cluster
	minBW := -1.0
	maxLat := 0.0
	for i := range devs {
		l, err := c.LinkBetween(devs[i], devs[(i+1)%n])
		if err != nil {
			continue
		}
		if minBW < 0 || l.Bandwidth < minBW {
			minBW = l.Bandwidth
		}
		if l.Latency > maxLat {
			maxLat = l.Latency
		}
	}
	if minBW <= 0 {
		return 0
	}
	steps := float64(2 * (n - 1))
	return steps*(float64(bytes)/float64(n))/(minBW*arBandwidthEff) + steps*maxLat
}

// hierTime is a hierarchical AllReduce: ring-reduce within each server,
// ring over one leader per server, then broadcast within servers.
func hierTime(a *Artifacts, devs []int, bytes int64) float64 {
	c := a.Cluster
	// byServer lists the devices by (server, device) ascending, so each
	// server's group is a run and the runs come in server order.
	var buf [64]int
	byServer := append(buf[:0], devs...)
	for i := 1; i < len(byServer); i++ {
		for j := i; j > 0 && serverLess(c, byServer[j], byServer[j-1]); j-- {
			byServer[j], byServer[j-1] = byServer[j-1], byServer[j]
		}
	}
	if c.Devices[byServer[0]].Server == c.Devices[byServer[len(byServer)-1]].Server {
		// Single server: hierarchical degenerates to the intra ring.
		return ringTime(a, devs, bytes)
	}
	var lbuf [64]int
	leaders := lbuf[:0]
	var intra float64
	for start := 0; start < len(byServer); {
		end := start + 1
		for end < len(byServer) && c.Devices[byServer[end]].Server == c.Devices[byServer[start]].Server {
			end++
		}
		group := byServer[start:end]
		leaders = append(leaders, group[0])
		if len(group) > 1 {
			t := ringTime(a, group, bytes)
			if t > intra {
				intra = t
			}
		}
		start = end
	}
	inter := ringTime(a, leaders, bytes)
	// Final intra-server broadcast of the result: one more pass.
	return intra + inter + intra/2
}

// serverLess orders devices by server, then by device index.
func serverLess(c *cluster.Cluster, x, y int) bool {
	sx, sy := c.Devices[x].Server, c.Devices[y].Server
	return sx < sy || (sx == sy && x < y)
}

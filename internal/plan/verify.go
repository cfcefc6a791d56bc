package plan

import (
	"errors"
	"fmt"

	"heterog/internal/compiler"
	"heterog/internal/graph"
)

// Sentinel invariant violations. VerifyError wraps exactly one of these, so
// callers can classify failures with errors.Is.
var (
	// ErrBadStructure: malformed graph (non-dense IDs, foreign inputs,
	// empty/out-of-range unit sets, wrong unit kind, negative durations).
	ErrBadStructure = errors.New("malformed distributed graph")
	// ErrCycle: the dependency graph is not a DAG.
	ErrCycle = errors.New("distributed graph contains a cycle")
	// ErrOrphanRecv: a tensor is consumed on a device it was never sent to,
	// or a Send occupies comm units that do not correspond to a real link
	// between its endpoints.
	ErrOrphanRecv = errors.New("receive without a matching send on a real link")
	// ErrConcatOrder: a Concat's input shards are not in ascending
	// shard-device order.
	ErrConcatOrder = errors.New("concat inputs out of shard order")
	// ErrMemoryMismatch: per-device memory accounting does not reconcile
	// with an independent recomputation, or refcounted buffer replay does
	// not return to the persistent baseline.
	ErrMemoryMismatch = errors.New("per-device memory accounting mismatch")
)

// VerifyError is the typed error the Verify pass rejects corrupted IR with.
type VerifyError struct {
	// Invariant names the violated invariant class.
	Invariant error
	// Detail pinpoints the offending op/device.
	Detail string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verify: %v: %s", e.Invariant, e.Detail)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *VerifyError) Unwrap() error { return e.Invariant }

func violated(inv error, format string, args ...any) error {
	return &VerifyError{Invariant: inv, Detail: fmt.Sprintf(format, args...)}
}

// VerifyPass checks the materialized graph against the structural invariants
// every later stage assumes: dense IDs and DAG-ness (the scheduler and
// simulator index by ID and topo-sort), transfers on real links with
// correctly typed units, Concat shard ordering, and memory accounting that
// reconciles with an independent recomputation plus a refcount replay of the
// simulator's allocation discipline. It is mandatory in the standard
// pipeline. It changes nothing it checks; it only replaces a.Topo, the
// topological order it derived, which Ordering reuses.
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(a *Artifacts) error {
	a.Topo = nil
	dg := a.Dist
	if dg == nil {
		return violated(ErrBadStructure, "no materialized graph to verify")
	}
	if err := verifyStructure(dg); err != nil {
		return err
	}
	// The adjacency is always built here from the ops being checked, never
	// taken from an earlier run, so a graph changed after a successful
	// Verify is checked as it is now. One topological order serves the
	// cycle check, the refcount replay, and (kept in a.Topo) Ordering and
	// the evaluator's critical-path bound.
	order := dg.TopoOrder()
	if len(order) != len(dg.Ops) {
		return violated(ErrCycle, "%d of %d ops ordered", len(order), len(dg.Ops))
	}
	if err := verifyTransfers(a); err != nil {
		return err
	}
	if err := verifyConcats(a); err != nil {
		return err
	}
	if err := verifyMemory(a, order); err != nil {
		return err
	}
	a.Topo = order
	a.note(len(dg.Ops), 0)
	return nil
}

// verifyStructure covers the simulator's indexing assumptions: dense IDs,
// known inputs, non-empty in-range unit sets of the right kind, and
// non-negative durations.
func verifyStructure(dg *compiler.DistGraph) error {
	numUnits := dg.NumUnits()
	numGPUs := dg.Cluster.NumDevices() // units below this index are GPUs
	for i, op := range dg.Ops {
		if op.ID != i {
			return violated(ErrBadStructure, "op %q has ID %d at index %d (IDs must be dense)", op.Name, op.ID, i)
		}
		if len(op.Units) == 0 {
			return violated(ErrBadStructure, "op %q occupies no units", op.Name)
		}
		for _, u := range op.Units {
			if u < 0 || u >= numUnits {
				return violated(ErrBadStructure, "op %q: unit %d out of range", op.Name, u)
			}
			isComm := op.Kind.IsComm()
			if isComm && u < numGPUs {
				return violated(ErrBadStructure, "comm op %q occupies GPU unit %d", op.Name, u)
			}
			if !isComm && u >= numGPUs {
				return violated(ErrBadStructure, "compute op %q occupies non-GPU unit %d", op.Name, u)
			}
		}
		if op.Time < 0 {
			return violated(ErrBadStructure, "op %q: negative time", op.Name)
		}
	}
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			if in.ID < 0 || in.ID >= len(dg.Ops) || dg.Ops[in.ID] != in {
				return violated(ErrBadStructure, "op %q references foreign input %q", op.Name, in.Name)
			}
		}
	}
	return nil
}

// verifyTransfers checks that every Send runs on comm units matching a real
// link between its endpoints, and that every cross-device data edge is
// carried by a transfer: a compute op may only consume tensors resident on
// its own device (the orphan-receive invariant).
func verifyTransfers(a *Artifacts) error {
	dg := a.Dist
	c := a.Cluster
	for _, op := range dg.Ops {
		n := a.nodeFor(op)
		if n == nil {
			return violated(ErrBadStructure, "op %q has no plan node (materialized outside the pipeline)", op.Name)
		}
		if n.Send {
			if _, err := c.LinkBetween(n.SrcDev, n.DstDev); err != nil {
				return violated(ErrOrphanRecv, "send %q: no link %d->%d: %v", op.Name, n.SrcDev, n.DstDev, err)
			}
			if err := verifySendUnits(dg, n); err != nil {
				return err
			}
		}
		// Device coherence of data edges. Control edges are ordering-only
		// and may legitimately cross devices without traffic.
		need, check := consumeDevice(n)
		if !check {
			continue
		}
		for _, in := range op.Inputs {
			if n.isCtrl(in) {
				continue
			}
			if in.Kind == graph.KindAllReduce {
				continue // collectives deliver on every participant
			}
			if in.MemDevice >= 0 && in.MemDevice != need {
				return violated(ErrOrphanRecv, "op %q on device %d consumes %q resident on device %d without a transfer", op.Name, need, in.Name, in.MemDevice)
			}
		}
	}
	return nil
}

// consumeDevice returns the device an op consumes its inputs on, and whether
// coherence should be checked (AllReduce collectives gather from every
// participant and are exempt).
func consumeDevice(n *Node) (int, bool) {
	if n.Send {
		return n.SrcDev, true
	}
	if n.Op.Kind == graph.KindAllReduce {
		return 0, false
	}
	return n.Op.Units[0], true
}

// verifySendUnits checks a transfer occupies exactly the comm units its
// endpoints imply: the shared PCIe bus within a server, or one egress lane
// of the source NIC plus one ingress lane of the destination NIC.
func verifySendUnits(dg *compiler.DistGraph, n *Node) error {
	c := dg.Cluster
	ss := c.Devices[n.SrcDev].Server
	ds := c.Devices[n.DstDev].Server
	op := n.Op
	if ss == ds {
		if len(op.Units) != 1 || op.Units[0] != dg.PCIeUnit(ss) {
			return violated(ErrOrphanRecv, "intra-server send %q must occupy PCIe unit %d of server %d, has %v", op.Name, dg.PCIeUnit(ss), ss, op.Units)
		}
		return nil
	}
	if len(op.Units) != 2 {
		return violated(ErrOrphanRecv, "cross-server send %q must occupy one egress and one ingress lane, has %v", op.Name, op.Units)
	}
	if !unitInRange(op.Units[0], dg.NICOutUnit(ss, 0), dg.ServerLanes(ss)) {
		return violated(ErrOrphanRecv, "send %q: unit %d is not an egress lane of server %d", op.Name, op.Units[0], ss)
	}
	if !unitInRange(op.Units[1], dg.NICInUnit(ds, 0), dg.ServerLanes(ds)) {
		return violated(ErrOrphanRecv, "send %q: unit %d is not an ingress lane of server %d", op.Name, op.Units[1], ds)
	}
	return nil
}

func unitInRange(u, base, lanes int) bool { return u >= base && u < base+lanes }

// verifyConcats checks shard ordering: a Concat must receive its input
// shards in ascending origin-device order, or the reassembled tensor would
// be permuted relative to the single-GPU batch.
func verifyConcats(a *Artifacts) error {
	var fail error
	a.prog.each(func(n *Node) {
		if fail != nil || n.Op.Kind != graph.KindConcat {
			return
		}
		for i := 1; i < len(n.ShardDevs); i++ {
			if n.ShardDevs[i] <= n.ShardDevs[i-1] {
				fail = violated(ErrConcatOrder, "concat %q shard devices %v not strictly ascending", n.Op.Name, n.ShardDevs)
				return
			}
		}
		if len(n.ShardDevs) != len(n.Op.Inputs) {
			fail = violated(ErrConcatOrder, "concat %q has %d inputs but %d recorded shards", n.Op.Name, len(n.Op.Inputs), len(n.ShardDevs))
		}
	})
	return fail
}

// verifyMemory reconciles the graph's memory accounting with an independent
// recomputation from the pipeline inputs (persistent residency and every
// activation buffer), then replays the simulator's refcounted allocation
// discipline in topological order to prove transient buffers return to the
// persistent baseline.
func verifyMemory(a *Artifacts, order []*compiler.DistOp) error {
	dg := a.Dist
	want := persistentBytes(a)
	if len(want) != len(dg.PersistentBytes) {
		return violated(ErrMemoryMismatch, "persistent accounting covers %d devices, cluster has %d", len(dg.PersistentBytes), len(want))
	}
	for d, w := range want {
		if dg.PersistentBytes[d] != w {
			return violated(ErrMemoryMismatch, "device %d persistent bytes %d, independent recomputation gives %d", d, dg.PersistentBytes[d], w)
		}
	}
	var fail error
	a.prog.each(func(n *Node) {
		if fail != nil || !n.PlanMem {
			return
		}
		if w := activationBytes(n.Op.Src, n.Frac); n.Op.OutBytes != w {
			fail = violated(ErrMemoryMismatch, "instance %q activation buffer %d bytes, recomputation gives %d", n.Op.Name, n.Op.OutBytes, w)
		}
	})
	if fail != nil {
		return fail
	}
	// Refcount replay, mirroring the simulator: allocate OutBytes on
	// MemDevice when an op runs, release a producer's buffer when its last
	// consumer finishes. Everything must return to the persistent baseline.
	consumers := make([]int, len(dg.Ops))
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			consumers[in.ID]++
		}
	}
	refs := append([]int(nil), consumers...)
	mem := make([]int64, len(dg.PersistentBytes))
	for _, op := range order {
		if op.MemDevice >= 0 && op.OutBytes > 0 {
			mem[op.MemDevice] += op.OutBytes
		}
		for _, in := range op.Inputs {
			refs[in.ID]--
			if refs[in.ID] == 0 && in.MemDevice >= 0 && in.OutBytes > 0 {
				mem[in.MemDevice] -= in.OutBytes
				if mem[in.MemDevice] < 0 {
					return violated(ErrMemoryMismatch, "device %d transient memory went negative releasing %q", in.MemDevice, in.Name)
				}
			}
		}
	}
	// Buffers still held are exactly the outputs nothing consumes.
	residual := make([]int64, len(mem))
	for id, op := range dg.Ops {
		if consumers[id] == 0 && op.MemDevice >= 0 && op.OutBytes > 0 {
			residual[op.MemDevice] += op.OutBytes
		}
	}
	for d := range mem {
		if mem[d] != residual[d] {
			return violated(ErrMemoryMismatch, "device %d refcount replay leaves %d transient bytes, terminal outputs account for %d", d, mem[d], residual[d])
		}
	}
	return nil
}

// Package compiler implements the Graph Compiler: it applies a Part-I
// strategy to a single-GPU training graph and produces the distributed
// execution graph — operation replicas with device placements, Split/Concat
// glue across differing replica layouts, Send ops on link devices, PS-based
// gradient aggregation (push, aggregate, apply, pull) and NCCL AllReduce
// collectives with automatic ring-vs-hierarchical selection.
package compiler

import (
	"fmt"

	"heterog/internal/cluster"
	"heterog/internal/graph"
)

// UnitKind classifies execution units. GPUs execute computation ops.
// Communication ops run on the network resources they occupy: each server
// contributes a NIC-ingress, a NIC-egress and a PCIe-bus unit, so transfers
// into one server serialize on its NIC (the paper's "links to parameter
// servers may become the bottlenecks") while different server pairs
// communicate concurrently. The single NCCL unit serializes AllReduce
// collectives (the paper's "AllReduce for different operations cannot be
// launched simultaneously" NCCL limitation).
type UnitKind int

const (
	UnitGPU UnitKind = iota
	UnitComm
	UnitNCCL
)

// commUnitCount returns how many comm units a server contributes:
// NICLanes ingress lanes, NICLanes egress lanes, and one PCIe bus.
func commUnitCount(lanes int) int {
	if lanes < 1 {
		lanes = 1
	}
	return 2*lanes + 1
}

// DistOp is one node of the distributed execution graph.
type DistOp struct {
	ID   int
	Name string
	Kind graph.OpKind
	// Src is the originating logical op; nil for compiler-synthesized glue.
	Src *graph.Op
	// Units are the execution unit indexes this op occupies for its whole
	// duration: a GPU for computation, one or more communication resources
	// for transfers and collectives. An op starts only when all its units
	// are free.
	Units []int
	// Time is the precomputed execution/transfer duration in seconds.
	Time float64
	// OutBytes is the output buffer size allocated on MemDevice.
	OutBytes int64
	// MemDevice is the GPU whose memory holds the output (-1 for none).
	MemDevice int
	// Inputs are producer DistOps.
	Inputs []*DistOp
	// Iter is the training-iteration index this op belongs to when several
	// iterations are compiled together (see CompileIter).
	Iter int
}

// DistGraph is the compiled distributed training graph.
type DistGraph struct {
	Source  *graph.Graph
	Cluster *cluster.Cluster
	// Iterations is how many chained training iterations were compiled.
	Iterations int
	Ops        []*DistOp
	// PersistentBytes[d] is per-GPU resident memory: parameters, gradients
	// and optimizer state for every op instance placed on device d.
	PersistentBytes []int64

	// laneOut and laneIn round-robin NIC lane assignment per server and
	// direction.
	laneOut, laneIn []int
}

// NumUnits returns GPUs + comm units over all servers + the NCCL unit.
func (dg *DistGraph) NumUnits() int {
	n := dg.Cluster.NumDevices()
	for _, srv := range dg.Cluster.Servers {
		n += commUnitCount(srv.NICLanes)
	}
	return n + 1
}

// UnitKindOf classifies a unit index.
func (dg *DistGraph) UnitKindOf(unit int) UnitKind {
	switch {
	case unit < dg.Cluster.NumDevices():
		return UnitGPU
	case unit == dg.NumUnits()-1:
		return UnitNCCL
	default:
		return UnitComm
	}
}

// commBase returns the first comm-unit index of a server. Layout per server:
// NICLanes ingress lanes, NICLanes egress lanes, one PCIe bus.
func (dg *DistGraph) commBase(server int) int {
	u := dg.Cluster.NumDevices()
	for s := 0; s < server; s++ {
		u += commUnitCount(dg.Cluster.Servers[s].NICLanes)
	}
	return u
}

func (dg *DistGraph) ServerLanes(server int) int {
	l := dg.Cluster.Servers[server].NICLanes
	if l < 1 {
		l = 1
	}
	return l
}

// NICInUnit and NICOutUnit return one lane of a server's NIC; successive
// transfers round-robin over lanes so a 100GbE card absorbs two concurrent
// 50GbE-limited flows.
func (dg *DistGraph) NICInUnit(server, lane int) int {
	return dg.commBase(server) + lane%dg.ServerLanes(server)
}
func (dg *DistGraph) NICOutUnit(server, lane int) int {
	return dg.commBase(server) + dg.ServerLanes(server) + lane%dg.ServerLanes(server)
}
func (dg *DistGraph) PCIeUnit(server int) int {
	return dg.commBase(server) + 2*dg.ServerLanes(server)
}

// NCCLUnit returns the NCCL serialization unit index.
func (dg *DistGraph) NCCLUnit() int {
	return dg.NumUnits() - 1
}

// NICLanePair returns the units of a cross-server transfer from srcServer to
// dstServer: the source NIC's next egress lane and the destination NIC's
// next ingress lane, advancing both round-robins.
func (dg *DistGraph) NICLanePair(srcServer, dstServer int) (out, in int) {
	if dg.laneOut == nil {
		dg.laneOut = make([]int, len(dg.Cluster.Servers))
		dg.laneIn = make([]int, len(dg.Cluster.Servers))
	}
	out = dg.NICOutUnit(srcServer, dg.laneOut[srcServer])
	dg.laneOut[srcServer]++
	in = dg.NICInUnit(dstServer, dg.laneIn[dstServer])
	dg.laneIn[dstServer]++
	return out, in
}

// Validate checks the distributed graph for structural soundness. Dist op
// IDs must be dense (op i has ID i): the scheduler and simulator index
// per-op state by ID.
func (dg *DistGraph) Validate() error {
	seen := make(map[int]bool, len(dg.Ops))
	for i, op := range dg.Ops {
		if op.ID != i {
			return fmt.Errorf("dist op %q has ID %d at index %d (IDs must be dense)", op.Name, op.ID, i)
		}
		seen[op.ID] = true
		if len(op.Units) == 0 {
			return fmt.Errorf("op %q occupies no units", op.Name)
		}
		for _, u := range op.Units {
			if u < 0 || u >= dg.NumUnits() {
				return fmt.Errorf("op %q: unit %d out of range", op.Name, u)
			}
			isComm := op.Kind.IsComm()
			if isComm && dg.UnitKindOf(u) == UnitGPU {
				return fmt.Errorf("comm op %q occupies GPU unit %d", op.Name, u)
			}
			if !isComm && dg.UnitKindOf(u) != UnitGPU {
				return fmt.Errorf("compute op %q occupies non-GPU unit %d", op.Name, u)
			}
		}
		if op.Time < 0 {
			return fmt.Errorf("op %q: negative time", op.Name)
		}
	}
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			if !seen[in.ID] {
				return fmt.Errorf("op %q references foreign input %q", op.Name, in.Name)
			}
		}
	}
	// Acyclicity via Kahn count.
	indeg := make(map[int]int, len(dg.Ops))
	succ := make(map[int][]*DistOp, len(dg.Ops))
	for _, op := range dg.Ops {
		indeg[op.ID] = len(op.Inputs)
		for _, in := range op.Inputs {
			succ[in.ID] = append(succ[in.ID], op)
		}
	}
	queue := make([]*DistOp, 0, len(dg.Ops))
	for _, op := range dg.Ops {
		if indeg[op.ID] == 0 {
			queue = append(queue, op)
		}
	}
	done := 0
	for len(queue) > 0 {
		op := queue[0]
		queue = queue[1:]
		done++
		for _, s := range succ[op.ID] {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != len(dg.Ops) {
		return fmt.Errorf("distributed graph contains a cycle (%d/%d ordered)", done, len(dg.Ops))
	}
	return nil
}

// Successors builds the successor lists indexed by dense dist-op ID. The
// lists share one backing array sized by a counting pass, so per-edge append
// growth does not show in an allocation profile.
func (dg *DistGraph) Successors() [][]*DistOp {
	counts := make([]int, len(dg.Ops))
	total := 0
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			counts[in.ID]++
			total++
		}
	}
	flat := make([]*DistOp, total)
	succ := make([][]*DistOp, len(dg.Ops))
	off := 0
	for id, c := range counts {
		succ[id] = flat[off : off : off+c]
		off += c
	}
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			succ[in.ID] = append(succ[in.ID], op)
		}
	}
	return succ
}

// TopoOrder returns dist ops in dependency order: Kahn's algorithm, taking
// ops whose inputs are all ordered in the order they became ready, and
// ready ops with no inputs in dg.Ops order. A cycle leaves the ops on it (and
// everything after them) out of the order. The successor lists are dist op
// IDs in one flat array rather than per-op pointer lists: the planner orders
// every lowered graph, so this is hot, and ID arrays hold no pointers for
// the garbage collector to scan.
func (dg *DistGraph) TopoOrder() []*DistOp {
	n := len(dg.Ops)
	// Op id's successors are succ[start[id]:start[id+1]], in dg.Ops order.
	start := make([]int32, n+1)
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			start[in.ID+1]++
		}
	}
	for id := 0; id < n; id++ {
		start[id+1] += start[id]
	}
	succ := make([]int32, start[n])
	next := make([]int32, n) // per op: successors filled so far
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			succ[start[in.ID]+next[in.ID]] = int32(op.ID)
			next[in.ID]++
		}
	}
	indeg := next
	for _, op := range dg.Ops {
		indeg[op.ID] = int32(len(op.Inputs))
	}
	// The order doubles as the FIFO queue: ops are appended when their last
	// input is ordered and taken in append order.
	order := make([]*DistOp, 0, n)
	for _, op := range dg.Ops {
		if indeg[op.ID] == 0 {
			order = append(order, op)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head].ID
		for _, s := range succ[start[id]:start[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, dg.Ops[s])
			}
		}
	}
	return order
}

// CriticalPath returns the longest chain of op durations through the graph —
// a lower bound on any schedule's makespan.
func (dg *DistGraph) CriticalPath() float64 { return dg.CriticalPathFrom(dg.TopoOrder()) }

// CriticalPathFrom is CriticalPath over a topological order of dg.Ops the
// caller already built (the planning pipeline's Verify pass keeps one).
func (dg *DistGraph) CriticalPathFrom(order []*DistOp) float64 {
	longest := make([]float64, len(dg.Ops))
	var best float64
	for _, op := range order {
		start := 0.0
		for _, in := range op.Inputs {
			if longest[in.ID] > start {
				start = longest[in.ID]
			}
		}
		end := start + op.Time
		longest[op.ID] = end
		if end > best {
			best = end
		}
	}
	return best
}

// TotalWorkOn sums op durations per unit (a multi-unit op contributes its
// full duration to every unit it occupies).
func (dg *DistGraph) TotalWorkOn() []float64 {
	work := make([]float64, dg.NumUnits())
	for _, op := range dg.Ops {
		for _, u := range op.Units {
			work[u] += op.Time
		}
	}
	return work
}

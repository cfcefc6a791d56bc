// Package sim is the discrete-event training simulator. Mirroring the paper's
// Rust simulator, it maintains a priority ready queue per execution unit
// (GPU, NIC ingress/egress lane, PCIe bus, NCCL), dispatches the highest-
// priority ready op whose execution units are all free whenever anything
// idles, tracks memory allocation and release by reference counting, and
// reports the per-iteration time, per-unit utilization, compute/communication
// breakdown and peak memory per device (flagging OOM).
//
// The simulator is the innermost loop of strategy search: every RL episode
// and every heuristic candidate runs it. A reusable Simulator recycles the
// ready queues, event heap, dependency/refcount/memory slices and Result
// buffers across runs, so steady-state simulation allocates nothing; the
// package-level Run keeps the original one-shot signature on top of a pool
// of reusable simulators. Dispatch order is fully determined by (priority,
// arrival seq) and (time, seq) total orders, so reused and fresh simulators
// produce bit-identical results.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"heterog/internal/compiler"
)

// ErrBoundExceeded is the sentinel returned by RunBounded when the event
// clock crosses the caller's makespan bound. The event-loop clock is
// monotone, so once `now` passes the bound the final makespan provably
// exceeds it too — the candidate is a certified loser and the rest of the
// simulation is skipped. The error is a preallocated sentinel: the abort
// path allocates nothing.
var ErrBoundExceeded = errors.New("sim: makespan bound exceeded")

// Result summarizes one simulated training run.
type Result struct {
	// Makespan is the end-to-end execution time in seconds.
	Makespan float64
	// BusyTime[u] is the total occupied time of each unit.
	BusyTime []float64
	// PeakMem[d] is the peak memory in bytes on each GPU, including
	// persistent parameter/optimizer state.
	PeakMem []int64
	// OOMDevices lists GPUs whose peak memory exceeded capacity.
	OOMDevices []int
	// ComputeTime is the busiest GPU's occupied time; CommTime is the
	// busiest communication unit's occupied time (NIC lane, PCIe or NCCL).
	// Their sum can exceed Makespan when computation and communication
	// overlap.
	ComputeTime, CommTime float64
	// Starts and Finishes record per-op times indexed by dense DistOp ID.
	Starts, Finishes []float64
}

// OOM reports whether any device ran out of memory.
func (r *Result) OOM() bool { return len(r.OOMDevices) > 0 }

// Clone deep-copies the result so it can be retained past the next Run call
// of the Simulator that produced it.
func (r *Result) Clone() *Result {
	c := *r
	c.BusyTime = append([]float64(nil), r.BusyTime...)
	c.PeakMem = append([]int64(nil), r.PeakMem...)
	c.OOMDevices = append([]int(nil), r.OOMDevices...)
	c.Starts = append([]float64(nil), r.Starts...)
	c.Finishes = append([]float64(nil), r.Finishes...)
	return &c
}

// opItem is a ready-queue entry ordered by descending priority. Multi-unit
// ops are enqueued on every unit they occupy and removed lazily once started.
type opItem struct {
	op       *compiler.DistOp
	priority float64
	seq      int // arrival order: FIFO tie-break
	started  bool
}

// readyQueue is a binary max-heap on (priority desc, seq asc). The heap is
// hand-rolled instead of container/heap so pushes never box through
// interfaces; because seq is unique the pop order is a total order,
// independent of the internal tree layout.
type readyQueue []*opItem

func (q readyQueue) less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q *readyQueue) push(it *opItem) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *readyQueue) pop() *opItem {
	h := *q
	n := len(h) - 1
	it := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h.less(r, l) {
			l = r
		}
		if !h.less(l, i) {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return it
}

// completion is a scheduled op-finish event.
type completion struct {
	time float64
	op   *compiler.DistOp
	seq  int
}

// eventHeap is a binary min-heap on (time asc, seq asc), hand-rolled for the
// same zero-boxing reason as readyQueue.
type eventHeap []completion

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() completion {
	s := *h
	n := len(s) - 1
	c := s[0]
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s.less(r, l) {
			l = r
		}
		if !s.less(l, i) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	return c
}

// blockedScanDepth bounds how many blocked multi-unit entries a unit skips
// past when looking for startable work; beyond this the unit idles until the
// next event, trading a sliver of greediness for linear-time dispatch.
const blockedScanDepth = 64

// grow returns s resized to n zeroed elements, reusing capacity when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growRows returns rows resized to n empty rows, keeping the capacity of
// every row it has ever held.
func growRows[R ~[]E, E any](rows []R, n int) []R {
	if cap(rows) < n {
		nr := make([]R, n)
		copy(nr, rows[:cap(rows)])
		rows = nr
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// Simulator is a reusable discrete-event simulator. All scratch state — ready
// queues, event heap, dependency counters, refcounts, memory trackers and the
// Result buffers — is recycled across Run calls, so simulating graphs of the
// same size allocates nothing in steady state.
//
// A Simulator is NOT safe for concurrent use; give each goroutine its own
// (the package-level Run draws from a shared pool). The Result returned by
// Run aliases the Simulator's internal buffers and is only valid until the
// next Run call on the same Simulator; use Result.Clone to retain it.
type Simulator struct {
	res     Result
	queues  []readyQueue
	busy    []bool
	indeg   []int
	refs    []int
	mem     []int64
	items   []opItem
	events  eventHeap
	skipped []*opItem
	// pending marks, one bit per unit, the units that may start something
	// at the next dispatch: they got a push, were freed, or skipped an
	// entry blocked by a unit since freed. waiters[b] lists the units that
	// skipped an entry because unit b was busy. Every other unit would
	// start nothing, so dispatch visits only the pending ones.
	pending []uint64
	waiters [][]int32
	// CSR successor lists rebuilt per run into reusable buffers.
	succOff []int
	succ    []*compiler.DistOp

	dg   *compiler.DistGraph
	pr   []float64
	seq  int
	done int
}

// NewSimulator returns an empty reusable simulator.
func NewSimulator() *Simulator { return &Simulator{} }

func (s *Simulator) alloc(op *compiler.DistOp) {
	if op.MemDevice < 0 || op.OutBytes == 0 {
		return
	}
	s.mem[op.MemDevice] += op.OutBytes
	if s.mem[op.MemDevice] > s.res.PeakMem[op.MemDevice] {
		s.res.PeakMem[op.MemDevice] = s.mem[op.MemDevice]
	}
}

func (s *Simulator) release(op *compiler.DistOp) {
	if op.MemDevice >= 0 && op.OutBytes > 0 {
		s.mem[op.MemDevice] -= op.OutBytes
	}
}

func (s *Simulator) enqueue(op *compiler.DistOp) {
	it := &s.items[op.ID]
	*it = opItem{op: op, priority: s.pr[op.ID], seq: s.seq}
	s.seq++
	for _, u := range op.Units {
		s.queues[u].push(it)
		s.mark(u)
	}
}

// mark adds unit u to the units the next dispatch visits.
func (s *Simulator) mark(u int) { s.pending[u>>6] |= 1 << (u & 63) }

// blocker returns a busy unit op needs, or -1 when all of them are idle.
func (s *Simulator) blocker(op *compiler.DistOp) int {
	for _, u := range op.Units {
		if s.busy[u] {
			return u
		}
	}
	return -1
}

func (s *Simulator) start(it *opItem, now float64) {
	it.started = true
	op := it.op
	for _, u := range op.Units {
		s.busy[u] = true
		s.res.BusyTime[u] += op.Time
	}
	s.res.Starts[op.ID] = now
	s.alloc(op)
	s.events.push(completion{time: now + op.Time, op: op, seq: s.seq})
	s.seq++
}

// dispatchUnit starts ops from one unit's queue while possible. Blocked
// multi-unit heads are skipped (bounded) and retained; u waits on a busy
// unit of each, so that unit's release brings u back to dispatch.
func (s *Simulator) dispatchUnit(u int, now float64) {
	if s.busy[u] {
		return
	}
	s.skipped = s.skipped[:0]
	for len(s.queues[u]) > 0 && len(s.skipped) < blockedScanDepth {
		it := s.queues[u].pop()
		if it.started {
			continue
		}
		b := s.blocker(it.op)
		if b < 0 {
			s.start(it, now)
			if s.busy[u] {
				break
			}
			continue
		}
		s.waiters[b] = append(s.waiters[b], int32(u))
		s.skipped = append(s.skipped, it)
	}
	for _, it := range s.skipped {
		s.queues[u].push(it)
	}
}

// dispatch runs dispatchUnit on every pending unit in ascending index
// order and clears them. A unit that is not pending is busy or would skip
// only entries that are still blocked, so this starts exactly what calling
// dispatchUnit on every unit would. Dispatching marks no unit pending: it
// frees and pushes nothing.
func (s *Simulator) dispatch(now float64) {
	for w, word := range s.pending {
		s.pending[w] = 0
		for word != 0 {
			s.dispatchUnit(w<<6|bits.TrailingZeros64(word), now)
			word &= word - 1
		}
	}
}

func (s *Simulator) complete(op *compiler.DistOp, now float64) {
	s.res.Finishes[op.ID] = now
	for _, u := range op.Units {
		s.busy[u] = false
		s.mark(u)
		for _, w := range s.waiters[u] {
			s.mark(int(w))
		}
		s.waiters[u] = s.waiters[u][:0]
	}
	s.done++
	for _, in := range op.Inputs {
		s.refs[in.ID]--
		if s.refs[in.ID] == 0 {
			s.release(in)
		}
	}
	if s.refs[op.ID] == 0 {
		s.release(op)
	}
	for _, succ := range s.succ[s.succOff[op.ID]:s.succOff[op.ID+1]] {
		s.indeg[succ.ID]--
		if s.indeg[succ.ID] == 0 {
			s.enqueue(succ)
		}
	}
}

// reset sizes and zeroes every buffer for a run over dg.
func (s *Simulator) reset(dg *compiler.DistGraph, priorities []float64) {
	n := len(dg.Ops)
	numUnits := dg.NumUnits()
	numGPUs := dg.Cluster.NumDevices()
	s.dg, s.pr = dg, priorities
	s.seq, s.done = 0, 0

	s.res.Makespan, s.res.ComputeTime, s.res.CommTime = 0, 0, 0
	s.res.BusyTime = grow(s.res.BusyTime, numUnits)
	s.res.PeakMem = grow(s.res.PeakMem, numGPUs)
	s.res.Starts = grow(s.res.Starts, n)
	s.res.Finishes = grow(s.res.Finishes, n)
	s.res.OOMDevices = s.res.OOMDevices[:0]

	// Successor lists in CSR form: offsets then a counting fill, reusing the
	// refs slice as the fill cursor. Source order matches the op slice, so
	// per-node successor order — and with it every seq assignment downstream —
	// is identical to building per-node slices.
	s.succOff = grow(s.succOff, n+1)
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			s.succOff[in.ID+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.succOff[i+1] += s.succOff[i]
	}
	edges := s.succOff[n]
	if cap(s.succ) < edges {
		s.succ = make([]*compiler.DistOp, edges)
	} else {
		s.succ = s.succ[:edges]
	}
	s.refs = grow(s.refs, n)
	copy(s.refs, s.succOff[:n])
	for _, op := range dg.Ops {
		for _, in := range op.Inputs {
			s.succ[s.refs[in.ID]] = op
			s.refs[in.ID]++
		}
	}

	s.indeg = grow(s.indeg, n)
	for _, op := range dg.Ops {
		s.indeg[op.ID] = len(op.Inputs)
		s.refs[op.ID] = s.succOff[op.ID+1] - s.succOff[op.ID]
	}

	// Memory: persistent baseline plus refcounted transient buffers.
	s.mem = grow(s.mem, numGPUs)
	copy(s.mem, dg.PersistentBytes)
	copy(s.res.PeakMem, s.mem)

	s.queues = growRows(s.queues, numUnits)
	s.waiters = growRows(s.waiters, numUnits)
	s.busy = grow(s.busy, numUnits)
	s.pending = grow(s.pending, (numUnits+63)/64)
	s.items = grow(s.items, n)
	s.events = s.events[:0]
}

// RunBounded simulates the distributed graph under the given per-op
// priorities (use sched.Ranks for HeteroG's order, sched.FIFO for
// TensorFlow's default), indexed by dense DistOp ID. Dispatch is greedy:
// whenever a unit frees, it starts the highest-priority ready op all of whose
// units are idle.
//
// The run aborts early when the event clock crosses bound: the simulation
// stops and returns (nil, ErrBoundExceeded). Because event times are popped
// in nondecreasing order, crossing the bound certifies the final makespan
// would exceed it — bounded runs that do complete are bit-identical to
// unbounded ones. A non-positive or +Inf bound disables the abort. The abort
// path performs no allocations beyond a completed run's own.
//
// The returned Result aliases the Simulator's reusable buffers: it is valid
// until the next RunBounded call on this Simulator. Clone it to retain it.
func (s *Simulator) RunBounded(dg *compiler.DistGraph, priorities []float64, bound float64) (*Result, error) {
	if bound <= 0 {
		bound = math.Inf(1)
	}
	n := len(dg.Ops)
	if len(priorities) < n {
		return nil, fmt.Errorf("priorities cover %d of %d ops", len(priorities), n)
	}
	s.reset(dg, priorities)

	for _, op := range dg.Ops {
		if s.indeg[op.ID] == 0 {
			s.enqueue(op)
		}
	}
	now := 0.0
	s.dispatch(now)
	for len(s.events) > 0 {
		ev := s.events.pop()
		now = ev.time
		if now > bound {
			return nil, ErrBoundExceeded
		}
		s.complete(ev.op, now)
		// Drain same-time completions before dispatching so simultaneous
		// frees are visible together.
		for len(s.events) > 0 && s.events[0].time == now {
			ev2 := s.events.pop()
			s.complete(ev2.op, now)
		}
		s.dispatch(now)
	}
	if s.done != n {
		return nil, fmt.Errorf("deadlock: executed %d of %d ops (cyclic or unreachable deps)", s.done, n)
	}
	return s.finish(dg, now), nil
}

// finish seals the result after the event loop drains: makespan, busiest
// compute/comm units and OOM flags.
func (s *Simulator) finish(dg *compiler.DistGraph, now float64) *Result {
	res := &s.res
	res.Makespan = now
	for u := range s.queues {
		bt := res.BusyTime[u]
		if dg.UnitKindOf(u) == compiler.UnitGPU {
			if bt > res.ComputeTime {
				res.ComputeTime = bt
			}
		} else if bt > res.CommTime {
			res.CommTime = bt
		}
	}
	for d := 0; d < dg.Cluster.NumDevices(); d++ {
		if res.PeakMem[d] > dg.Cluster.Devices[d].UsableMemBytes() {
			res.OOMDevices = append(res.OOMDevices, d)
		}
	}
	return res
}

// simPool recycles simulators across package-level Run calls, including
// concurrent ones (each Get hands a simulator to exactly one goroutine).
var simPool = sync.Pool{New: func() any { return NewSimulator() }}

// Run is the one-shot compatibility wrapper around Simulator: it draws a
// reusable simulator from a shared pool and returns a Result the caller owns.
func Run(dg *compiler.DistGraph, priorities []float64) (*Result, error) {
	return RunBounded(dg, priorities, math.Inf(1))
}

// RunBounded is the pooled one-shot wrapper around Simulator.RunBounded; it
// returns (nil, ErrBoundExceeded) when the event clock crosses bound.
func RunBounded(dg *compiler.DistGraph, priorities []float64, bound float64) (*Result, error) {
	s := simPool.Get().(*Simulator)
	res, err := s.RunBounded(dg, priorities, bound)
	if err != nil {
		simPool.Put(s)
		return nil, err
	}
	out := res.Clone()
	simPool.Put(s)
	return out, nil
}

// Utilization returns busy-time / makespan per unit.
func (r *Result) Utilization() []float64 {
	u := make([]float64, len(r.BusyTime))
	if r.Makespan <= 0 {
		return u
	}
	for i, b := range r.BusyTime {
		u[i] = b / r.Makespan
	}
	return u
}

// Validate cross-checks a result against its graph: the makespan must be at
// least the critical path and at least every unit's total work (up to float
// tolerance). Used by tests and the agent's sanity layer.
func Validate(dg *compiler.DistGraph, r *Result) error {
	const tol = 1e-9
	if cp := dg.CriticalPath(); r.Makespan+tol < cp {
		return fmt.Errorf("makespan %.9f below critical path %.9f", r.Makespan, cp)
	}
	for u, w := range dg.TotalWorkOn() {
		if r.Makespan+tol < w {
			return fmt.Errorf("makespan %.9f below unit %d work %.9f", r.Makespan, u, w)
		}
	}
	for id, fin := range r.Finishes {
		if math.IsNaN(fin) || fin < 0 {
			return fmt.Errorf("op %d has invalid finish %.9f", id, fin)
		}
	}
	return nil
}

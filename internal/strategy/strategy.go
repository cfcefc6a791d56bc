// Package strategy defines the Part-I decision space of the paper's Strategy
// Maker: per-group parallelism, placement and gradient-communication choices,
// plus the operation-grouping scheme (top-N longest ops + nearest-neighbour
// attachment) that shrinks the action space from thousands of ops to at most
// N groups.
package strategy

import (
	"fmt"
	"sort"

	"heterog/internal/cluster"
	"heterog/internal/graph"
)

// DecisionKind enumerates the M+4 actions available per group: model
// parallelism on each of the M devices, or one of the four data-parallel
// schemes (even/proportional replicas x PS/AllReduce).
type DecisionKind int

const (
	// MP places every op in the group on a single device, unreplicated.
	MP DecisionKind = iota
	// DPEvenPS replicates once per device and aggregates via parameter server.
	DPEvenPS
	// DPEvenAR replicates once per device and aggregates via AllReduce.
	DPEvenAR
	// DPPropPS replicates proportionally to compute power, PS aggregation.
	DPPropPS
	// DPPropAR replicates proportionally to compute power, AllReduce.
	DPPropAR

	numDPKinds = 4
)

func (k DecisionKind) String() string {
	switch k {
	case MP:
		return "MP"
	case DPEvenPS:
		return "EV-PS"
	case DPEvenAR:
		return "EV-AR"
	case DPPropPS:
		return "CP-PS"
	case DPPropAR:
		return "CP-AR"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// IsDP reports whether the decision replicates the group.
func (k DecisionKind) IsDP() bool { return k != MP }

// UsesAllReduce reports whether gradient aggregation uses AllReduce.
func (k DecisionKind) UsesAllReduce() bool { return k == DPEvenAR || k == DPPropAR }

// Decision is one group's strategy.
type Decision struct {
	Kind DecisionKind
	// Device is the placement device for MP decisions; ignored for DP.
	Device int
}

// ActionSpaceSize returns M+4, the per-group action count for M devices.
func ActionSpaceSize(m int) int { return m + numDPKinds }

// DecisionFromAction decodes an action index in [0, M+4): the first M indices
// are MP on the corresponding device; the last 4 are the DP schemes, in the
// order EV-PS, EV-AR, CP-PS, CP-AR.
func DecisionFromAction(action, m int) (Decision, error) {
	if action < 0 || action >= ActionSpaceSize(m) {
		return Decision{}, fmt.Errorf("action %d out of range [0,%d)", action, ActionSpaceSize(m))
	}
	if action < m {
		return Decision{Kind: MP, Device: action}, nil
	}
	return Decision{Kind: DecisionKind(int(DPEvenPS) + action - m)}, nil
}

// ActionIndex encodes a decision back to its action index.
func (d Decision) ActionIndex(m int) int {
	if d.Kind == MP {
		return d.Device
	}
	return m + int(d.Kind) - int(DPEvenPS)
}

// Grouping partitions a graph's ops into at most N groups.
type Grouping struct {
	// GroupOf[opID] is the group index of each op.
	GroupOf []int
	// Members[g] lists op IDs in group g.
	Members [][]int
	// Anchors[g] is the op ID of the long-running anchor op of group g.
	Anchors []int
}

// NumGroups returns the number of groups.
func (gr *Grouping) NumGroups() int { return len(gr.Members) }

// AvgTimer supplies per-op average execution times for anchor selection.
type AvgTimer interface {
	AvgOpTime(op *graph.Op) float64
}

// Group implements the paper's nearest-neighbour grouping: if the graph has
// more than maxGroups ops, pick the maxGroups ops with the longest average
// execution time as anchors and attach every other op to the anchor with the
// fewest hops in between (ties broken toward the earlier anchor). Otherwise
// each op is its own group.
func Group(g *graph.Graph, times AvgTimer, maxGroups int) (*Grouping, error) {
	n := g.NumOps()
	if maxGroups <= 0 {
		return nil, fmt.Errorf("maxGroups must be positive, got %d", maxGroups)
	}
	gr := &Grouping{GroupOf: make([]int, n)}
	if n <= maxGroups {
		gr.Members = make([][]int, n)
		gr.Anchors = make([]int, n)
		for i, op := range g.Ops {
			gr.GroupOf[op.ID] = i
			gr.Members[i] = []int{op.ID}
			gr.Anchors[i] = op.ID
		}
		return gr, nil
	}
	type scored struct {
		op *graph.Op
		t  float64
	}
	byTime := make([]scored, 0, n)
	for _, op := range g.Ops {
		byTime = append(byTime, scored{op, times.AvgOpTime(op)})
	}
	sort.Slice(byTime, func(a, b int) bool {
		if byTime[a].t != byTime[b].t {
			return byTime[a].t > byTime[b].t
		}
		return byTime[a].op.ID < byTime[b].op.ID
	})
	anchors := make([]*graph.Op, maxGroups)
	for i := 0; i < maxGroups; i++ {
		anchors[i] = byTime[i].op
	}
	// Multi-source BFS per anchor would be O(N * maxGroups); instead run a
	// single multi-source BFS where each frontier vertex carries its anchor.
	owner := make([]int, n)
	dist := make([]int, n)
	for i := range owner {
		owner[i] = -1
		dist[i] = -1
	}
	adj := make([][]int, n)
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			adj[op.ID] = append(adj[op.ID], in.ID)
			adj[in.ID] = append(adj[in.ID], op.ID)
		}
	}
	queue := make([]int, 0, n)
	for gi, a := range anchors {
		owner[a.ID] = gi
		dist[a.ID] = 0
		queue = append(queue, a.ID)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if owner[v] == -1 {
				owner[v] = owner[u]
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	// Disconnected ops (if any) join group 0.
	for i := range owner {
		if owner[i] == -1 {
			owner[i] = 0
		}
	}
	gr.Members = make([][]int, maxGroups)
	gr.Anchors = make([]int, maxGroups)
	for gi, a := range anchors {
		gr.Anchors[gi] = a.ID
	}
	for _, op := range g.Ops {
		gi := owner[op.ID]
		gr.GroupOf[op.ID] = gi
		gr.Members[gi] = append(gr.Members[gi], op.ID)
	}
	return gr, nil
}

// Strategy is a complete Part-I assignment: a grouping plus one decision per
// group.
type Strategy struct {
	Grouping  *Grouping
	Decisions []Decision
}

// Validate checks internal consistency against a cluster size.
func (s *Strategy) Validate(c *cluster.Cluster) error {
	if s.Grouping == nil {
		return fmt.Errorf("strategy has nil grouping")
	}
	if len(s.Decisions) != s.Grouping.NumGroups() {
		return fmt.Errorf("decisions (%d) != groups (%d)", len(s.Decisions), s.Grouping.NumGroups())
	}
	for gi, d := range s.Decisions {
		if d.Kind == MP && (d.Device < 0 || d.Device >= c.NumDevices()) {
			return fmt.Errorf("group %d: MP device %d out of range", gi, d.Device)
		}
	}
	return nil
}

// Uniform builds a strategy assigning the same decision to every group —
// how the DP baselines (EV-PS/EV-AR/CP-PS/CP-AR) are expressed.
func Uniform(gr *Grouping, d Decision) *Strategy {
	ds := make([]Decision, gr.NumGroups())
	for i := range ds {
		ds[i] = d
	}
	return &Strategy{Grouping: gr, Decisions: ds}
}

// Stats is the per-strategy operation share table (Tables 2 and 3): the
// fraction of ops placed via MP on each device and via each DP scheme.
// core.Evaluation.StrategyStats fills it.
type Stats struct {
	// MPShare[d] is the fraction of ops model-parallel on device d.
	MPShare []float64
	// DPShare maps each DP kind to its op fraction.
	DPShare map[DecisionKind]float64
}

package plan

// Delta compilation correctness: DeltaState.Apply must produce artifacts
// bit-identical to a from-scratch Lower of the same strategy — same dense
// IDs, op fields, NIC-lane units, priorities under both orders, and the same
// simulated schedule to the last float.

import (
	"fmt"
	"math/rand"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/graph"
	"heterog/internal/profile"
	"heterog/internal/sim"
	"heterog/internal/strategy"
)

func randomDecision(rng *rand.Rand, m int) strategy.Decision {
	d, err := strategy.DecisionFromAction(rng.Intn(strategy.ActionSpaceSize(m)), m)
	if err != nil {
		panic(err)
	}
	return d
}

func randomStrategy(gr *strategy.Grouping, m int, rng *rand.Rand) *strategy.Strategy {
	ds := make([]strategy.Decision, gr.NumGroups())
	for i := range ds {
		ds[i] = randomDecision(rng, m)
	}
	return &strategy.Strategy{Grouping: gr, Decisions: ds}
}

// mutate flips k random group decisions, returning a fresh strategy.
func mutate(s *strategy.Strategy, m, k int, rng *rand.Rand) *strategy.Strategy {
	ds := append([]strategy.Decision(nil), s.Decisions...)
	for i := 0; i < k; i++ {
		ds[rng.Intn(len(ds))] = randomDecision(rng, m)
	}
	return &strategy.Strategy{Grouping: s.Grouping, Decisions: ds}
}

// sameDist compares two materialized graphs field by field. Input lists are
// compared as ID multisets: the delta path may append a patched op's inputs
// in a different order, which is unobservable (successor CSRs order by
// consumer ID and in-degrees are counts).
func sameDist(t *testing.T, tag string, got, want *compiler.DistGraph) {
	t.Helper()
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("%s: %d ops, want %d", tag, len(got.Ops), len(want.Ops))
	}
	for i, g := range got.Ops {
		w := want.Ops[i]
		if g.ID != w.ID || g.Name != w.Name || g.Kind != w.Kind || g.Time != w.Time ||
			g.OutBytes != w.OutBytes || g.MemDevice != w.MemDevice || g.Iter != w.Iter {
			t.Fatalf("%s: op %d differs:\n got %+v\nwant %+v", tag, i, g, w)
		}
		if len(g.Units) != len(w.Units) {
			t.Fatalf("%s: op %d units %v, want %v", tag, i, g.Units, w.Units)
		}
		for j := range g.Units {
			if g.Units[j] != w.Units[j] {
				t.Fatalf("%s: op %d units %v, want %v", tag, i, g.Units, w.Units)
			}
		}
		if len(g.Inputs) != len(w.Inputs) {
			t.Fatalf("%s: op %d (%s) has %d inputs, want %d", tag, i, g.Name, len(g.Inputs), len(w.Inputs))
		}
		gin := make(map[int]int)
		for _, in := range g.Inputs {
			gin[in.ID]++
		}
		for _, in := range w.Inputs {
			gin[in.ID]--
			if gin[in.ID] == 0 {
				delete(gin, in.ID)
			}
		}
		if len(gin) != 0 {
			t.Fatalf("%s: op %d (%s) input set differs by %v", tag, i, g.Name, gin)
		}
	}
	for d := range want.PersistentBytes {
		if got.PersistentBytes[d] != want.PersistentBytes[d] {
			t.Fatalf("%s: device %d persistent %d, want %d", tag, d, got.PersistentBytes[d], want.PersistentBytes[d])
		}
	}
}

// sameSchedule orders and simulates both artifacts under both execution
// orders and requires float-exact agreement.
func sameSchedule(t *testing.T, tag string, got, want *Artifacts) {
	t.Helper()
	for _, fifo := range []bool{false, true} {
		gv, wv := got.ForOrder(fifo), want.ForOrder(fifo)
		if err := Order(gv); err != nil {
			t.Fatal(err)
		}
		if err := Order(wv); err != nil {
			t.Fatal(err)
		}
		for i := range wv.Priorities {
			if gv.Priorities[i] != wv.Priorities[i] {
				t.Fatalf("%s fifo=%v: priority[%d] %g, want %g", tag, fifo, i, gv.Priorities[i], wv.Priorities[i])
			}
		}
		gr, err := sim.Run(gv.Dist, gv.Priorities)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := sim.Run(wv.Dist, wv.Priorities)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Makespan != wr.Makespan || gr.ComputeTime != wr.ComputeTime || gr.CommTime != wr.CommTime {
			t.Fatalf("%s fifo=%v: makespan/compute/comm %g/%g/%g, want %g/%g/%g",
				tag, fifo, gr.Makespan, gr.ComputeTime, gr.CommTime, wr.Makespan, wr.ComputeTime, wr.CommTime)
		}
		for i := range wr.Starts {
			if gr.Starts[i] != wr.Starts[i] || gr.Finishes[i] != wr.Finishes[i] {
				t.Fatalf("%s fifo=%v: op %d scheduled [%g,%g], want [%g,%g]",
					tag, fifo, i, gr.Starts[i], gr.Finishes[i], wr.Starts[i], wr.Finishes[i])
			}
		}
	}
}

func TestDeltaApplyBitIdenticalToFullLower(t *testing.T) {
	for _, tc := range []struct {
		model string
		batch int
	}{
		{"vgg19", 64},
		{"bert24", 24},
	} {
		t.Run(tc.model, func(t *testing.T) {
			g, c, cm, gr := setup(t, tc.model, tc.batch)
			m := c.NumDevices()
			rng := rand.New(rand.NewSource(7))
			cur := randomStrategy(gr, m, rng)
			const iters = 3
			ds, err := NewDeltaState(g, c, cur, cm, iters, compiler.Ablations{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			patched, full := 0, 0
			for step := 0; step < 20; step++ {
				next := mutate(cur, m, 1+rng.Intn(2), rng)
				art, st, err := ds.Apply(next)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if st.Full {
					full++
				} else if st.Relowered > 0 {
					patched++
				}
				want := NewArtifacts(g, c, next, cm, iters, compiler.Ablations{})
				if err := Lower(want); err != nil {
					t.Fatalf("step %d full lower: %v", step, err)
				}
				tag := fmt.Sprintf("%s step %d (stats %+v)", tc.model, step, st)
				sameDist(t, tag, art.Dist, want.Dist)
				sameSchedule(t, tag, art, want)
				cur = next
			}
			if patched == 0 {
				t.Fatalf("no mutation took the patch path (%d full)", full)
			}
		})
	}
}

func TestDeltaNoChangeReturnsBaselineUntouched(t *testing.T) {
	g, c, cm, gr := setup(t, "vgg19", 64)
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenPS})
	ds, err := NewDeltaState(g, c, s, cm, 2, compiler.Ablations{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := ds.art
	twin := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenPS})
	art, st, err := ds.Apply(twin)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.ChangedOps != 0 || st.Relowered != 0 {
		t.Fatalf("identical strategy must be a no-op, got %+v", st)
	}
	if art != base || art.Dist != base.Dist {
		t.Fatal("identical strategy must return the retained baseline artifacts")
	}
}

func TestDeltaFallsBackOnLargeDiff(t *testing.T) {
	g, c, cm, gr := setup(t, "vgg19", 64)
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenPS})
	ds, err := NewDeltaState(g, c, s, cm, 2, compiler.Ablations{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Flipping every group exceeds any per-mutation budget.
	next := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenAR})
	art, st, err := ds.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("whole-strategy flip must take the full path, got %+v", st)
	}
	want := NewArtifacts(g, c, next, cm, 2, compiler.Ablations{})
	if err := Lower(want); err != nil {
		t.Fatal(err)
	}
	sameDist(t, "fallback", art.Dist, want.Dist)
}

// ctrlGraph builds a minimal graph with a control dependency whose source is
// an ApplyGradient op — the deferred-ctrl path no zoo model exercises.
func ctrlGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("ctrlcase", 8)
	g.OptimizerSlots = 3
	in := g.AddOp("in", graph.KindNoOp)
	a1 := g.AddOp("a1", graph.KindMatMul, in)
	a1.FLOPs = 4e9
	a1.ParamBytes = 1 << 20
	a1.OutputBytes = 1 << 18
	a1.BatchDim = true
	gw := g.AddOp("a1_gradW", graph.KindMatMulBp, a1)
	gw.FLOPs = a1.FLOPs
	gw.OutputBytes = a1.ParamBytes
	gw.ParamBytes = a1.ParamBytes
	gw.Forward = a1
	ap := g.AddOp("a1_apply", graph.KindApplyGradient, gw)
	ap.FLOPs = 1e6
	ap.OutputBytes = a1.ParamBytes
	ap.Forward = a1
	b1 := g.AddOp("b1", graph.KindMatMul, in)
	b1.FLOPs = 2e9
	b1.ParamBytes = 1 << 19
	b1.OutputBytes = 1 << 17
	b1.BatchDim = true
	b1.ControlDeps = []*graph.Op{ap}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeltaRelinksApplySourcedCtrlDeps(t *testing.T) {
	g := ctrlGraph(t)
	c := cluster.Testbed8()
	cm, err := profile.Profile(g, c, profile.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := strategy.Group(g, cm, g.NumOps())
	if err != nil {
		t.Fatal(err)
	}
	m := c.NumDevices()
	rng := rand.New(rand.NewSource(3))
	cur := randomStrategy(gr, m, rng)
	ds, err := NewDeltaState(g, c, cur, cm, 3, compiler.Ablations{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	patched := 0
	for step := 0; step < 12; step++ {
		next := mutate(cur, m, 1, rng)
		art, st, err := ds.Apply(next)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !st.Full && st.Relowered > 0 {
			patched++
		}
		want := NewArtifacts(g, c, next, cm, 3, compiler.Ablations{})
		if err := Lower(want); err != nil {
			t.Fatal(err)
		}
		sameDist(t, "ctrl", art.Dist, want.Dist)
		sameSchedule(t, "ctrl", art, want)
		cur = next
	}
	if patched == 0 {
		t.Fatal("ctrl-dep walk never exercised the patch path")
	}
}

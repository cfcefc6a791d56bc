package sim

import (
	"math"
	"reflect"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/compiler"
	"heterog/internal/models"
	"heterog/internal/plan"
	"heterog/internal/profile"
	"heterog/internal/sched"
	"heterog/internal/strategy"
)

// reuseCase compiles one (model, strategy) pair into a ready-to-simulate
// graph with its ranked priorities.
func reuseCase(t *testing.T, key string, batch int, kind strategy.DecisionKind) (*compiler.DistGraph, []float64) {
	t.Helper()
	g, err := models.Build(key, batch)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Testbed4()
	cm, err := profile.Profile(g, c, profile.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := strategy.Group(g, cm, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := strategy.Uniform(gr, strategy.Decision{Kind: kind})
	dg, err := plan.CompileIter(g, c, s, cm, 3)
	if err != nil {
		t.Fatal(err)
	}
	return dg, sched.Ranks(dg)
}

func sameResult(t *testing.T, want, got *Result, what string) {
	t.Helper()
	if want.Makespan != got.Makespan {
		t.Fatalf("%s: makespan %v != %v", what, got.Makespan, want.Makespan)
	}
	if !reflect.DeepEqual(want.Starts, got.Starts) || !reflect.DeepEqual(want.Finishes, got.Finishes) {
		t.Fatalf("%s: start/finish times diverge", what)
	}
	if !reflect.DeepEqual(want.PeakMem, got.PeakMem) || !reflect.DeepEqual(want.BusyTime, got.BusyTime) {
		t.Fatalf("%s: peak memory or busy time diverges", what)
	}
	if len(want.OOMDevices) != len(got.OOMDevices) {
		t.Fatalf("%s: OOM sets diverge", what)
	}
	for i := range want.OOMDevices {
		if want.OOMDevices[i] != got.OOMDevices[i] {
			t.Fatalf("%s: OOM sets diverge", what)
		}
	}
}

// TestSimulatorReuseBitIdentical interleaves two different workloads through
// one reused Simulator and checks every run is bit-identical to a fresh
// simulator and to the pooled package-level Run.
func TestSimulatorReuseBitIdentical(t *testing.T) {
	dgA, prA := reuseCase(t, "vgg19", 64, strategy.DPEvenAR)
	dgB, prB := reuseCase(t, "mobilenet_v2", 48, strategy.DPPropPS)

	fresh := func(dg *compiler.DistGraph, pr []float64) *Result {
		r, err := NewSimulator().RunBounded(dg, pr, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return r.Clone()
	}
	wantA, wantB := fresh(dgA, prA), fresh(dgB, prB)
	if err := Validate(dgA, wantA); err != nil {
		t.Fatal(err)
	}

	s := NewSimulator()
	for i := 0; i < 3; i++ {
		gotA, err := s.RunBounded(dgA, prA, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, wantA, gotA, "reused A")
		gotB, err := s.RunBounded(dgB, prB, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, wantB, gotB, "reused B")
	}

	pooled, err := Run(dgA, prA)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, wantA, pooled, "pooled Run")
}

// TestSimulatorCloneOutlivesReuse checks the retention contract: a cloned
// result must be unaffected by later runs that recycle the buffers.
func TestSimulatorCloneOutlivesReuse(t *testing.T) {
	dgA, prA := reuseCase(t, "vgg19", 64, strategy.DPEvenAR)
	dgB, prB := reuseCase(t, "mobilenet_v2", 48, strategy.DPPropPS)
	s := NewSimulator()
	first, err := s.RunBounded(dgA, prA, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	want := kept.Clone()
	if _, err := s.RunBounded(dgB, prB, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, kept, "clone after reuse")
}

// TestSimulatorSteadyStateZeroAlloc pins the zero-alloc reuse contract.
func TestSimulatorSteadyStateZeroAlloc(t *testing.T) {
	dg, pr := reuseCase(t, "vgg19", 64, strategy.DPEvenAR)
	s := NewSimulator()
	if _, err := s.RunBounded(dg, pr, math.Inf(1)); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.RunBounded(dg, pr, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Simulator.RunBounded allocates %.1f objects/run, want 0", allocs)
	}
}

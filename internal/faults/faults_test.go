package faults

import (
	"reflect"
	"testing"

	"heterog/internal/cluster"
)

func TestGenerateDeterministic(t *testing.T) {
	c := cluster.Testbed8().FullView()
	a := Generate(c, DefaultModel(6, 42))
	b := Generate(c, DefaultModel(6, 42))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must yield bit-identical scenario sets")
	}
	other := Generate(c, DefaultModel(6, 43))
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds should yield different scenario sets")
	}
	if len(a) != 6 {
		t.Fatalf("got %d scenarios, want 6", len(a))
	}
}

func TestGenerateBounds(t *testing.T) {
	c := cluster.Testbed8().FullView()
	for _, s := range Generate(c, DefaultModel(32, 7)) {
		if len(s.Slowdown) != c.NumDevices() || len(s.MemFactor) != c.NumDevices() || len(s.LinkFactor) != c.NumLinks() {
			t.Fatalf("scenario %s sized wrong", s.Name)
		}
		for d, f := range s.Slowdown {
			if f < 1 {
				t.Fatalf("%s: slowdown[%d]=%v < 1", s.Name, d, f)
			}
			if s.MemFactor[d] <= 0 || s.MemFactor[d] > 1 {
				t.Fatalf("%s: memFactor[%d]=%v outside (0,1]", s.Name, d, s.MemFactor[d])
			}
			if es := s.EffectiveSlowdown(d); es < f {
				t.Fatalf("%s: effective slowdown below base", s.Name)
			}
		}
		for i, f := range s.LinkFactor {
			if f <= 0 || f > 1 {
				t.Fatalf("%s: linkFactor[%d]=%v outside (0,1]", s.Name, i, f)
			}
		}
		if s.Failed >= 0 {
			if s.FailFrac <= 0 || s.FailFrac >= 1 {
				t.Fatalf("%s: failFrac %v outside (0,1)", s.Name, s.FailFrac)
			}
			if s.EffectiveSlowdown(s.Failed) <= s.Slowdown[s.Failed] {
				t.Fatalf("%s: failure must slow the dead device further", s.Name)
			}
		}
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	c := cluster.Testbed8().FullView()
	want := c.Clone()
	scs := Generate(c, DefaultModel(8, 3))
	for _, s := range scs {
		_ = s.Apply(c)
	}
	if !reflect.DeepEqual(c.Devices, want.Devices) || !reflect.DeepEqual(c.Links, want.Links) || !reflect.DeepEqual(c.Servers, want.Servers) {
		t.Fatal("Apply mutated the source cluster")
	}
}

func TestApplyPerturbs(t *testing.T) {
	c := cluster.Testbed4().FullView()
	s := &Scenario{
		ID:         0,
		Name:       "manual",
		Slowdown:   []float64{2, 1, 1, 1},
		MemFactor:  []float64{1, 0.5, 1, 1},
		LinkFactor: make([]float64, c.NumLinks()),
		Failed:     3,
		FailFrac:   0.5,
	}
	for i := range s.LinkFactor {
		s.LinkFactor[i] = 1
	}
	s.LinkFactor[0] = 0.25
	pc := s.Apply(c)
	if got, want := pc.Devices[0].Model.PeakTFLOPS, c.Devices[0].Model.PeakTFLOPS/2; got != want {
		t.Fatalf("straggler TFLOPS %v, want %v", got, want)
	}
	if got, want := pc.Devices[3].Model.PeakTFLOPS, c.Devices[3].Model.PeakTFLOPS/2; got != want {
		t.Fatalf("failed-device TFLOPS %v, want %v (1/(1-0.5) penalty)", got, want)
	}
	if got := pc.Devices[1].UsableMemBytes(); got != c.Devices[1].UsableMemBytes()/2 {
		t.Fatalf("shrunk usable memory %d, want %d", got, c.Devices[1].UsableMemBytes()/2)
	}
	if got, want := pc.Links[0].Bandwidth, c.Links[0].Bandwidth/4; got != want {
		t.Fatalf("degraded link bandwidth %v, want %v", got, want)
	}
	if pc.Links[1].Bandwidth != c.Links[1].Bandwidth {
		t.Fatal("untouched link must keep its bandwidth")
	}
}

func TestApplyRejectsMismatchedCluster(t *testing.T) {
	scs := Generate(cluster.Testbed8().FullView(), DefaultModel(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on a mismatched cluster must panic")
		}
	}()
	scs[0].Apply(cluster.Testbed4().FullView())
}

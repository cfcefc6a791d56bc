// Package faults models the degraded states a heterogeneous GPU cluster
// drifts into in production: straggling (thermally throttled or contended)
// GPUs, links whose effective bandwidth collapses under contention, devices
// that die mid-training, and memory headroom eaten by co-located jobs. A
// fault Model expands one nominal cluster into K deterministic Scenario
// perturbations; planning against the nominal cluster plus its scenarios
// (core's robustness mode) trades a little nominal speed for a plan that
// survives the cluster it will actually run on.
//
// Scenario generation is driven entirely by the model's seed: the same
// (cluster, Model) pair always yields bit-identical scenarios, so robustness
// scores are reproducible and cacheable. Applying a scenario never mutates
// the source cluster — it returns a perturbed deep copy.
package faults

import (
	"fmt"
	"math/rand"

	"heterog/internal/cluster"
)

// Model configures scenario generation. The zero value of any knob selects
// the default written next to it; Normalize fills them in.
type Model struct {
	// K is the number of scenarios to generate.
	K int
	// Seed drives every random draw; identical seeds yield identical
	// scenario sets for the same cluster.
	Seed int64
	// StragglerProb is the chance each device straggles in a scenario
	// (default 0.25).
	StragglerProb float64
	// MaxSlowdown caps the straggler compute-time multiplier (default 3.0:
	// a straggler runs ops 1x–3x slower).
	MaxSlowdown float64
	// LinkProb is the chance each directed link is degraded (default 0.15).
	LinkProb float64
	// MaxLinkLoss caps the fraction of a degraded link's bandwidth lost
	// (default 0.75: a degraded link keeps >= 25% of its bandwidth).
	MaxLinkLoss float64
	// FailureProb is the chance a scenario loses one device mid-iteration
	// (default 0.25).
	FailureProb float64
	// MemShrinkProb is the chance each device's memory headroom shrinks
	// (default 0.2).
	MemShrinkProb float64
	// MaxMemLoss caps the fraction of usable memory lost (default 0.3).
	MaxMemLoss float64
}

// DefaultModel returns the stock fault model with k scenarios drawn from seed.
func DefaultModel(k int, seed int64) Model {
	return Model{K: k, Seed: seed}
}

// Normalize fills zero knobs with their defaults.
func (m *Model) Normalize() {
	if m.StragglerProb == 0 {
		m.StragglerProb = 0.25
	}
	if m.MaxSlowdown == 0 {
		m.MaxSlowdown = 3.0
	}
	if m.LinkProb == 0 {
		m.LinkProb = 0.15
	}
	if m.MaxLinkLoss == 0 {
		m.MaxLinkLoss = 0.75
	}
	if m.FailureProb == 0 {
		m.FailureProb = 0.25
	}
	if m.MemShrinkProb == 0 {
		m.MemShrinkProb = 0.2
	}
	if m.MaxMemLoss == 0 {
		m.MaxMemLoss = 0.3
	}
}

// Scenario is one deterministic perturbation of a cluster. All slices are
// indexed like the source cluster's Devices and Links.
type Scenario struct {
	// ID is the scenario's index in its generated set; core folds it into
	// the evaluation-cache fingerprint so scenario twins can share a cache.
	ID int
	// Name summarizes the injected faults for reports.
	Name string
	// Slowdown[d] >= 1 multiplies every op time on device d.
	Slowdown []float64
	// LinkFactor[i] in (0,1] scales link i's remaining bandwidth.
	LinkFactor []float64
	// MemFactor[d] in (0,1] scales device d's usable memory headroom.
	MemFactor []float64
	// Failed is the device lost at FailFrac of the way through an
	// iteration, or -1 when the scenario loses no device.
	Failed int
	// FailFrac in (0,1) is when within the iteration the device dies.
	FailFrac float64
}

// Generate expands the cluster view into m.K scenario perturbations. The
// draw order is fixed (devices, then links, then failure), so a given (view
// shape, model) pair always produces bit-identical scenarios.
func Generate(c *cluster.View, m Model) []*Scenario {
	m.Normalize()
	rng := rand.New(rand.NewSource(m.Seed))
	scs := make([]*Scenario, 0, m.K)
	for k := 0; k < m.K; k++ {
		s := &Scenario{
			ID:         k,
			Slowdown:   make([]float64, c.NumDevices()),
			LinkFactor: make([]float64, c.NumLinks()),
			MemFactor:  make([]float64, c.NumDevices()),
			Failed:     -1,
		}
		stragglers, degraded, shrunk := 0, 0, 0
		for d := range s.Slowdown {
			s.Slowdown[d] = 1
			s.MemFactor[d] = 1
			if rng.Float64() < m.StragglerProb {
				s.Slowdown[d] = 1 + rng.Float64()*(m.MaxSlowdown-1)
				stragglers++
			}
			if rng.Float64() < m.MemShrinkProb {
				s.MemFactor[d] = 1 - rng.Float64()*m.MaxMemLoss
				shrunk++
			}
		}
		for i := range s.LinkFactor {
			s.LinkFactor[i] = 1
			if rng.Float64() < m.LinkProb {
				s.LinkFactor[i] = 1 - rng.Float64()*m.MaxLinkLoss
				degraded++
			}
		}
		if rng.Float64() < m.FailureProb {
			s.Failed = rng.Intn(c.NumDevices())
			s.FailFrac = 0.25 + 0.5*rng.Float64()
		}
		s.Name = s.describe(stragglers, degraded, shrunk)
		scs = append(scs, s)
	}
	return scs
}

func (s *Scenario) describe(stragglers, degraded, shrunk int) string {
	name := fmt.Sprintf("S%d[%dslow/%dlink/%dmem", s.ID, stragglers, degraded, shrunk)
	if s.Failed >= 0 {
		name += fmt.Sprintf("/G%d-dead@%.0f%%", s.Failed, 100*s.FailFrac)
	}
	return name + "]"
}

// EffectiveSlowdown is the compute-time multiplier for device d including the
// failure penalty: a device that dies FailFrac of the way through every
// iteration window spends the tail in restart/recovery, so its effective
// throughput drops by 1/(1-FailFrac).
func (s *Scenario) EffectiveSlowdown(d int) float64 {
	f := s.Slowdown[d]
	if d == s.Failed {
		f *= 1 / (1 - s.FailFrac)
	}
	return f
}

// EffectiveSlowdowns returns EffectiveSlowdown for every device.
func (s *Scenario) EffectiveSlowdowns() []float64 {
	out := make([]float64, len(s.Slowdown))
	for d := range out {
		out[d] = s.EffectiveSlowdown(d)
	}
	return out
}

// Overlay renders the scenario as a cluster overlay: the effective per-device
// slowdowns (failure penalty folded in), link bandwidth factors and memory
// factors, labeled with the scenario name. This is the bridge between the
// static fault model and the telemetry-driven drift machinery — both degrade
// clusters through cluster.ApplyObservations.
func (s *Scenario) Overlay() cluster.Overlay {
	return cluster.Overlay{
		Slowdown:   s.EffectiveSlowdowns(),
		LinkFactor: s.LinkFactor,
		MemFactor:  s.MemFactor,
		Label:      s.Name,
	}
}

// Apply returns a perturbed deep copy of the view: device compute power is
// divided by the effective slowdown, link bandwidths are scaled by LinkFactor,
// and usable memory headroom shrinks by MemFactor. The source view is never
// mutated, and the perturbed view keeps the source's fleet-ID mapping. Apply
// panics if the scenario was generated for a view of a different shape.
func (s *Scenario) Apply(c *cluster.View) *cluster.View {
	if len(s.Slowdown) != c.NumDevices() || len(s.LinkFactor) != c.NumLinks() {
		panic(fmt.Sprintf("faults: scenario %s sized for %d devices/%d links, cluster %q has %d/%d",
			s.Name, len(s.Slowdown), len(s.LinkFactor), c.Name, c.NumDevices(), c.NumLinks()))
	}
	pc := c.ApplyObservations(s.Overlay())
	// An identity scenario still renames its clone, so scenario-applied
	// clusters are always distinguishable from the nominal one.
	pc.Name = c.Name + "+" + s.Name
	return pc
}

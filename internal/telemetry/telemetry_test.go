package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"heterog/internal/cluster"
)

// obsDevice feeds one slowdown reading for a device and returns whether the
// batch fired.
func obsDevice(w *Watcher, c *cluster.Cluster, id int, slowdown float64) bool {
	fired, _ := w.Observe(c, Reading{Device: &DeviceReading{ID: id, Slowdown: slowdown}})
	return fired
}

// TestWatcherOscillationBelowThresholdNeverFires is the hysteresis contract:
// seeded readings oscillating below the trigger band produce zero trips, no
// matter how long the stream runs.
func TestWatcherOscillationBelowThresholdNeverFires(t *testing.T) {
	c := cluster.Testbed4()
	w := NewWatcher(c, Thresholds{})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		for d := 0; d < c.NumDevices(); d++ {
			// Oscillate in [1.0, 1.2]: under the 1.25 trigger even unsmoothed.
			if obsDevice(w, c, d, 1+0.2*rng.Float64()) {
				t.Fatalf("tick %d: watcher fired on sub-threshold oscillation (%s)", i, w.Reason())
			}
		}
	}
	if w.trips != 0 || w.Tripped() {
		t.Fatalf("trips = %d tripped = %v, want 0/false", w.trips, w.Tripped())
	}
}

// TestWatcherOscillationAcrossTriggerFiresOnce: raw readings that repeatedly
// cross the trigger point must still fire at most once per episode — the
// EWMA and the trip-once state machine absorb the flapping.
func TestWatcherOscillationAcrossTriggerFiresOnce(t *testing.T) {
	c := cluster.Testbed4()
	w := NewWatcher(c, Thresholds{})
	fires := 0
	for i := 0; i < 500; i++ {
		// Alternate 1.0 / 1.6 around the 1.25 trigger; the EWMA settles near
		// 1.3, crossing the band exactly once.
		v := 1.0
		if i%2 == 1 {
			v = 1.6
		}
		if obsDevice(w, c, 0, v) {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("oscillation across the trigger fired %d times, want exactly 1", fires)
	}
}

// TestWatcherStepChangeFiresExactlyOnce: a persistent step change trips
// exactly one drift episode, and the watcher stays tripped (no re-fires)
// until rebased.
func TestWatcherStepChangeFiresExactlyOnce(t *testing.T) {
	c := cluster.Testbed4()
	w := NewWatcher(c, Thresholds{})
	fires := 0
	for i := 0; i < 100; i++ {
		if obsDevice(w, c, 1, 2.0) {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("step change fired %d times, want exactly 1", fires)
	}
	if !w.Tripped() || w.Reason() == "" {
		t.Fatalf("watcher must stay tripped with a reason after a step change")
	}

	// Rebase adopts the drifted state; the watcher re-arms and holds as long
	// as readings stay near the new baseline.
	w.Rebase()
	if w.Tripped() {
		t.Fatal("rebase must re-arm the watcher")
	}
	for i := 0; i < 50; i++ {
		if obsDevice(w, c, 1, 2.0) {
			t.Fatal("steady readings at the rebased baseline must not re-fire")
		}
	}

	// Recovery back to nominal is itself a drift from the rebased baseline:
	// exactly one more episode fires.
	fires = 0
	for i := 0; i < 100; i++ {
		if obsDevice(w, c, 1, 1.0) {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("recovery fired %d times, want exactly 1", fires)
	}
}

// TestWatcherCooldownSuppressesFlappingReplans drives the full monitor loop
// (fire → replan → Rebase) against a reading that flaps across the trigger
// every observation. Each Rebase adopts the flapped value as baseline, so the
// next swing is a fresh drift episode: without a cooldown the burst converts
// into a replan storm, with one it fires exactly once.
func TestWatcherCooldownSuppressesFlappingReplans(t *testing.T) {
	c := cluster.Testbed4()
	run := func(cooldown int) int {
		// Alpha 1 disables smoothing so every flap lands unattenuated — the
		// worst case the cooldown window exists for.
		w := NewWatcher(c, Thresholds{Alpha: 1, Cooldown: cooldown})
		replans := 0
		for i := 0; i < 40; i++ {
			v := 1.0
			if i%2 == 1 {
				v = 1.6 // across the 1.25 trigger and back, every reading
			}
			if obsDevice(w, c, 0, v) {
				replans++
				w.Rebase()
			}
		}
		return replans
	}
	if n := run(0); n < 2 {
		t.Fatalf("control run without cooldown produced %d replans; the flapping must storm for the window to matter", n)
	}
	if n := run(100); n != 1 {
		t.Fatalf("flapping burst with a covering cooldown produced %d replans, want exactly 1", n)
	}
	if n := run(10); n < 2 {
		t.Fatalf("a short cooldown must expire and re-arm within the burst, got %d replans", n)
	}
}

// TestWatcherLinkDrift: congestion on one link trips the link band, and the
// overlay carries the quantized factor at the right dense index.
func TestWatcherLinkDrift(t *testing.T) {
	c := cluster.Testbed8()
	w := NewWatcher(c, Thresholds{})
	var link cluster.Link
	for _, l := range c.Links {
		if !l.SameServer {
			link = l
			break
		}
	}
	fired := false
	for i := 0; i < 100; i++ {
		f, _ := w.Observe(c, Reading{Link: &LinkReading{Src: link.Src, Dst: link.Dst, BandwidthFactor: 0.4}})
		fired = fired || f
	}
	if !fired {
		t.Fatal("sustained 0.4x bandwidth must trip the link band")
	}
	o := w.Overlay()
	if got := o.LinkFactor[link.Index]; math.Abs(got-0.4) > 0.051 {
		t.Fatalf("overlay link factor = %v, want ~0.4", got)
	}
	// Untouched links stay exactly 1 so the overlay quantizes cleanly.
	for i, f := range o.LinkFactor {
		if i != link.Index && f != 1 {
			t.Fatalf("unobserved link %d factor = %v, want exactly 1", i, f)
		}
	}
}

// TestWatcherOverlayQuantization: equal drift regimes quantize to identical
// overlays, and a fully recovered state quantizes back to the identity — the
// property that lets replans reattach to the original workload's warm set.
func TestWatcherOverlayQuantization(t *testing.T) {
	c := cluster.Testbed4()
	run := func(noiseSeed int64) cluster.Overlay {
		w := NewWatcher(c, Thresholds{})
		rng := rand.New(rand.NewSource(noiseSeed))
		for i := 0; i < 300; i++ {
			for d := 0; d < c.NumDevices(); d++ {
				v := 1.8 * (1 + 0.02*(2*rng.Float64()-1))
				obsDevice(w, c, d, v)
			}
		}
		return w.Overlay()
	}
	a, b := run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same regime under different noise must quantize identically:\n%v\nvs\n%v", a, b)
	}
	if a.Identity() {
		t.Fatal("a 1.8x-throttled overlay must not be the identity")
	}

	// Drive back to nominal: the overlay must become the exact identity.
	w := NewWatcher(c, Thresholds{})
	for i := 0; i < 300; i++ {
		for d := 0; d < c.NumDevices(); d++ {
			obsDevice(w, c, d, 1.0)
		}
	}
	if o := w.Overlay(); !o.Identity() {
		t.Fatalf("recovered state must quantize to the identity overlay: %+v", o)
	}
}

// TestWatcherMalformedReadingsIgnored: bad sensor data must neither panic
// nor move the smoothed state.
func TestWatcherMalformedReadingsIgnored(t *testing.T) {
	c := cluster.Testbed4()
	w := NewWatcher(c, Thresholds{})
	w.Observe(c,
		Reading{Device: &DeviceReading{ID: -1, Slowdown: 5}},
		Reading{Device: &DeviceReading{ID: 99, Slowdown: 5}},
		Reading{Device: &DeviceReading{ID: 0, Slowdown: 0.2}},             // <1: not a slowdown
		Reading{Device: &DeviceReading{ID: 0, MemFactor: 1.7}},            // >1: not a factor
		Reading{Link: &LinkReading{Src: 0, Dst: 0, BandwidthFactor: 0.5}}, // self link
		Reading{Link: &LinkReading{Src: 0, Dst: 99, BandwidthFactor: 0.5}},
		Reading{}, // neither device nor link
	)
	if w.Observations() != 0 {
		t.Fatalf("malformed readings were counted: %d", w.Observations())
	}
	if o := w.Overlay(); !o.Identity() {
		t.Fatal("malformed readings must not perturb the overlay")
	}
}

// TestThresholdsValidate rejects bands that cannot hysterese.
func TestThresholdsValidate(t *testing.T) {
	if err := (Thresholds{}).Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	bad := []Thresholds{
		{Alpha: 1.5},
		{SlowdownTrigger: 1.05, SlowdownClear: 1.1}, // trigger <= clear
		{LinkClear: 0.5, LinkTrigger: 0.9},          // clear < 1
		{Quantum: 0.9},
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("bad thresholds %d validated: %+v", i, th)
		}
	}
}

// TestGeneratorDeterminism: identical seeds yield bit-identical traces;
// different seeds differ.
func TestGeneratorDeterminism(t *testing.T) {
	c := cluster.Testbed8()
	trace := func(seed int64) [][]Reading {
		g := NewGenerator(c, GenConfig{Seed: seed})
		var out [][]Reading
		for !g.Done() {
			out = append(out, g.Step())
		}
		return out
	}
	a, b := trace(7), trace(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the trace bit-identically")
	}
	if reflect.DeepEqual(a, trace(8)) {
		t.Fatal("different seeds must produce different noise")
	}
	if len(a) == 0 || len(a[0]) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestGeneratorRegimesDriveWatcher runs the default schedule end to end:
// drift episodes start in the throttle phase and end in the recovery phase,
// and hysteresis keeps the episode count far below the tick count (a ramp
// that keeps drifting past each rebased baseline may fire a few times, but
// never once per tick).
func TestGeneratorRegimesDriveWatcher(t *testing.T) {
	c := cluster.Testbed8()
	g := NewGenerator(c, GenConfig{Seed: 3})
	w := NewWatcher(c, Thresholds{})
	var phases []Regime
	ticks := 0
	for !g.Done() {
		regime := g.Regime()
		fired, _ := w.Observe(c, g.Step()...)
		ticks++
		if fired {
			phases = append(phases, regime)
			w.Rebase()
		}
	}
	if len(phases) < 2 || phases[0] != Throttle || phases[len(phases)-1] != Recovery {
		t.Fatalf("drift episodes fired in phases %v, want first=throttle last=recovery", phases)
	}
	if len(phases) > ticks/5 {
		t.Fatalf("%d episodes over %d ticks: hysteresis is not damping the ramp", len(phases), ticks)
	}
	// The throttled set is the most powerful devices (the V100s on testbed8).
	for _, d := range g.Throttled() {
		if c.Devices[d].Model.Power < 2 {
			t.Fatalf("throttled device %d is not a top-power card", d)
		}
	}
}

// TestGeneratorCongestionRegime: a congestion schedule degrades only
// cross-server links and trips the watcher's link band.
func TestGeneratorCongestionRegime(t *testing.T) {
	c := cluster.Testbed4()
	g := NewGenerator(c, GenConfig{Seed: 5, Phases: []Phase{{Healthy, 3}, {Congestion, 20}}})
	w := NewWatcher(c, Thresholds{})
	fired := false
	for !g.Done() {
		f, reason := w.Observe(c, g.Step()...)
		if f {
			fired = true
			if !containsLink(reason) {
				t.Fatalf("congestion trip reason %q does not name a link", reason)
			}
		}
	}
	if !fired {
		t.Fatal("congestion schedule never tripped the watcher")
	}
	o := w.Overlay()
	for _, l := range c.Links {
		if l.SameServer && o.LinkFactor[l.Index] != 1 {
			t.Fatalf("intra-server link %d degraded by congestion: %v", l.Index, o.LinkFactor[l.Index])
		}
	}
}

func containsLink(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i:i+4] == "link" {
			return true
		}
	}
	return false
}

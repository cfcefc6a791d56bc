// Package telemetry closes the paper's planning loop online. Static fault
// scenarios (internal/faults) score a plan against hypothetical degradations
// at plan time; real clusters then drift continuously — thermal throttling,
// link congestion from co-located traffic, preemption, recovery. This package
// models that drift as a stream of typed device/link observations, smooths it
// with per-metric exponentially weighted moving averages, and detects when
// the smoothed state has moved far enough from the state the incumbent plan
// was computed for that replanning is worth the cost.
//
// The Watcher is a hysteresis trigger, not a comparator: a drift episode
// fires exactly once when the smoothed deviation crosses the trigger band,
// then stays tripped until the caller rebases the baseline (normally after a
// replan adopts or re-confirms a plan for the drifted state). Oscillating
// readings below the band never fire; readings oscillating across the
// trigger point are absorbed by the EWMA and the trip-once state machine, so
// the replanner never flaps.
//
// The Generator produces seeded synthetic drift traces (throttle, congestion
// and recovery regimes with multiplicative measurement noise) for exhibits
// and tests; identical seeds yield bit-identical traces.
package telemetry

import (
	"fmt"
	"math"

	"heterog/internal/cluster"
)

// DeviceReading is one observation of a device's health.
type DeviceReading struct {
	// ID is the device observed.
	ID int `json:"id"`
	// Slowdown >= 1 is the measured compute-time multiplier against the
	// device's nominal speed (1 = healthy, 2 = ops take twice as long).
	// 0 means "not measured this reading".
	Slowdown float64 `json:"slowdown,omitempty"`
	// MemFactor in (0,1] is the measured fraction of usable memory headroom
	// still available (1 = all of it). 0 means "not measured".
	MemFactor float64 `json:"mem_factor,omitempty"`
}

// LinkReading is one observation of a directed link's effective bandwidth.
type LinkReading struct {
	// Src and Dst identify the link by its endpoint device IDs.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// BandwidthFactor in (0,1] is the measured fraction of nominal bandwidth
	// the link currently delivers. 0 means "not measured".
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
}

// Reading is one typed observation: exactly one of Device or Link is set.
type Reading struct {
	Device *DeviceReading `json:"device,omitempty"`
	Link   *LinkReading   `json:"link,omitempty"`
}

// Thresholds configures drift smoothing and the hysteresis bands. The zero
// value selects every default; Normalize fills them in. Trigger and Clear
// bands are multiplicative deviations from the baseline (the state the
// incumbent plan was computed for), applied symmetrically: a device that got
// 1.3x slower and a device that recovered to 1/1.3 of its baseline slowdown
// both count as deviation 1.3, because both make the incumbent plan stale.
type Thresholds struct {
	// Alpha is the EWMA weight of each new reading in (0,1] (default 0.3).
	// Smaller values smooth harder and detect drift later.
	Alpha float64 `json:"alpha,omitempty"`
	// SlowdownTrigger fires the watcher when any device's smoothed slowdown
	// deviates from baseline by more than this factor (default 1.25).
	// SlowdownClear re-arms only once every device is back within this
	// factor (default 1.1); between the two bands the state holds.
	SlowdownTrigger float64 `json:"slowdown_trigger,omitempty"`
	SlowdownClear   float64 `json:"slowdown_clear,omitempty"`
	// LinkTrigger / LinkClear are the same bands for smoothed link bandwidth
	// factors (defaults 1.4 / 1.15 — bandwidth is noisier than compute).
	LinkTrigger float64 `json:"link_trigger,omitempty"`
	LinkClear   float64 `json:"link_clear,omitempty"`
	// MemTrigger / MemClear band the smoothed memory factors
	// (defaults 1.25 / 1.1).
	MemTrigger float64 `json:"mem_trigger,omitempty"`
	MemClear   float64 `json:"mem_clear,omitempty"`
	// Quantum rounds the watcher's exported overlay factors to multiples of
	// itself (default 0.05), so equal drift regimes map to bit-identical
	// overlaid clusters — and therefore to the same warm-cache workload
	// fingerprint. A fully recovered overlay quantizes back to the identity,
	// reattaching replans to the original workload's warm set.
	Quantum float64 `json:"quantum,omitempty"`
	// Cooldown suppresses any new trip until this many further readings have
	// been folded in since the last one, so a metric flapping across the
	// trigger band cannot convert every oscillation into a replan. It is
	// counted in observations, not wall time — the watcher has no clock.
	// 0 disables the window.
	Cooldown int `json:"cooldown,omitempty"`
}

// Normalize returns the thresholds with zero knobs replaced by defaults.
func (t Thresholds) Normalize() Thresholds {
	if t.Alpha == 0 {
		t.Alpha = 0.3
	}
	if t.SlowdownTrigger == 0 {
		t.SlowdownTrigger = 1.25
	}
	if t.SlowdownClear == 0 {
		t.SlowdownClear = 1.1
	}
	if t.LinkTrigger == 0 {
		t.LinkTrigger = 1.4
	}
	if t.LinkClear == 0 {
		t.LinkClear = 1.15
	}
	if t.MemTrigger == 0 {
		t.MemTrigger = 1.25
	}
	if t.MemClear == 0 {
		t.MemClear = 1.1
	}
	if t.Quantum == 0 {
		t.Quantum = 0.05
	}
	return t
}

// Validate rejects thresholds that cannot form a hysteresis band.
func (t Thresholds) Validate() error {
	n := t.Normalize()
	if n.Alpha <= 0 || n.Alpha > 1 {
		return fmt.Errorf("telemetry: alpha must be in (0,1], got %g", n.Alpha)
	}
	for _, band := range []struct {
		name           string
		trigger, clear float64
	}{
		{"slowdown", n.SlowdownTrigger, n.SlowdownClear},
		{"link", n.LinkTrigger, n.LinkClear},
		{"mem", n.MemTrigger, n.MemClear},
	} {
		if band.clear < 1 || band.trigger <= band.clear {
			return fmt.Errorf("telemetry: %s band needs trigger > clear >= 1, got %g/%g",
				band.name, band.trigger, band.clear)
		}
	}
	if n.Quantum <= 0 || n.Quantum > 0.5 {
		return fmt.Errorf("telemetry: quantum must be in (0,0.5], got %g", n.Quantum)
	}
	if n.Cooldown < 0 {
		return fmt.Errorf("telemetry: cooldown must be >= 0, got %d", n.Cooldown)
	}
	return nil
}

// Watcher folds a stream of readings into smoothed per-device and per-link
// drift state and detects when that state has left the hysteresis band
// around the baseline the current plan was computed for.
//
// A Watcher is not safe for concurrent use; callers (the planning service's
// per-job monitor) serialize access with their own lock.
type Watcher struct {
	th Thresholds

	// Smoothed state, indexed like the cluster's Devices and Links.
	slowdown []float64
	linkFac  []float64
	memFac   []float64
	// Baseline: the values the incumbent plan was computed for. Initially
	// all-nominal; Rebase snapshots the smoothed state into it.
	baseSlowdown []float64
	baseLink     []float64
	baseMem      []float64

	tripped bool
	reason  string
	// lastTrip is the observation count when the watcher last fired; the
	// cooldown window measures from here.
	lastTrip uint64
	// counters
	observations uint64
	trips        uint64
}

// NewWatcher builds a watcher for a cluster's shape with the given
// thresholds (zero knobs take defaults). The initial smoothed state and
// baseline are both all-nominal.
func NewWatcher(c *cluster.Cluster, th Thresholds) *Watcher {
	w := &Watcher{
		th:           th.Normalize(),
		slowdown:     ones(c.NumDevices()),
		linkFac:      ones(c.NumLinks()),
		memFac:       ones(c.NumDevices()),
		baseSlowdown: ones(c.NumDevices()),
		baseLink:     ones(c.NumLinks()),
		baseMem:      ones(c.NumDevices()),
	}
	return w
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Observations returns how many individual readings were folded in.
func (w *Watcher) Observations() uint64 { return w.observations }

// linkIndex maps (src, dst) onto the dense link index used by cluster.Links:
// the watcher stores link state positionally, so it needs the same ordering.
// It returns -1 for unknown pairs.
func (w *Watcher) linkIndex(c *cluster.Cluster, src, dst int) int {
	l, err := c.LinkBetween(src, dst)
	if err != nil {
		return -1
	}
	return l.Index
}

// Observe folds a batch of readings into the smoothed state against the
// given cluster (used only to resolve link endpoints to indices) and reports
// whether this batch newly tripped the watcher, with a human-readable reason
// naming the metric that crossed the band. While already tripped, further
// drift never re-fires; Rebase re-arms, and after a trip the Cooldown window
// must also elapse (counted in folded observations) before the next fire.
//
// Malformed readings (out-of-range IDs, non-positive factors) are skipped,
// not fatal: telemetry is advisory, and one bad sensor must not wedge the
// loop.
func (w *Watcher) Observe(c *cluster.Cluster, readings ...Reading) (fired bool, reason string) {
	for _, r := range readings {
		switch {
		case r.Device != nil:
			d := r.Device
			if d.ID < 0 || d.ID >= len(w.slowdown) {
				continue
			}
			if d.Slowdown >= 1 {
				w.slowdown[d.ID] += w.th.Alpha * (d.Slowdown - w.slowdown[d.ID])
				w.observations++
			}
			if d.MemFactor > 0 && d.MemFactor <= 1 {
				w.memFac[d.ID] += w.th.Alpha * (d.MemFactor - w.memFac[d.ID])
				w.observations++
			}
		case r.Link != nil:
			l := r.Link
			if l.BandwidthFactor <= 0 || l.BandwidthFactor > 1 {
				continue
			}
			if i := w.linkIndex(c, l.Src, l.Dst); i >= 0 {
				w.linkFac[i] += w.th.Alpha * (l.BandwidthFactor - w.linkFac[i])
				w.observations++
			}
		}
	}
	if w.tripped {
		return false, w.reason
	}
	if w.th.Cooldown > 0 && w.trips > 0 && w.observations-w.lastTrip < uint64(w.th.Cooldown) {
		// Inside the cooldown window after the previous trip: drift keeps
		// folding into the smoothed state but cannot fire yet.
		return false, ""
	}
	if r := w.deviationPast(trigger); r != "" {
		w.tripped = true
		w.reason = r
		w.trips++
		w.lastTrip = w.observations
		return true, r
	}
	return false, ""
}

// band selects which hysteresis band deviationPast tests against.
type band int

const (
	trigger band = iota
	clear
)

// deviation is the symmetric multiplicative distance between a smoothed
// value and its baseline: max(v/base, base/v), always >= 1.
func deviation(v, base float64) float64 {
	if v <= 0 || base <= 0 {
		return 1
	}
	r := v / base
	if r < 1 {
		r = 1 / r
	}
	return r
}

// deviationPast returns a reason string for the worst metric outside the
// chosen band, or "" when every metric is inside it.
func (w *Watcher) deviationPast(b band) string {
	type lim struct{ trig, clr float64 }
	sd := lim{w.th.SlowdownTrigger, w.th.SlowdownClear}
	lk := lim{w.th.LinkTrigger, w.th.LinkClear}
	mm := lim{w.th.MemTrigger, w.th.MemClear}
	pick := func(l lim) float64 {
		if b == trigger {
			return l.trig
		}
		return l.clr
	}
	worst, reason := 1.0, ""
	for d := range w.slowdown {
		if dev := deviation(w.slowdown[d], w.baseSlowdown[d]); dev > pick(sd) && dev > worst {
			worst = dev
			reason = fmt.Sprintf("device %d slowdown %.2f drifted %.2fx from baseline %.2f (band %.2f)",
				d, w.slowdown[d], dev, w.baseSlowdown[d], pick(sd))
		}
		if dev := deviation(w.memFac[d], w.baseMem[d]); dev > pick(mm) && dev > worst {
			worst = dev
			reason = fmt.Sprintf("device %d memory factor %.2f drifted %.2fx from baseline %.2f (band %.2f)",
				d, w.memFac[d], dev, w.baseMem[d], pick(mm))
		}
	}
	for i := range w.linkFac {
		if dev := deviation(w.linkFac[i], w.baseLink[i]); dev > pick(lk) && dev > worst {
			worst = dev
			reason = fmt.Sprintf("link %d bandwidth factor %.2f drifted %.2fx from baseline %.2f (band %.2f)",
				i, w.linkFac[i], dev, w.baseLink[i], pick(lk))
		}
	}
	return reason
}

// Tripped reports whether a drift episode is in progress (fired and not yet
// rebased).
func (w *Watcher) Tripped() bool { return w.tripped }

// Reason returns the message of the current (or last) trip.
func (w *Watcher) Reason() string { return w.reason }

// quantize rounds v to the nearest multiple of the quantum, clamped to stay
// positive. Values that round to exactly 1 are returned as 1, so a recovered
// metric is indistinguishable from a never-drifted one.
func (w *Watcher) quantize(v float64) float64 {
	q := math.Round(v/w.th.Quantum) * w.th.Quantum
	if q < w.th.Quantum {
		q = w.th.Quantum
	}
	// Kill the float residue of Round(x/q)*q so equal regimes hash equally.
	return math.Round(q*1e9) / 1e9
}

// Overlay snapshots the smoothed drift state as a cluster overlay, quantized
// to the thresholds' Quantum. Slowdowns below 1 clamp to 1 (a device cannot
// beat its nominal speed); factors above 1 clamp to 1 likewise.
func (w *Watcher) Overlay() cluster.Overlay {
	o := cluster.Overlay{
		Slowdown:   make([]float64, len(w.slowdown)),
		LinkFactor: make([]float64, len(w.linkFac)),
		MemFactor:  make([]float64, len(w.memFac)),
	}
	for d := range w.slowdown {
		o.Slowdown[d] = math.Max(1, w.quantize(w.slowdown[d]))
		o.MemFactor[d] = math.Min(1, w.quantize(w.memFac[d]))
	}
	for i := range w.linkFac {
		o.LinkFactor[i] = math.Min(1, w.quantize(w.linkFac[i]))
	}
	return o
}

// Rebase adopts the current smoothed state as the new baseline — called once
// a replan has produced (or re-confirmed) a plan for the drifted cluster —
// and re-arms the watcher if the state sits inside the clear band of the new
// baseline (immediately true right after a rebase, since every deviation
// resets to 1). The clear band only keeps the watcher tripped in the
// pathological case of state still moving fast between Rebase and the next
// Observe.
func (w *Watcher) Rebase() {
	copy(w.baseSlowdown, w.slowdown)
	copy(w.baseLink, w.linkFac)
	copy(w.baseMem, w.memFac)
	if w.deviationPast(clear) == "" {
		w.tripped = false
		w.reason = ""
	}
}

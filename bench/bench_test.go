package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/telemetry"
)

func TestNearestRankAndTailRule(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := nearestRank(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := nearestRank(xs, 75); got != 8 {
		t.Errorf("p75 = %v, want 8 (rank ceil(7.5) = 8)", got)
	}
	if got := nearestRank(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("p50 of no samples should be NaN")
	}
	// p75 of 48 samples is the 36th: 12 samples lie beyond it; 39 samples
	// leave only 9, too few to report p75.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{48, 75, 12}, {40, 75, 10}, {39, 75, 9}, {20, 50, 10}, {18, 50, 9}, {1, 50, 0}} {
		if got := beyondRank(c.n, c.p); got != c.beyond {
			t.Errorf("beyondRank(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestGeomeanAndFailureAccounting(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1, 4) = %v, want 2", g)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean of a non-positive value or of nothing should be NaN")
	}
	// Repeating the same plans reads bit-identically however often they
	// repeat.
	plans := []float64{0.2166374163, 0.1381620378, 0.2772916965}
	var repeated []float64
	for k := 1; k <= 13; k++ {
		repeated = append(repeated, plans...)
		if g, want := geomean(repeated), geomean(plans); g != want {
			t.Errorf("geomean of %d repeats = %v, of one = %v", k, g, want)
		}
	}

	ops := []op{
		{class: "a", timed: true, latency: time.Second, perIter: 1},
		{class: "a", timed: true, latency: 3 * time.Second, perIter: 4},
		{class: "b", timed: true, err: "job failed"},
		{class: "killed", timed: false, latency: time.Hour, perIter: 100},
	}
	var a accounting
	a.count(ops)
	a.miss("plan of %s did not re-evaluate", "a")
	if a.attempted != 4 || a.failed != 2 || len(a.misses) != 1 {
		t.Fatalf("accounting = %+v, want 4 attempted, 2 failed, 1 miss", a)
	}

	m := endToEnd(ops, 4*time.Second, []float64{0.3, 0.1, 0.2}, []float64{100, 300})
	want := map[string]float64{
		"plans_per_s":   0.5, // two successful timed ops in 4 s; failed and untimed ops do not count
		"latency_p50_s": 2,
		"plan_iter_s":   2,
		"setup_s":       0.2,
		"peak_rss_mb":   300,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(metricUnits) {
		t.Errorf("endToEnd returns %d metrics, metricUnits lists %d", len(m), len(metricUnits))
	}

	// Classes weigh the same however many of their ops a run holds: three
	// fast ops of one class and one slow op of another put the median
	// halfway between them, and plan quality is the geometric mean of the
	// two classes.
	mixed := []op{
		{class: "fast", timed: true, latency: time.Second, perIter: 1},
		{class: "fast", timed: true, latency: time.Second, perIter: 1},
		{class: "fast", timed: true, latency: time.Second, perIter: 1},
		{class: "slow", timed: true, latency: 5 * time.Second, perIter: 4},
	}
	m = endToEnd(mixed, 8*time.Second, []float64{1}, nil)
	if m["latency_p50_s"] != 3 || math.Abs(m["plan_iter_s"]-2) > 1e-12 || m["plans_per_s"] != 0.5 {
		t.Errorf("class-weighted metrics = %v, want latency 3, plan_iter 2, 0.5 plans/s", m)
	}
	for _, c := range []struct {
		xs, ws []float64
		want   float64
	}{
		{[]float64{10, 1, 3, 2}, []float64{1, 1, 1, 1}, 2.5},
		{[]float64{3, 1, 2}, []float64{1, 1, 1}, 2},
		{[]float64{1, 5, 6}, []float64{1, 1, 3}, 6},
	} {
		if got := weightedMedian(c.xs, c.ws); got != c.want {
			t.Errorf("weightedMedian(%v, %v) = %v, want %v", c.xs, c.ws, got, c.want)
		}
	}
}

func TestJobListsAreSeeded(t *testing.T) {
	list := func(seed int64) []cli.Spec {
		blocks := coldBlocks(seed)
		var out []cli.Spec
		for b := 0; b < 3; b++ {
			out = append(out, blocks(b)...)
		}
		return out
	}
	a, b, c := list(1), list(1), list(2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different cold-mix lists")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds gave identical cold-mix lists")
	}
	pairs := make(map[string]bool)
	seeds := make(map[int64]bool)
	for _, s := range a {
		pairs[classOf(s)] = true
		seeds[s.Seed] = true
	}
	if len(pairs) != len(coldModels)*len(coldGPUs) || len(seeds) != len(a) {
		t.Errorf("three cold-mix blocks cover %d (model, testbed) pairs with %d distinct seeds; want 18 and %d", len(pairs), len(seeds), len(a))
	}
	// The fourth block repeats the first block's jobs on a fresh server.
	blocks := coldBlocks(1)
	first, fourth := blocks(0), blocks(3)
	same := make(map[string]bool)
	for _, s := range first {
		same[fmt.Sprint(s)] = true
	}
	for _, s := range fourth {
		if !same[fmt.Sprint(s)] {
			t.Errorf("block 3 job %v is not one of block 0's jobs", s)
		}
	}

	perms := func(seed int64) string {
		next := rounds(seed, 8)
		return fmt.Sprint(next(), next(), next())
	}
	if perms(3) != perms(3) || perms(3) == perms(4) {
		t.Error("round orders are not a function of the seed")
	}

	sessions := func(seed int64) string {
		g := durableSessions(seed)
		var sb strings.Builder
		for i := 0; i < 6; i++ {
			s := g.next()
			fmt.Fprintf(&sb, "%s/%d/%d ", s.spec.Model, s.spec.Seed, s.traceSeed)
		}
		return sb.String() + fmt.Sprint(g.kill(1).Seed)
	}
	if sessions(1) != sessions(1) || sessions(1) == sessions(2) {
		t.Error("durable-drift sessions are not a function of the seed")
	}
}

func TestParseGCTraceAndVmHWM(t *testing.T) {
	st, ok := parseGCTrace("gc 12 @1.234s 3%: 0.014+0.31+0.003 ms clock, 0.028+0.12/0.25/0.31+0.007 ms cpu, 4->4->0 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || st.Cycles != 12 || st.CPUPct != 3 {
		t.Errorf("parseGCTrace = %+v, %v; want cycle 12 at 3%%", st, ok)
	}
	for _, line := range []string{"heterog-serve listening on 127.0.0.1:1", "gc x @1s 3%:", "gc 1 @1s three%:", ""} {
		if _, ok := parseGCTrace(line); ok {
			t.Errorf("parseGCTrace accepted %q", line)
		}
	}

	// The log arrives in arbitrary chunks; lines split across writes still
	// parse, and everything reaches the log file.
	var logged bytes.Buffer
	g := &gcLog{w: &logged}
	text := "gc 1 @0.1s 1%: x\ngc 2 @0.2s 2%: y\nlog line\ngc 3 @0.3s"
	for _, chunk := range []string{text[:25], text[25:]} {
		if _, err := g.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if g.stats() != (gcStats{Cycles: 2, CPUPct: 2}) || logged.String() != text {
		t.Errorf("gc log = %+v, logged %q; want cycle 2 at 2%%", g.stats(), logged.String())
	}

	status := []byte("Name:\theterog-serve\nVmPeak:\t 2000000 kB\nVmHWM:\t  1048576 kB\nVmRSS:\t  524288 kB\n")
	if mb, err := parseVmHWM(status); err != nil || mb != 1024 {
		t.Errorf("parseVmHWM = %v, %v; want 1024 MiB", mb, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t1 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM accepted %q", bad)
		}
	}
}

func TestLeaseViewRebuildsShape(t *testing.T) {
	fleet := cluster.Testbed64()
	for _, devs := range [][]int{
		fleet.Servers[5].Devices,
		append(append([]int(nil), fleet.Servers[2].Devices...), fleet.Servers[13].Devices...),
		append(append([]int(nil), fleet.Servers[6].Devices...), fleet.Servers[9].Devices...),
	} {
		v, err := fleet.ViewOf(devs...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := leaseView(fleet, v.Name)
		if err != nil {
			t.Fatalf("leaseView(%q): %v", v.Name, err)
		}
		if got.Name != v.Name || got.NumDevices() != v.NumDevices() {
			t.Errorf("leaseView(%q) = %q with %d devices", v.Name, got.Name, got.NumDevices())
		}
	}
	for _, bad := range []string{"testbed-8gpu", "view[]", "view[4xTesla V100@10G]", "view[9xTesla V100@100G]"} {
		if _, err := leaseView(fleet, bad); err == nil {
			t.Errorf("leaseView accepted %q", bad)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the harness
// prints, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit, Better string }
		printed  map[string]string
	}{{spec.EndToEnd, metricUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, the harness prints %d", len(c.declared), len(c.printed))
		}
		for _, m := range c.declared {
			if unit, ok := c.printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %s (%s): harness prints unit %q (printed: %v)", m.Name, m.Unit, unit, ok)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		want         string
	}{
		{"same runs", base, base, false, "unchanged"},
		{"5% faster", base, shift(0.95), false, "improved"},
		{"15% slower", base, shift(1.15), false, "regressed"},
		{"15% more throughput", base, shift(1.15), true, "improved"},
		{"5% less throughput", base, shift(0.95), true, "unchanged"},
		{"spread wider than the bound", noisy, noisy, false, "unresolved"},
	} {
		if got := compareMetric(c.base, c.head, c.higherBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// smokeEnv runs workloads against in-process servers for at most two timed
// ops each.
func smokeEnv(t *testing.T, seed int64) *runEnv {
	return &runEnv{
		ctx: context.Background(), launch: inprocLauncher{}, seed: seed,
		seconds: time.Minute, maxOps: 2, dir: t.TempDir(),
	}
}

// checkRun requires at least two timed ops, no failures and every
// end-to-end metric but the process ones measured.
func checkRun(t *testing.T, r *run) {
	t.Helper()
	r.acct.count(r.ops)
	if r.timedOps() < 2 || r.acct.failed != 0 {
		t.Fatalf("%d timed ops, %d failed: %v %+v", r.timedOps(), r.acct.failed, r.acct.misses, r.ops)
	}
	m := endToEnd(r.ops, r.elapsed, r.setups, r.rss)
	for _, k := range []string{"plans_per_s", "latency_p50_s", "plan_iter_s", "setup_s"} {
		if v := m[k]; math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v", k, v)
		}
	}
}

func tiny(model string, gpus int) cli.Spec {
	return cli.Spec{Model: model, Batch: 64, GPUs: gpus, Seed: 1, Episodes: 1}
}

func TestSmokeColdMixTraced(t *testing.T) {
	env := smokeEnv(t, 1)
	env.tr = &tracer{}
	r, err := coldMix(env, func(int) []cli.Spec { return []cli.Spec{tiny("vgg19", 4), tiny("mobilenet_v2", 4)} })
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, r)
	probes, err := runProbes(r, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	layers, _ := r.layerMetrics(probes)
	res := &result{Workload: "cold-mix", Traced: true, Layers: layers, Correct: true, Attempted: 2}
	var out bytes.Buffer
	if err := printLine(&out, res); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(layerUnits) {
		t.Errorf("traced line has %d metrics, want %d", len(line.Metrics), len(layerUnits))
	}
	sum := summarize(env.tr.snapshot())
	for _, name := range []string{"Submit", "Wait", "Report", "queue", "plan"} {
		if sum[name].Count != 2 {
			t.Errorf("%d %s spans, want 2", sum[name].Count, name)
		}
	}
	for _, sp := range env.tr.snapshot() {
		if sp.Name != "workload cold-mix" && sp.Job == "" {
			t.Errorf("span %s (%d) has no job ID", sp.Name, sp.ID)
		}
	}
}

func TestSmokeWarmRepeat(t *testing.T) {
	r, err := warmRepeat(smokeEnv(t, 1), []cli.Spec{tiny("vgg19", 4)})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, r)
}

func TestSmokeFleetLease(t *testing.T) {
	r, err := fleetLease(smokeEnv(t, 1), []cli.Spec{tiny("vgg19", 4), tiny("mobilenet_v2", 8)})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, r)
}

func TestSmokeDurableDrift(t *testing.T) {
	spec := cli.Spec{Model: "vgg19", Batch: 64, GPUs: 8, Seed: 1, Episodes: 1,
		Telemetry: &telemetry.Thresholds{Quantum: 0.5}}
	gen := sessionGen{
		next: func() session { return session{spec: spec, traceSeed: 7} },
		kill: func(i int) cli.Spec { s := spec; s.Model, s.Seed = "mobilenet_v2", int64(100+i); return s },
	}
	r, err := durableDrift(smokeEnv(t, 1), gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, r)
	if len(r.setups) != 1 {
		t.Errorf("%d restarts, want 1", len(r.setups))
	}
	if r.layers["telemetry.replans_per_session"] <= 0 {
		t.Errorf("no replan in the session: %v", r.layers)
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// op is one plan-ready operation as the client saw it: a job going from
// submit to done, or (durable-drift) an automatic replan going from the
// telemetry push that fired it to its terminal event.
type op struct {
	// class names the op's workload class ("vgg19/8", "replan/mobilenet_v2").
	class string
	// timed marks ops inside a timed phase; the in-flight job of a
	// kill-and-restart is checked but not timed.
	timed   bool
	latency time.Duration
	// perIter is the simulated per-iteration time of the plan the op
	// returned (0 for failed ops).
	perIter float64
	// err is the failure, "" for a successful op.
	err string
	// job is the server-side job that did the planning.
	job string
	// queueWait, planSec and overhead split the latency (zero when the op's
	// job status was not fetched): submitted→started, plan_sec, and client
	// latency minus the server's submitted→finished time.
	queueWait, overhead time.Duration
	planSec             float64
}

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the samples at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// beyondRank counts the samples strictly above the nearest-rank p-th
// percentile of n samples. A percentile is worth reporting only when at
// least ten samples lie beyond it.
func beyondRank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		return 0
	}
	return n - k
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method), so spreads printed here match
// spreads computed from the same values elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive values (NaN when empty or when a
// value is not positive). It sums the logs of the distinct values, in order,
// each weighted by its share of the samples: a run that returns the same
// plans k times then reads bit-identically for every k.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	count := make(map[float64]int)
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		count[x]++
	}
	distinct := make([]float64, 0, len(count))
	for x := range count {
		distinct = append(distinct, x)
	}
	sort.Float64s(distinct)
	var sum float64
	for _, x := range distinct {
		sum += float64(count[x]) / float64(len(xs)) * math.Log(x)
	}
	return math.Exp(sum)
}

// accounting counts what one run attempted and what failed: failed timed or
// checked ops, refused submissions, jobs lost on a restart and every output
// check that missed.
type accounting struct {
	attempted int
	failed    int
	misses    []string
}

// miss records a failed output check or a lost op.
func (a *accounting) miss(format string, args ...any) {
	a.failed++
	a.misses = append(a.misses, fmt.Sprintf(format, args...))
}

// count folds ops into the accounting.
func (a *accounting) count(ops []op) {
	for _, o := range ops {
		a.attempted++
		if o.err != "" {
			a.failed++
		}
	}
}

// latencies returns the latencies, in seconds, of the successful timed ops.
func latencies(ops []op) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.timed && o.err == "" {
			lat = append(lat, o.latency.Seconds())
		}
	}
	return lat
}

// weightedMedian is the value at which the cumulative weight of the sorted
// values reaches half the total (the mean of the two values around an exact
// half); with equal weights it is the median.
func weightedMedian(xs, ws []float64) float64 {
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	if len(xs) == 0 || total <= 0 {
		return math.NaN()
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	acc := 0.0
	for k, i := range idx {
		acc += ws[i]
		if math.Abs(acc-total/2) <= 1e-9*total && k+1 < len(idx) {
			return (xs[i] + xs[idx[k+1]]) / 2
		}
		if acc >= total/2 {
			return xs[i]
		}
	}
	return xs[idx[len(idx)-1]]
}

// endToEnd computes the client-facing metrics of one workload run from its
// timed ops, the timed wall time, the set-up samples and the peak RSS of each
// server process.
//
// Latency and plan quality weigh every op class (a model on a testbed, or
// the replans of one model) the same, however many of its ops fit in the
// run: a run's mix then does not move with its speed or its seed, only with
// the ops themselves. Latency is reported as the median only: every
// workload reports the same metrics, and cold-mix completes only 24 to 30
// ops per run, too few for a p75 with ten samples beyond it.
func endToEnd(ops []op, timed time.Duration, setups, rssMB []float64) map[string]float64 {
	byClass := make(map[string][]op)
	done := 0
	for _, o := range ops {
		if o.timed && o.err == "" {
			byClass[o.class] = append(byClass[o.class], o)
			done++
		}
	}
	var lat, weights, classIters []float64
	for _, c := range sortedKeys(byClass) {
		var iters []float64
		for _, o := range byClass[c] {
			lat = append(lat, o.latency.Seconds())
			weights = append(weights, 1/float64(len(byClass[c])))
			iters = append(iters, o.perIter)
		}
		classIters = append(classIters, geomean(iters))
	}
	peak := 0.0
	for _, r := range rssMB {
		peak = math.Max(peak, r)
	}
	return map[string]float64{
		"plans_per_s":   float64(done) / timed.Seconds(),
		"latency_p50_s": weightedMedian(lat, weights),
		"plan_iter_s":   geomean(classIters),
		"setup_s":       median(setups),
		"peak_rss_mb":   peak,
	}
}

// metricUnits are the units of the end-to-end metrics, as BENCHMARK.json
// declares them.
var metricUnits = map[string]string{
	"plans_per_s":   "1/s",
	"latency_p50_s": "s",
	"plan_iter_s":   "s",
	"setup_s":       "s",
	"peak_rss_mb":   "MiB",
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// compareMain implements `bench compare -base A.json... -head B.json...`:
// for every (workload, metric) pairing it prints each side's median and
// quartiles, how many pairs the head won, and a verdict by the rules the
// benchmark is judged by:
//
//   - improved: the head wins at least nine tenths of the pairs (ties count
//     for neither side) and its median is better than the base's by more
//     than the base runs' own quartile spread;
//   - regressed: the head's median is worse than the base's by more than the
//     metric's bound in BENCHMARK.json;
//   - unresolved: neither, but the base runs spread wider than the bound,
//     and not every head run reads better than every base run;
//   - unchanged: otherwise.
//
// Runs pair up in the order given. The exit code is 1 when any pairing
// regressed.
func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bench := fl.String("benchmark", "", "BENCHMARK.json with the metrics' bounds (default: the repository root's)")
	// -base and -head each take every file up to the next flag:
	// `-base a.json b.json -head c.json d.json`.
	var base, head []string
	var cur *[]string
	var flagArgs []string
	for _, a := range args {
		switch a {
		case "-base", "--base":
			cur = &base
		case "-head", "--head":
			cur = &head
		default:
			if cur != nil && len(a) > 0 && a[0] != '-' {
				*cur = append(*cur, a)
				continue
			}
			cur = nil
			flagArgs = append(flagArgs, a)
		}
	}
	if err := fl.Parse(flagArgs); err != nil {
		return 2
	}
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(os.Stderr, "bench compare: need -base and -head result files")
		return 2
	}
	spec, err := readBenchmark(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	br, err := readRuns(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	hr, err := readRuns(head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	bv, hv := byWorkload(br), byWorkload(hr)
	code := 0
	fmt.Fprintf(w, "%-14s %-14s %-30s %-30s %-7s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, wl := range sortedKeys(bv) {
		for _, m := range spec.EndToEnd {
			b, h := bv[wl][m.Name], hv[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			c := compareMetric(b, h, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-14s %-14s %-30s %-30s %-7s %s\n", wl, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.baseMed, c.baseQ1, c.baseQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", c.headMed, c.headQ1, c.headQ3),
				fmt.Sprintf("%d/%d", c.won, c.pairs), c.verdict)
			if c.verdict == "regressed" {
				code = 1
			}
		}
	}
	return code
}

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBenchmark reads BENCHMARK.json from path, or from the repository root
// when path is empty.
func readBenchmark(path string) (*benchmarkSpec, error) {
	if path == "" {
		root, err := repoRoot("")
		if err != nil {
			return nil, err
		}
		path = filepath.Join(root, "BENCHMARK.json")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns reads the runs of the result files, in file order. A traced
// run's end-to-end metrics are there too, so comparing traced against
// untraced runs measures the tracing overhead.
func readRuns(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		rf, err := readResultFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rf.Runs...)
	}
	return out, nil
}

// byWorkload groups the runs' metric values by workload and metric.
func byWorkload(runs []result) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out
}

// comparison is the outcome for one (workload, metric) pairing.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	won, pairs              int
	verdict                 string
}

// compareMetric applies the verdict rules to one metric's base and head
// values.
func compareMetric(base, head []float64, higherBetter bool, bound float64) comparison {
	c := comparison{baseMed: median(base), headMed: median(head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		if better(head[i], base[i]) {
			c.won++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	worse := c.headMed - c.baseMed // how much worse the head reads
	if higherBetter {
		worse = -worse
	}
	spread := (c.baseQ3 - c.baseQ1) / math.Abs(c.baseMed)
	switch {
	case 10*c.won >= 9*c.pairs && -worse > c.baseQ3-c.baseQ1:
		c.verdict = "improved"
	case worse > bound*math.Abs(c.baseMed):
		c.verdict = "regressed"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// baselineMain implements `bench baseline [-benchmark B.json] FILES...`: it
// prints, as JSON, every run's end-to-end metrics per workload and seed, and for the seed with the most runs their median, quartiles and
// spread (quartile distance over the median) next to the metric's bound.
func baselineMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("bench baseline", flag.ContinueOnError)
	bench := fl.String("benchmark", "", "BENCHMARK.json with the metrics' bounds (default: the repository root's)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, err := readBenchmark(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline:", err)
		return 2
	}
	type metricBase struct {
		Unit   string              `json:"unit"`
		Bound  float64             `json:"bound"`
		Values map[int64][]float64 `json:"values_by_seed"`
		Seed   int64               `json:"seed"`
		Median float64             `json:"median"`
		Q1     float64             `json:"q1"`
		Q3     float64             `json:"q3"`
		Spread float64             `json:"spread"`
	}
	type workloadBase struct {
		Runs    map[int64]int          `json:"runs_by_seed"`
		Ops     map[int64][]int        `json:"ops_by_seed"`
		Metrics map[string]*metricBase `json:"metrics"`
	}
	out := struct {
		Env       envStamp                 `json:"env"`
		Workloads map[string]*workloadBase `json:"workloads"`
	}{Workloads: make(map[string]*workloadBase)}
	runs, err := readRuns(fl.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline:", err)
		return 2
	}
	for _, r := range runs {
		out.Env = r.Env
		out.Env.Servers = nil
		wb := out.Workloads[r.Workload]
		if wb == nil {
			wb = &workloadBase{Runs: map[int64]int{}, Ops: map[int64][]int{}, Metrics: map[string]*metricBase{}}
			out.Workloads[r.Workload] = wb
		}
		wb.Runs[r.Seed]++
		wb.Ops[r.Seed] = append(wb.Ops[r.Seed], r.Ops)
		for _, m := range spec.EndToEnd {
			mb := wb.Metrics[m.Name]
			if mb == nil {
				mb = &metricBase{Unit: m.Unit, Bound: m.Bound, Values: map[int64][]float64{}}
				wb.Metrics[m.Name] = mb
			}
			mb.Values[r.Seed] = append(mb.Values[r.Seed], r.Metrics[m.Name])
		}
	}
	for _, wb := range out.Workloads {
		var seed int64
		for s, n := range wb.Runs {
			if n > wb.Runs[seed] || (n == wb.Runs[seed] && s < seed) {
				seed = s
			}
		}
		for _, mb := range wb.Metrics {
			xs := mb.Values[seed]
			mb.Seed, mb.Median = seed, median(xs)
			mb.Q1, mb.Q3 = quartiles(xs)
			mb.Spread = (mb.Q3 - mb.Q1) / math.Abs(mb.Median)
		}
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline:", err)
		return 2
	}
	fmt.Fprintf(w, "%s\n", raw)
	return 0
}

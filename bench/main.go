// Command bench is the planning service's benchmark. For each workload it
// builds cmd/heterog-serve, runs it as a subprocess, drives it over HTTP
// through service.Client from one closed-loop client, checks the returned
// plans, and prints every end-to-end metric. A traced run (-trace 1) records
// spans around each client call, times each layer's public functions on the
// workload's own inputs, and prints the per-layer metrics instead.
//
// Run it from the repository root through bench/run.sh, which keeps the Go
// build cache inside the checkout:
//
//	bash bench/run.sh -workload cold-mix -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {"latency_p50_s": {"value": 0.61, "unit": "s"}, ...}}
//
// `bench compare -base A.json... -head B.json...` compares result files, and
// `bench baseline FILES...` summarizes them (see compare.go).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "baseline":
			os.Exit(baselineMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// result is one workload run, as written to a result file.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	TimedSec float64 `json:"timed_sec"`
	Ops      int     `json:"ops"`
	// BeyondMedian counts the latency samples above the median; a
	// percentile needs ten beyond it to be worth reporting.
	BeyondMedian int                `json:"samples_beyond_median"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	Misses       []string           `json:"misses,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Env    envStamp           `json:"env"`
	// OpLog lists every op in the order it ran.
	OpLog []opLog `json:"op_log"`
}

// opLog is one op in a result file.
type opLog struct {
	Class   string  `json:"class"`
	Job     string  `json:"job,omitempty"`
	Timed   bool    `json:"timed"`
	Latency float64 `json:"latency_s"`
	PerIter float64 `json:"per_iter_s,omitempty"`
	Err     string  `json:"error,omitempty"`
}

// resultFile is the content of one result file.
type resultFile struct {
	Runs []result `json:"runs"`
}

// envStamp records where and on what a run was measured.
type envStamp struct {
	Commit       string       `json:"commit"`
	SourceSHA256 string       `json:"source_sha256"`
	GoVersion    string       `json:"go_version"`
	NProc        int          `json:"nproc"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	CPUModel     string       `json:"cpu_model"`
	StartedAt    string       `json:"started_at"`
	Servers      []procRecord `json:"servers"`
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fl.String("workload", "all", "workload to run: cold-mix, warm-repeat, fleet-lease, durable-drift, or all")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same job lists")
	seconds := fl.Float64("seconds", 20, "timed seconds per workload; whole blocks or rounds of jobs run until they have passed")
	trace := fl.Int("trace", 0, "1 = traced run: per-layer metrics, trace.json and layers.json")
	traceDir := fl.String("trace-dir", "", "directory for trace.json and layers.json (default .bench_build/trace/<workload>-s<seed>)")
	root := fl.String("root", "", "repository root (default: the current directory, or its parent when run from bench/)")
	out := fl.String("out", "", "result file (default .bench_build/results/<time>-<workload>-s<seed>.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rootDir, err := repoRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := filepath.Join(rootDir, ".bench_build")
	bin := filepath.Join(build, "bin", "heterog-serve")
	if err := buildServer(ctx, rootDir, bin); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := stamp(rootDir)
	var results []result
	code := 0
	for _, w := range todo {
		res, err := runWorkload(ctx, w, runOpts{
			build: build, bin: bin, seed: *seed,
			seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, traceDir: *traceDir, env: env,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, *res)
		if err := printLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			for _, m := range res.Misses {
				fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, m)
			}
			code = 1
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(build, "results", fmt.Sprintf("%s-%s-s%d.json", time.Now().UTC().Format("20060102T150405.000000000"), *name, *seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = writeJSON(path, resultFile{Runs: results})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: write result file:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return code
}

// repoRoot resolves the repository root: the given directory, or the
// current directory when it holds cmd/heterog-serve, or its parent.
func repoRoot(dir string) (string, error) {
	cands := []string{dir}
	if dir == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		if fi, err := os.Stat(filepath.Join(c, "cmd", "heterog-serve")); err == nil && fi.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no cmd/heterog-serve here or in the parent directory; run from the repository root or pass -root")
}

// buildServer builds cmd/heterog-serve from the checkout's source.
func buildServer(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/heterog-serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build heterog-serve: %w", err)
	}
	return nil
}

type runOpts struct {
	build, bin string
	seed       int64
	seconds    time.Duration
	traced     bool
	traceDir   string
	env        envStamp
}

// runWorkload runs one workload against heterog-serve processes and turns
// the run into a result: end-to-end metrics always, per-layer metrics, the
// trace and layers.json when traced.
func runWorkload(ctx context.Context, w workload, o runOpts) (*result, error) {
	dir := filepath.Join(o.build, "run", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &procLauncher{bin: o.bin, logDir: dir}
	env := &runEnv{ctx: ctx, launch: l, seed: o.seed, seconds: o.seconds, gcTrace: o.traced, dir: dir}
	if o.traced {
		env.tr = &tracer{}
	}
	t0 := time.Now()
	r, err := w.run(env)
	if err != nil {
		return nil, fmt.Errorf("%w (server logs in %s)", err, dir)
	}
	env.tr.close(r.root, nil)
	res := r.result(w.name, o)
	res.Env = o.env
	res.Env.Servers = l.records()
	logf("bench: %s: %d timed ops in %.1fs (run %.1fs), %d attempted, %d failed",
		w.name, res.Ops, res.TimedSec, time.Since(t0).Seconds(), res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		logf("  %-14s %12.6g %s", k, res.Metrics[k], metricUnits[k])
	}
	if o.traced {
		if err := r.writeTraced(res, o, dir); err != nil {
			return nil, err
		}
	}
	if res.Correct {
		_ = os.RemoveAll(dir)
	} else {
		logf("bench: %s: kept server logs in %s", w.name, dir)
	}
	return res, nil
}

// result computes the run's metrics and accounting.
func (r *run) result(name string, o runOpts) *result {
	r.acct.count(r.ops)
	res := &result{
		Workload: name, Seed: o.seed, Traced: o.traced, Seconds: o.seconds.Seconds(),
		TimedSec:  r.elapsed.Seconds(),
		Ops:       r.timedOps(),
		Attempted: r.acct.attempted,
		Failed:    r.acct.failed,
		Misses:    r.acct.misses,
		Metrics:   endToEnd(r.ops, r.elapsed, r.setups, r.rss),
	}
	res.BeyondMedian = beyondRank(len(latencies(r.ops)), 50)
	for _, op := range r.ops {
		if op.err != "" {
			res.Misses = append(res.Misses, fmt.Sprintf("op %s (%s): %s", op.class, op.job, op.err))
		}
		res.OpLog = append(res.OpLog, opLog{Class: op.class, Job: op.job, Timed: op.timed,
			Latency: op.latency.Seconds(), PerIter: op.perIter, Err: op.err})
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && res.Ops > 0
	return res
}

// writeTraced runs the probes and writes trace.json and layers.json.
func (r *run) writeTraced(res *result, o runOpts, workDir string) error {
	probes, err := runProbes(r, workDir)
	if err != nil {
		return err
	}
	layers, extra := r.layerMetrics(probes)
	res.Layers = layers
	dir := o.traceDir
	if dir == "" {
		dir = filepath.Join(o.build, "trace", fmt.Sprintf("%s-s%d", res.Workload, res.Seed))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := r.env.tr.snapshot()
	if err := writeChromeTrace(filepath.Join(dir, "trace.json"), spans); err != nil {
		return err
	}
	overhead := tracingOverhead(filepath.Join(o.build, "results"), res)
	doc := map[string]any{
		"workload":         res.Workload,
		"seed":             res.Seed,
		"per_layer":        layers,
		"workload_layers":  extra,
		"end_to_end":       res.Metrics,
		"tracing_overhead": overhead,
		"spans":            summarize(spans),
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), doc); err != nil {
		return err
	}
	logf("bench: %s: wrote %s/trace.json and layers.json", res.Workload, dir)
	for _, k := range sortedKeys(overhead) {
		logf("  tracing overhead %-14s %+6.1f%%", k, 100*overhead[k])
	}
	return nil
}

// tracingOverhead compares a traced run's end-to-end metrics with the
// latest untraced result of the same workload and seed in dir: the relative
// change of each metric (positive = the traced run read higher). Empty when
// no untraced result is there.
func tracingOverhead(dir string, traced *result) map[string]float64 {
	var best *result
	var bestTime string
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return nil
		}
		rf, err := readResultFile(path)
		if err != nil {
			return nil
		}
		for i := range rf.Runs {
			u := &rf.Runs[i]
			if !u.Traced && u.Workload == traced.Workload && u.Seed == traced.Seed && u.Env.StartedAt > bestTime {
				best, bestTime = u, u.Env.StartedAt
			}
		}
		return nil
	})
	out := make(map[string]float64)
	if best == nil {
		return out
	}
	for k, v := range traced.Metrics {
		if base, ok := best.Metrics[k]; ok && base != 0 {
			out[k] = v/base - 1
		}
	}
	return out
}

// printLine prints the one-line JSON result: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func printLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	src, units := res.Metrics, metricUnits
	if res.Traced {
		src, units = res.Layers, layerUnits
	}
	for k, unit := range units {
		v, ok := src[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s not measured", res.Workload, k)
		}
		metrics[k] = value{v, unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// stamp records the environment: commit (when the checkout is a git
// repository), a hash of the Go sources, toolchain and CPU.
func stamp(root string) envStamp {
	e := envStamp{
		Commit:       "unknown",
		SourceSHA256: sourceHash(root),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		StartedAt:    time.Now().UTC().Format(time.RFC3339Nano),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// sourceHash hashes go.mod and every .go file under root outside
// .bench_build, in path order: it names the code a run measured even when
// the checkout is not a git repository.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logf writes a progress line to standard error; standard output carries
// only the result lines.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

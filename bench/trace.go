package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"heterog/internal/core"
	"heterog/internal/service"
)

// span is one interval of the traced run. Client spans wrap the harness's
// calls into the service; server spans are rebuilt from a job's own
// timestamps. Spans of one op share its job ID.
type span struct {
	ID, Parent int
	Name       string
	Job        string
	Server     bool
	Start, End time.Time
	Err        string
	Args       map[string]any
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// open starts a client span under parent (0 = root) and returns its ID.
func (t *tracer) open(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// close ends a span opened by open.
func (t *tracer) close(id int, err error) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = time.Now()
	if err != nil {
		sp.Err = err.Error()
	}
}

// setJob tags a span (and, when written, its descendants) with a job ID.
func (t *tracer) setJob(id int, job string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Job = job
}

// call runs fn inside a client span named name.
func (t *tracer) call(parent int, name string, fn func() error) error {
	id := t.open(parent, name)
	err := fn()
	t.close(id, err)
	return err
}

// add records a finished server span.
func (t *tracer) add(parent int, name, job string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		Server: true, Start: start, End: end, Args: args})
}

// jobSpans adds a job's queue and plan spans under the op that waited for
// it. The plan span carries the report's per-pass totals as counters; its
// self time is plan_sec minus those totals, which leaves the agent, the
// heuristics and simulation.
func (t *tracer) jobSpans(parent int, st *service.JobStatus, pipe *core.PipelineReport) {
	if t == nil || st == nil || st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	t.add(parent, "queue", st.ID, st.SubmittedAt, *st.StartedAt, nil)
	args := map[string]any{"plan_sec": st.PlanSec}
	if pipe != nil {
		passSec := 0.0
		for _, ps := range pipe.Passes {
			args["pass."+ps.Name+"_ms"] = float64(ps.Total) / 1e6
			passSec += ps.Total.Seconds()
		}
		args["lowerings"] = pipe.Lowerings
		args["reused"] = pipe.Reused
		args["self_ms"] = (st.PlanSec - passSec) * 1e3
	}
	t.add(parent, "plan", st.ID, *st.StartedAt, *st.FinishedAt, args)
}

// snapshot copies the spans with every span's job ID inherited from its
// nearest tagged ancestor.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range out {
		if out[i].Job == "" && out[i].Parent != 0 {
			out[i].Job = out[out[i].Parent-1].Job
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): client spans on the harness track, server
// spans on the server track, timestamps relative to the first span.
func writeChromeTrace(path string, spans []span) error {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "benchmark client"}},
		{Name: "process_name", Ph: "M", PID: 2, Args: map[string]any{"name": "heterog-serve (job timestamps)"}},
	}
	var t0 time.Time
	for _, sp := range spans {
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	for _, sp := range spans {
		args := map[string]any{"span_id": sp.ID, "parent": sp.Parent}
		if sp.Job != "" {
			args["job"] = sp.Job
		}
		if sp.Err != "" {
			args["error"] = sp.Err
		}
		for k, v := range sp.Args {
			args[k] = v
		}
		pid := 1
		if sp.Server {
			pid = 2
		}
		evs = append(evs, chromeEvent{
			Name: sp.Name, Ph: "X", PID: pid, TID: 1, Args: args,
			TS:  float64(sp.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize totals each span name's time and self time: a span's duration
// minus the part of its interval that its child spans cover.
func summarize(spans []span) map[string]spanSummary {
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	out := make(map[string]spanSummary)
	for _, sp := range spans {
		dur := sp.End.Sub(sp.Start)
		s := out[sp.Name]
		s.Count++
		s.TotalMS += float64(dur) / 1e6
		s.SelfMS += float64(dur-covered(sp, children[sp.ID])) / 1e6
		out[sp.Name] = s
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

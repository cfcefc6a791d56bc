package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"heterog/internal/cli"
	"heterog/internal/telemetry"
)

// The HTTP/JSON surface of the planning service:
//
//	POST   /v1/jobs                submit a cli.Spec          → 202 JobStatus
//	GET    /v1/jobs                list retained jobs         → 200 []JobStatus
//	GET    /v1/jobs/{id}           status (?wait=30s long-polls until terminal)
//	DELETE /v1/jobs/{id}           cancel                     → 200 JobStatus
//	GET    /v1/jobs/{id}/report    plan report                → 200 PlanReport
//	GET    /v1/jobs/{id}/trace     Chrome trace-event JSON    → 200 stream
//	POST   /v1/jobs/{id}/replan    ReplanRequest              → 202 JobStatus
//	POST   /v1/jobs/{id}/telemetry []telemetry.Reading        → 200 TelemetryAck
//	GET    /v1/jobs/{id}/events    plan-update log (?since=N, ?wait=30s
//	                               long-polls for events past N) → 200
//	GET    /v1/fleet               fleet partition snapshot   → 200 FleetStatus
//	                               (fleet-mode servers only; 404 otherwise)
//	GET    /v1/stats               server + warm-cache stats  → 200 ServerStats
//	GET    /v1/peer/cache          warm-artifact index        → 200 PeerCacheIndex
//	GET    /v1/peer/artifact/{key} one warm artifact          → 200 blob / 404
//	GET    /v1/healthz             liveness                   → 200
//	GET    /v1/readyz              readiness (draining or a failing durable
//	                               store answer 503)          → 200 / 503
//
// Every non-2xx response carries the versioned error envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": ...}}
//
// with a stable machine-readable code per typed error. The mapping (and the
// HTTP status it rides on):
//
//	queue_full  429 + Retry-After   ErrQueueFull   retry_after_ms set
//	draining    503                 ErrDraining
//	not_found   404                 ErrNotFound
//	not_done    409                 ErrNotDone     artifact not ready
//	oom         422                 ErrOOM         planning failed: model too big
//	no_strategy 422                 ErrNoStrategy  planning failed: search came up empty
//	bad_request 400                 anything else (malformed spec, bad params)
//
// Codes are append-only: clients switch on code, never on message text, and
// service.Client turns codes back into the sentinel errors so errors.Is holds
// across the wire.

// Error-envelope codes. Append-only; clients key behavior off these.
const (
	CodeQueueFull  = "queue_full"
	CodeDraining   = "draining"
	CodeNotFound   = "not_found"
	CodeNotDone    = "not_done"
	CodeOOM        = "oom"
	CodeNoStrategy = "no_strategy"
	CodeBadRequest = "bad_request"
)

// errorEnvelope is the wire form of every non-2xx response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS is set with code queue_full: the server's suggested
	// backoff, mirroring the Retry-After header at millisecond grain.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// codeOf maps a typed service error onto its stable envelope code and HTTP
// status. Order matters where errors wrap each other (a failed job's artifact
// error is ErrNotDone wrapping the planning cause — the cause's code wins, so
// clients see why it failed, while errors.Is still matches both client-side).
func codeOf(err error) (string, int) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull, http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return CodeDraining, http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return CodeNotFound, http.StatusNotFound
	case errors.Is(err, ErrOOM):
		return CodeOOM, http.StatusUnprocessableEntity
	case errors.Is(err, ErrNoStrategy):
		return CodeNoStrategy, http.StatusUnprocessableEntity
	case errors.Is(err, ErrNotDone):
		return CodeNotDone, http.StatusConflict
	default:
		return CodeBadRequest, http.StatusBadRequest
	}
}

// maxSpecBytes bounds a submitted job payload (serialized graphs included).
const maxSpecBytes = 16 << 20

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/replan", s.handleReplan)
	mux.HandleFunc("POST /v1/jobs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/peer/cache", s.handlePeerIndex)
	mux.HandleFunc("GET /v1/peer/artifact/{key}", s.handlePeerArtifact)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	return mux
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the server accepts work. Draining servers and
// servers whose durable store has started failing writes answer 503, so
// routers and orchestrators stop sending jobs here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.persistHealth() != nil:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "store-failing", "error": s.persistHealth().Error(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a typed service error as the versioned envelope.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, status := codeOf(err)
	body := errorBody{Code: code, Message: err.Error()}
	if code == CodeQueueFull {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Round(time.Second)/time.Second)))
		body.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec cli.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, fmt.Errorf("decode job spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			s.writeError(w, fmt.Errorf("bad wait duration %q: %w", waitStr, err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		st, err := s.Wait(ctx, id)
		// A fired long-poll deadline is not an error: report where the job
		// stands so the client can poll again.
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Report(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	runner, err := s.runnerOf(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", r.PathValue("id")+"-trace.json"))
	if err := runner.WriteTrace(w); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		return
	}
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var req ReplanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode replan request: %w", err))
		return
	}
	st, err := s.Replan(r.PathValue("id"), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	var readings []telemetry.Reading
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&readings); err != nil {
		s.writeError(w, fmt.Errorf("decode telemetry readings: %w", err))
		return
	}
	ack, err := s.PushTelemetry(r.PathValue("id"), readings)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var since uint64
	if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
		n, err := strconv.ParseUint(sinceStr, 10, 64)
		if err != nil {
			s.writeError(w, fmt.Errorf("bad since %q: %w", sinceStr, err))
			return
		}
		since = n
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			s.writeError(w, fmt.Errorf("bad wait duration %q: %w", waitStr, err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		evs, err := s.WaitEvents(ctx, id, since)
		// A fired long-poll deadline is not an error: the empty slice tells
		// the client nothing happened yet, poll again from the same seq.
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, evs)
		return
	}
	evs, err := s.Events(id, since)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, evs)
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Fleet()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

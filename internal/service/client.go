package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"heterog/internal/cli"
	"heterog/internal/telemetry"
)

// Client is the typed Go client for the planning service. It speaks the
// /v1 HTTP/JSON API; the zero HTTPClient uses http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the server, decoded from the versioned
// error envelope. Unwrap maps the envelope's stable code back onto the typed
// service error, so errors.Is(err, service.ErrQueueFull) (and the rest of the
// sentinels) holds on the client side exactly as it does in-process.
type APIError struct {
	Status int
	// Code is the envelope's stable machine-readable code ("queue_full",
	// "not_found", ...); empty when the server sent no envelope.
	Code string
	// RetryAfter echoes the backpressure hint on 429 responses.
	RetryAfter time.Duration
	Message    string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("service: HTTP %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// codeSentinels maps envelope codes back to the typed errors. bad_request has
// no sentinel: it covers malformed input with no programmatic recovery.
var codeSentinels = map[string]error{
	CodeQueueFull:  ErrQueueFull,
	CodeDraining:   ErrDraining,
	CodeNotFound:   ErrNotFound,
	CodeNotDone:    ErrNotDone,
	CodeOOM:        ErrOOM,
	CodeNoStrategy: ErrNoStrategy,
}

// Unwrap exposes the typed error behind the wire code.
func (e *APIError) Unwrap() error { return codeSentinels[e.Code] }

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	var env errorEnvelope
	if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	} else {
		apiErr.Message = resp.Status
	}
	if apiErr.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := time.ParseDuration(ra + "s"); err == nil {
				apiErr.RetryAfter = secs
			}
		}
	}
	return apiErr
}

// do issues one request and decodes the JSON response into out (skipped when
// out is nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits a planning job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, spec cli.Spec) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait long-polls until the job reaches a terminal state or ctx fires. Each
// poll blocks server-side for up to pollWait (default 30s when zero).
func (c *Client) Wait(ctx context.Context, id string, pollWait time.Duration) (*JobStatus, error) {
	if pollWait <= 0 {
		pollWait = 30 * time.Second
	}
	for {
		var st JobStatus
		err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait="+pollWait.String(), nil, &st)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return &st, nil
		}
		if err := ctx.Err(); err != nil {
			return &st, err
		}
	}
}

// Report fetches a finished job's plan report.
func (c *Client) Report(ctx context.Context, id string) (*PlanReport, error) {
	var rep PlanReport
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/report", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Trace streams a finished job's Chrome trace into w.
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Replan submits a replanning job derived from a finished job.
func (c *Client) Replan(ctx context.Context, id string, req ReplanRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/replan", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// PushTelemetry folds device/link observations into a finished job's drift
// monitor. The ack reports whether this push tripped a drift episode (which
// fires an automatic replan server-side) and how long the event log is.
func (c *Client) PushTelemetry(ctx context.Context, id string, readings []telemetry.Reading) (*TelemetryAck, error) {
	var ack TelemetryAck
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/telemetry", readings, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Events fetches a job's plan-update events with Seq > since. A positive wait
// long-polls: the server holds the request until an event past since exists or
// wait elapses (returning an empty slice — poll again from the same since).
func (c *Client) Events(ctx context.Context, id string, since uint64, wait time.Duration) ([]PlanEvent, error) {
	path := fmt.Sprintf("/v1/jobs/%s/events?since=%d", id, since)
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	var evs []PlanEvent
	if err := c.do(ctx, http.MethodGet, path, nil, &evs); err != nil {
		return nil, err
	}
	return evs, nil
}

// Fleet fetches the fleet partition snapshot: which jobs hold which devices
// and who is waiting. Fails with ErrNotFound against a classic-mode server.
func (c *Client) Fleet(ctx context.Context) (*FleetStatus, error) {
	var st FleetStatus
	if err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every retained job.
func (c *Client) Jobs(ctx context.Context) ([]*JobStatus, error) {
	var out []*JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the server's queue and warm-cache statistics.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	var st ServerStats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthz checks liveness (GET /v1/healthz).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Readyz checks readiness (GET /v1/readyz): nil means the server accepts
// work; draining servers and servers with a failing durable store error.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/readyz", nil, nil)
}

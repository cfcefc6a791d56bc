// Package router is the thin front tier for a fleet of planning-service
// replicas (cmd/heterog-route). It owns no planning state: it scores replicas
// by queue depth and warm-cache affinity, forwards each submission to the best
// one, and reverse-proxies everything else under /v1/ to the job's owner.
//
// Placement is the whole point: on a fleet whose replicas each hold a bounded
// number of warm cache sets, sending a repeat workload to the replica that
// already planned it turns a cold multi-second plan into a warm cache hit,
// so aggregate throughput scales with the fleet's combined warm capacity —
// not with CPU. The score is
//
//	score = 10*(queued + running + waiting) + assigned − affinity
//
// where affinity is 100 when the replica's peer-cache index lists the
// workload's artifact (plus 50 more when its warm set is resident in memory),
// and assigned is the router's own count of jobs sent there (the cold-start
// tie-breaker that spreads first-time workloads evenly). Backend views
// (readiness, stats, peer index) refresh on a short TTL.
//
// Job ownership has one rule: the replica ID prefix ("<node>-job-000042" →
// the backend whose stats report Node == "<node>"). The router keeps no
// per-job state, so it can restart (or jobs can predate it) without
// orphaning anyone. An ID with no known prefix is not_found. A backend that
// reports no node name never receives submissions, since the router could
// not find its jobs again.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
)

// Config sizes the router.
type Config struct {
	// Backends lists replica base URLs ("http://host:port").
	Backends []string
	// RefreshTTL bounds how stale a backend view (readiness, queue depth,
	// cache index) may be before the next submission refreshes it
	// (default 2s).
	RefreshTTL time.Duration
	// Client overrides the backend transport (nil = 10s-timeout client).
	Client *http.Client
}

// backend is one replica plus the router's cached view of it.
type backend struct {
	base  string
	proxy *httputil.ReverseProxy

	// Cached view, guarded by the router mutex.
	node      string
	ready     bool
	load      int
	artifacts map[string]bool // workload key -> resident in memory
	refreshed time.Time
	// gen increments every time refreshed is force-zeroed (a just-assigned
	// job invalidating the view); refreshLocked only re-stamps refreshed if
	// gen is unchanged across its unlocked fetch window, so a concurrent
	// invalidation is never clobbered.
	gen      uint64
	assigned int
}

// Router scores and proxies. Serve its Handler.
type Router struct {
	cfg      Config
	client   *http.Client
	mu       sync.Mutex
	backends []*backend
	routed   uint64
}

// New builds a router over the given replica set.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	if cfg.RefreshTTL <= 0 {
		cfg.RefreshTTL = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	rt := &Router{cfg: cfg, client: client}
	for _, base := range cfg.Backends {
		base = strings.TrimRight(base, "/")
		u, err := url.Parse(base)
		if err != nil {
			return nil, fmt.Errorf("router: bad backend %q: %w", base, err)
		}
		rt.backends = append(rt.backends, &backend{base: base, proxy: httputil.NewSingleHostReverseProxy(u), artifacts: map[string]bool{}})
	}
	return rt, nil
}

// Handler returns the router's HTTP surface: /v1/jobs scored and forwarded,
// per-job paths proxied to the owner, /v1/stats broadcast-merged, /v1/router
// for the router's own view.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("/v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("/v1/jobs/{id}/{rest...}", rt.handleJob)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/router", rt.handleRouter)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", rt.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the service's error envelope. A 404 carries the
// service's not_found code so clients map it to service.ErrNotFound.
func writeError(w http.ResponseWriter, status int, msg string) {
	code := "router"
	if status == http.StatusNotFound {
		code = service.CodeNotFound
	}
	writeJSON(w, status, map[string]map[string]string{"error": {"code": code, "message": msg}})
}

// refreshLocked re-reads stale backend views. Callers hold rt.mu; the HTTP
// round-trips drop the lock.
func (rt *Router) refreshLocked() {
	var stale []*backend
	now := time.Now()
	for _, b := range rt.backends {
		if now.Sub(b.refreshed) >= rt.cfg.RefreshTTL {
			stale = append(stale, b)
		}
	}
	if len(stale) == 0 {
		return
	}
	gens := make([]uint64, len(stale))
	for i, b := range stale {
		gens[i] = b.gen
	}
	rt.mu.Unlock()
	type view struct {
		ready bool
		node  string
		load  int
		arts  map[string]bool
	}
	views := make([]view, len(stale))
	var wg sync.WaitGroup
	for i, b := range stale {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			v := view{arts: map[string]bool{}}
			cl := service.NewClient(b.base)
			cl.HTTPClient = rt.client
			ctx, cancel := context.WithTimeout(context.Background(), rt.client.Timeout)
			defer cancel()
			v.ready = cl.Readyz(ctx) == nil
			// A backend without a node name is never ready: its job IDs carry
			// no prefix, so the router could not route to its jobs again.
			if st, err := cl.Stats(ctx); err == nil && st.Node != "" {
				v.node = st.Node
				v.load = st.Waiting + st.Queued + st.Running
			} else {
				v.ready = false
			}
			var idx service.PeerCacheIndex
			if err := rt.getJSON(ctx, b.base+"/v1/peer/cache", &idx); err == nil {
				for _, e := range idx.Entries {
					v.arts[e.Key] = e.Resident
				}
			}
			views[i] = v
		}(i, b)
	}
	wg.Wait()
	rt.mu.Lock()
	for i, b := range stale {
		b.ready = views[i].ready
		b.node = views[i].node
		b.load = views[i].load
		b.artifacts = views[i].arts
		// A submit during the unlocked window may have zeroed refreshed (and
		// bumped gen) to force the next pick to refetch; this view predates
		// that job, so leave the invalidation in place.
		if b.gen == gens[i] {
			b.refreshed = time.Now()
		}
	}
}

func (rt *Router) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// pickLocked chooses the best backend for a workload key ("" scores with no
// affinity). Callers hold rt.mu after refreshLocked.
func (rt *Router) pickLocked(key string) *backend {
	var best *backend
	bestScore := 0
	for _, b := range rt.backends {
		if !b.ready {
			continue
		}
		score := 10*b.load + b.assigned
		if key != "" {
			if resident, ok := b.artifacts[key]; ok {
				score -= 100
				if resident {
					score -= 50
				}
			}
		}
		if best == nil || score < bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	// The affinity key needs the resolved workload; a spec the replicas would
	// reject resolves to "" and routes purely by load (the replica's own
	// validation error then flows back unchanged).
	var key string
	var spec cli.Spec
	if json.Unmarshal(body, &spec) == nil {
		key, _ = service.WorkloadKey(spec)
	}

	rt.mu.Lock()
	rt.refreshLocked()
	b := rt.pickLocked(key)
	if b != nil {
		b.assigned++
	}
	rt.mu.Unlock()
	if b == nil {
		writeError(w, http.StatusServiceUnavailable, "no ready backend")
		return
	}

	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.base, err))
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", b.base, err))
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		var st service.JobStatus
		if json.Unmarshal(respBody, &st) == nil && st.ID != "" {
			rt.mu.Lock()
			rt.routed++
			// The backend just got a job; make the next pick see it without
			// waiting out the TTL.
			b.refreshed = time.Time{}
			b.gen++
			rt.mu.Unlock()
		}
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// ownerOf resolves which backend holds a job from its node prefix, or nil.
func (rt *Router) ownerOf(id string) *backend {
	i := strings.LastIndex(id, "-job-")
	if i <= 0 {
		return nil
	}
	node := id[:i]
	find := func() *backend {
		for _, b := range rt.backends {
			if b.node == node {
				return b
			}
		}
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b := find(); b != nil {
		return b
	}
	// Node names arrive with backend refreshes: a router that has just
	// started knows none yet.
	rt.refreshLocked()
	return find()
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b := rt.ownerOf(id)
	if b == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no backend owns job %s", id))
		return
	}
	b.proxy.ServeHTTP(w, r)
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	backends := append([]*backend(nil), rt.backends...)
	rt.mu.Unlock()
	var merged []*service.JobStatus
	for _, b := range backends {
		cl := service.NewClient(b.base)
		cl.HTTPClient = rt.client
		if jobs, err := cl.Jobs(r.Context()); err == nil {
			merged = append(merged, jobs...)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

// handleStats broadcast-merges every replica's stats into one array.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	backends := append([]*backend(nil), rt.backends...)
	rt.mu.Unlock()
	var merged []*service.ServerStats
	for _, b := range backends {
		cl := service.NewClient(b.base)
		cl.HTTPClient = rt.client
		if st, err := cl.Stats(r.Context()); err == nil {
			merged = append(merged, st)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	rt.refreshLocked()
	ready := 0
	for _, b := range rt.backends {
		if b.ready {
			ready++
		}
	}
	rt.mu.Unlock()
	if ready == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready backend"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "backends": ready})
}

// Status is the wire form of GET /v1/router: the router's current view.
type Status struct {
	Backends []BackendStatus `json:"backends"`
	// Routed counts submissions this router placed.
	Routed uint64 `json:"routed"`
}

// BackendStatus is one replica's cached view.
type BackendStatus struct {
	Base      string `json:"base"`
	Node      string `json:"node,omitempty"`
	Ready     bool   `json:"ready"`
	Load      int    `json:"load"`
	Artifacts int    `json:"artifacts"`
	Assigned  int    `json:"assigned"`
}

func (rt *Router) handleRouter(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	rt.refreshLocked()
	st := Status{Routed: rt.routed}
	for _, b := range rt.backends {
		st.Backends = append(st.Backends, BackendStatus{
			Base: b.base, Node: b.node, Ready: b.ready,
			Load: b.load, Artifacts: len(b.artifacts), Assigned: b.assigned,
		})
	}
	rt.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

package service

// Peer warm-cache exchange: replicas of the planning service trade warm
// artifacts — the winning strategy per workload fingerprint, exported by
// exportArtifact when a job finishes — over a small HTTP API:
//
//	GET /v1/peer/cache           → PeerCacheIndex: what this replica has warm
//	GET /v1/peer/artifact/{key}  → one artifact blob (404 when absent)
//
// A replica that is cold on a workload (first job for its fingerprint) checks
// its own artifact store first (which warm-starts restarts for free: the file
// store still holds yesterday's artifacts), then asks each configured peer.
// A fetched artifact is validated (op count must match the job's graph),
// adopted into the local store, and fed to the planner as a search seed
// (heterog.WithWarmStrategy): the import is never worse than planning cold,
// because the seed only wins if the search cannot beat it.
//
// The exchange ships strategies, not compiled artifacts: a strategy is a few
// KB of JSON and recompiles into a full lowered artifact in one pass on the
// importer, whereas the lowered IR itself is megabytes and device-layout
// bound (see evalcache.Artifact).

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"heterog/internal/cli"
	"heterog/internal/evalcache"
	"heterog/internal/store"
)

// PeerStats counts the warm-cache exchange, in /v1/stats.
type PeerStats struct {
	// Exported counts artifacts this replica published to its store.
	Exported uint64 `json:"exported,omitempty"`
	// LocalWarmStarts counts cold workloads seeded from the replica's own
	// artifact store (typically after a restart).
	LocalWarmStarts uint64 `json:"local_warm_starts,omitempty"`
	// PeerWarmStarts counts cold workloads seeded from a peer's artifact.
	PeerWarmStarts uint64 `json:"peer_warm_starts,omitempty"`
	// Misses counts cold workloads no local or peer artifact covered.
	Misses uint64 `json:"misses,omitempty"`
	// FetchErrors counts failed peer fetches (unreachable peer, bad blob).
	FetchErrors uint64 `json:"fetch_errors,omitempty"`
}

// peerTimeout bounds one peer artifact fetch.
const peerTimeout = 5 * time.Second

// peerState is the server's exchange-side state (counters under s.mu).
type peerState struct {
	stats  PeerStats
	client *http.Client
}

func (s *Server) peerClient() *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peer.client == nil {
		s.peer.client = &http.Client{Timeout: peerTimeout}
	}
	return s.peer.client
}

// PeerCacheIndex is the wire form of GET /v1/peer/cache: which workloads this
// replica can serve warm. Routers score cache affinity from it; peers use it
// to advertise, though fetches go straight to /v1/peer/artifact/{key}.
type PeerCacheIndex struct {
	Node    string           `json:"node,omitempty"`
	Store   string           `json:"store"`
	Entries []PeerCacheEntry `json:"entries"`
}

// PeerCacheEntry describes one exported artifact.
type PeerCacheEntry struct {
	// Key is the full hex workload key (the artifact's store key).
	Key  string `json:"key"`
	Size int    `json:"size"`
	// Resident reports whether the workload's warm cache set is live in
	// memory right now (stronger than having the artifact on disk), and Jobs
	// how many jobs have shared it.
	Resident bool `json:"resident,omitempty"`
	Jobs     int  `json:"jobs,omitempty"`
}

// exportArtifact publishes a finished job's winning strategy under its
// workload key. Failures degrade the exchange, not the job — they only trip
// the readiness probe via persistFail.
func (s *Server) exportArtifact(j *job) {
	s.mu.Lock()
	var (
		key      = j.warmKey
		report   = j.report
		numOps   int
		nodeName = s.cfg.NodeID
		created  = s.now()
	)
	if j.graph != nil {
		numOps = len(j.graph.Ops)
	}
	s.mu.Unlock()
	if report == nil || len(report.Strategy) == 0 || key == (evalcache.Key{}) {
		return
	}
	art := &evalcache.Artifact{
		Workload:   key.Hex(),
		Node:       nodeName,
		Model:      report.Model,
		Batch:      report.Batch,
		Cluster:    report.Cluster,
		NumOps:     numOps,
		PerIterSec: report.PerIterationSec,
		Strategy:   report.Strategy,
		CreatedAt:  created,
	}
	blob, err := art.Encode()
	if err != nil {
		s.persistFail(fmt.Errorf("encode artifact %s: %w", art.Workload, err))
		return
	}
	if err := s.store.PutArtifact(art.Workload, blob); err != nil {
		s.persistFail(fmt.Errorf("persist artifact %s: %w", art.Workload, err))
		return
	}
	s.mu.Lock()
	s.peer.stats.Exported++
	s.mu.Unlock()
}

// warmStrategyFor finds a seed strategy for a workload this replica is cold
// on: local artifact store first, then each peer in order. Returns nil when
// nothing usable exists — planning proceeds cold, exactly as before.
func (s *Server) warmStrategyFor(j *job) []byte {
	if j.warmKey == (evalcache.Key{}) || j.graph == nil {
		return nil
	}
	keyHex := j.warmKey.Hex()
	wantOps := len(j.graph.Ops)

	if blob, err := s.store.GetArtifact(keyHex); err == nil {
		if art, err := evalcache.DecodeArtifact(blob); err == nil && art.NumOps == wantOps {
			s.mu.Lock()
			s.peer.stats.LocalWarmStarts++
			s.mu.Unlock()
			return art.Strategy
		}
	}

	for _, peer := range s.cfg.Peers {
		art, err := s.fetchPeerArtifact(peer, keyHex)
		if err != nil {
			if err != errPeerMiss {
				s.mu.Lock()
				s.peer.stats.FetchErrors++
				s.mu.Unlock()
			}
			continue
		}
		if art.NumOps != wantOps {
			continue
		}
		// Adopt: future jobs (and restarts) warm-start locally.
		if blob, err := art.Encode(); err == nil {
			if err := s.store.PutArtifact(keyHex, blob); err != nil {
				s.persistFail(fmt.Errorf("adopt artifact %s: %w", keyHex, err))
			}
		}
		s.mu.Lock()
		s.peer.stats.PeerWarmStarts++
		s.mu.Unlock()
		return art.Strategy
	}

	s.mu.Lock()
	s.peer.stats.Misses++
	s.mu.Unlock()
	return nil
}

// errPeerMiss distinguishes "peer answered: not found" from a failed fetch.
var errPeerMiss = fmt.Errorf("peer does not have the artifact")

// fetchPeerArtifact GETs one artifact from a peer replica.
func (s *Server) fetchPeerArtifact(baseURL, keyHex string) (*evalcache.Artifact, error) {
	url := strings.TrimRight(baseURL, "/") + "/v1/peer/artifact/" + keyHex
	resp, err := s.peerClient().Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: HTTP %d", baseURL, resp.StatusCode)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes))
	if err != nil {
		return nil, err
	}
	return evalcache.DecodeArtifact(blob)
}

// PeerIndex snapshots what this replica can serve warm.
func (s *Server) PeerIndex() (*PeerCacheIndex, error) {
	arts, err := s.store.Artifacts()
	if err != nil {
		return nil, err
	}
	idx := &PeerCacheIndex{Node: s.cfg.NodeID, Store: s.store.Kind(), Entries: make([]PeerCacheEntry, 0, len(arts))}
	s.mu.Lock()
	resident := make(map[string]int, len(s.warm))
	for key, ws := range s.warm {
		resident[key.Hex()] = ws.jobs
	}
	s.mu.Unlock()
	for _, a := range arts {
		e := PeerCacheEntry{Key: a.Key, Size: a.Size}
		if jobs, ok := resident[a.Key]; ok {
			e.Resident, e.Jobs = true, jobs
		}
		idx.Entries = append(idx.Entries, e)
	}
	return idx, nil
}

func (s *Server) handlePeerIndex(w http.ResponseWriter, r *http.Request) {
	idx, err := s.PeerIndex()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, idx)
}

func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	keyHex := r.PathValue("key")
	if _, err := evalcache.ParseKey(keyHex); err != nil {
		s.writeError(w, err)
		return
	}
	blob, err := s.store.GetArtifact(keyHex)
	if err != nil {
		if err == store.ErrNotFound {
			s.writeError(w, fmt.Errorf("%w: no artifact for %s", ErrNotFound, keyHex))
			return
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// WorkloadKey resolves a classic-mode spec to its hex workload key — the same
// key the server files warm sets and exported artifacts under. Routers use it
// to score cache affinity before picking a replica.
func WorkloadKey(spec cli.Spec) (string, error) {
	g, c, err := resolveSpec(&spec)
	if err != nil {
		return "", err
	}
	return warmKey(&spec, g, c).Hex(), nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
	"heterog/internal/store"
)

// serverOpts selects how a planning server starts.
type serverOpts struct {
	// FleetGPUs runs the server in fleet mode owning this testbed; 0 keeps
	// classic mode.
	FleetGPUs int
	// StoreDir puts jobs, events and leases in a file store there; "" keeps
	// the in-memory store.
	StoreDir string
	// Node names the replica (prefixes job IDs).
	Node string
	// GCTrace runs the server with GODEBUG=gctrace=1 and parses its GC log.
	GCTrace bool
}

// gcStats is what a server's gctrace log said so far.
type gcStats struct {
	// Cycles is the number of the last GC cycle logged.
	Cycles int
	// CPUPct is the cumulative share of CPU time spent in GC since the
	// process started, as of the last cycle.
	CPUPct float64
}

// server is one running planning server.
type server interface {
	Client() *service.Client
	// PeakRSSMB is the server's peak resident set (VmHWM) in MiB, 0 when
	// the server shares the harness process.
	PeakRSSMB() (float64, error)
	GC() gcStats
	// Kill stops the server the way a node failure does: no drain, and no
	// state written after the kill reaches the store.
	Kill() error
	// Stop drains the server and waits for it to exit.
	Stop() error
}

// launcher starts planning servers. The benchmark runs heterog-serve
// processes; the harness tests run in-process servers.
type launcher interface {
	Start(ctx context.Context, o serverOpts) (server, error)
}

// newClient returns a client that holds at most one connection to the
// server: the benchmark's load is one closed-loop caller.
func newClient(baseURL string) *service.Client {
	c := service.NewClient(baseURL)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

// procRecord is the environment stamp of one server process.
type procRecord struct {
	PID       int     `json:"pid"`
	Mode      string  `json:"mode"`
	SpawnedAt string  `json:"spawned_at"`
	ReadySec  float64 `json:"ready_sec"`
	WallSec   float64 `json:"wall_sec"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// procLauncher runs the heterog-serve binary as a child process per server.
// A run starts, reads and stops its servers from one goroutine.
type procLauncher struct {
	bin    string
	logDir string
	procs  []*procRecord
}

// records returns the stamps of every process started so far.
func (l *procLauncher) records() []procRecord {
	out := make([]procRecord, len(l.procs))
	for i, p := range l.procs {
		out[i] = *p
	}
	return out
}

type procServer struct {
	rec      *procRecord
	cmd      *exec.Cmd
	client   *service.Client
	gc       *gcLog
	log      *os.File
	start    time.Time
	exited   chan struct{}
	finished sync.Once
}

// Start spawns a server on a loopback port and returns once /v1/readyz
// answers 200.
func (l *procLauncher) Start(ctx context.Context, o serverOpts) (server, error) {
	n := len(l.procs) + 1
	addrFile := filepath.Join(l.logDir, fmt.Sprintf("server-%d.addr", n))
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	mode := "classic"
	if o.FleetGPUs > 0 {
		args = append(args, "-fleet-gpus", strconv.Itoa(o.FleetGPUs))
		mode = fmt.Sprintf("fleet-%d", o.FleetGPUs)
	}
	if o.StoreDir != "" {
		args = append(args, "-store", o.StoreDir)
		mode += "+file-store"
	}
	if o.Node != "" {
		args = append(args, "-node", o.Node)
	}
	logf, err := os.Create(filepath.Join(l.logDir, fmt.Sprintf("server-%d.log", n)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(l.bin, args...)
	cmd.Env = os.Environ()
	gc := &gcLog{w: logf}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if o.GCTrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
		cmd.Stderr = gc
	}
	// The server must not outlive the harness, even when the harness is
	// killed before it can stop the server itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", l.bin, err)
	}
	s := &procServer{cmd: cmd, gc: gc, log: logf, start: start, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	if err := s.awaitReady(ctx, addrFile); err != nil {
		_ = s.Kill()
		return nil, fmt.Errorf("server %d (%s): %w", n, mode, err)
	}
	s.rec = &procRecord{
		PID:       cmd.Process.Pid,
		Mode:      mode,
		SpawnedAt: start.UTC().Format(time.RFC3339Nano),
		ReadySec:  time.Since(start).Seconds(),
	}
	l.procs = append(l.procs, s.rec)
	return s, nil
}

// awaitReady polls for the bound address, then for /v1/readyz. The poll is
// tight because the time to ready is the set-up metric.
func (s *procServer) awaitReady(ctx context.Context, addrFile string) error {
	deadline := time.Now().Add(60 * time.Second)
	addr := ""
	for {
		select {
		case <-s.exited:
			return errors.New("exited before ready (see its log)")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 && string(raw) != addr {
			addr = string(raw)
			s.client = newClient("http://" + addr)
		}
		if s.client != nil {
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			err := s.client.Readyz(rctx)
			cancel()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("not ready within 60s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *procServer) Client() *service.Client { return s.client }

func (s *procServer) PeakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	mb, err := parseVmHWM(raw)
	if err == nil && s.rec != nil {
		s.rec.PeakRSSMB = mb
	}
	return mb, err
}

func (s *procServer) GC() gcStats { return s.gc.stats() }

func (s *procServer) Kill() error {
	_, _ = s.PeakRSSMB() // stamps the final peak on the process record
	err := s.cmd.Process.Kill()
	<-s.exited
	s.finish()
	if errors.Is(err, os.ErrProcessDone) {
		return nil
	}
	return err
}

func (s *procServer) Stop() error {
	_, _ = s.PeakRSSMB() // stamps the final peak on the process record
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		s.finish()
		return errors.New("server did not drain within 30s; killed")
	}
	s.finish()
	return nil
}

// finish stamps the process's wall time and closes its log.
func (s *procServer) finish() {
	s.finished.Do(func() {
		if s.rec != nil {
			s.rec.WallSec = time.Since(s.start).Seconds()
		}
		s.log.Close()
	})
}

// parseVmHWM extracts the peak resident set, in MiB, from the contents of a
// /proc/<pid>/status file.
func parseVmHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line")
}

// gcLog copies a server's stderr to its log file and keeps the latest
// gctrace cycle.
type gcLog struct {
	w io.Writer

	mu      sync.Mutex
	partial []byte
	last    gcStats
}

func (g *gcLog) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.partial = append(g.partial, p...)
	for {
		i := bytes.IndexByte(g.partial, '\n')
		if i < 0 {
			break
		}
		if st, ok := parseGCTrace(string(g.partial[:i])); ok {
			g.last = st
		}
		g.partial = g.partial[i+1:]
	}
	g.mu.Unlock()
	return g.w.Write(p)
}

func (g *gcLog) stats() gcStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// parseGCTrace reads one GODEBUG=gctrace=1 line:
//
//	gc 12 @1.234s 3%: 0.02+1.1+0.01 ms clock, ...
//
// returning the cycle number and the cumulative GC CPU percentage.
func parseGCTrace(line string) (gcStats, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[0] != "gc" || !strings.HasPrefix(f[2], "@") || !strings.HasSuffix(f[3], "%:") {
		return gcStats{}, false
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return gcStats{}, false
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "%:"), 64)
	if err != nil {
		return gcStats{}, false
	}
	return gcStats{Cycles: n, CPUPct: pct}, true
}

// inprocLauncher runs servers inside the harness process, for the harness's
// own tests.
type inprocLauncher struct{}

type inprocServer struct {
	srv    *service.Server
	http   *http.Server
	st     *store.File
	client *service.Client
}

func (inprocLauncher) Start(_ context.Context, o serverOpts) (server, error) {
	cfg := service.Config{NodeID: o.Node}
	s := &inprocServer{}
	if o.FleetGPUs > 0 {
		fc, err := (&cli.Spec{GPUs: o.FleetGPUs}).BuildCluster()
		if err != nil {
			return nil, err
		}
		cfg.Fleet = fc
	}
	if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir)
		if err != nil {
			return nil, err
		}
		s.st = st
		cfg.Store = st
	}
	srv, err := service.Open(cfg)
	if err != nil {
		if s.st != nil {
			s.st.Close()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	s.srv = srv
	s.http = &http.Server{Handler: srv.Handler()}
	go func() { _ = s.http.Serve(ln) }()
	s.client = newClient("http://" + ln.Addr().String())
	return s, nil
}

func (s *inprocServer) Client() *service.Client     { return s.client }
func (s *inprocServer) PeakRSSMB() (float64, error) { return 0, nil }
func (s *inprocServer) GC() gcStats                 { return gcStats{} }

// Kill severs the store before stopping the server, so nothing the server
// does while it stops reaches the journal: the state a crash leaves.
func (s *inprocServer) Kill() error {
	if s.st != nil {
		_ = s.st.Close()
	}
	_ = s.http.Close()
	return s.srv.Close()
}

func (s *inprocServer) Stop() error {
	_ = s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if s.st != nil {
		if cerr := s.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Command heterog-serve runs the HeteroG planning service: an HTTP/JSON
// daemon that accepts planning jobs (zoo model or serialized graph + cluster
// spec + search options), executes them on a bounded worker pool, and serves
// the resulting plan reports, robustness reports, pipeline reports and
// Chrome traces. Concurrent and repeated jobs for the same workload share
// process-wide warm caches (evaluation LRU + lowered artifacts), so a busy
// server plans far faster than N cold CLI runs.
//
// SIGINT/SIGTERM drains gracefully: the server stops accepting work,
// finishes every job already admitted, then exits.
//
// With -fleet-gpus the daemon runs in fleet mode: it owns one testbed and
// the fleet allocator leases slices of it to submitted jobs (specs then omit
// cluster fields; gpus caps the lease size).
//
// The bench/ module measures this daemon end to end (see bench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heterog/internal/cli"
	"heterog/internal/service"
	"heterog/internal/store"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":7070", "listen address")
	workers := flag.Int("workers", 0, "planning worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 2x workers); full queue answers 429 + Retry-After")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job planning timeout (negative = none)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	fleetGPUs := flag.Int("fleet-gpus", 0, "fleet mode: the server owns this testbed (4, 8, 12 or 64 GPUs) and leases slices of it to jobs; 0 = classic mode (each job brings its own cluster)")
	storeDir := flag.String("store", "", "durable store directory: jobs, event logs, leases and warm artifacts survive restarts (empty = in-memory, restart starts empty)")
	nodeID := flag.String("node", "", "replica name: prefixes job IDs and tags exported warm artifacts (required when several replicas share a router)")
	peersCSV := flag.String("peers", "", "comma-separated peer replica base URLs for the warm-cache exchange")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts that pass -addr :0)")
	flag.Parse()

	cfg := service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		NodeID:     *nodeID,
	}
	if *peersCSV != "" {
		for _, p := range strings.Split(*peersCSV, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *fleetGPUs != 0 {
		fc, err := (&cli.Spec{GPUs: *fleetGPUs}).BuildCluster()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Fleet = fc
	}

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import;
		// serving them on a separate listener keeps profiling off the
		// public planning address.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = st
		defer st.Close()
	}

	srv, err := service.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	mode := "classic mode"
	if cfg.Fleet != nil {
		mode = fmt.Sprintf("fleet mode: %s, %d devices", cfg.Fleet.Name, cfg.Fleet.NumDevices())
	}
	if rec := srv.Stats().Recovery; rec.Jobs > 0 {
		log.Printf("recovered %d jobs from %s (%d re-queued, %d events, %.3fs)",
			rec.Jobs, *storeDir, rec.Requeued, rec.Events, rec.Sec)
	}
	log.Printf("heterog-serve listening on %s (%d workers, queue %d, %s)",
		ln.Addr(), srv.Config().Workers, srv.Config().QueueDepth, mode)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, draining (in-flight jobs finish, new submissions refused)", s)
	case err := <-errCh:
		log.Fatal(err)
	}

	// Stop accepting HTTP traffic, then drain the job queue: every admitted
	// job runs to a terminal state before the process exits.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	st := srv.Stats()
	log.Printf("drained: %d done, %d failed, %d canceled (%d accepted, %d rejected)",
		st.Done, st.Failed, st.Canceled, st.Accepted, st.Rejected)
}

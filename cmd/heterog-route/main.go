// Command heterog-route fronts a fleet of heterog-serve replicas. It scores
// replicas by queue depth and warm-cache affinity (a repeat workload goes to
// the replica that already planned it, turning cold plans into warm cache
// hits), forwards each submission to the winner, and reverse-proxies per-job
// requests — status, reports, traces, event logs — to the owning replica.
//
//	heterog-route -listen :7080 \
//	  -backends http://replica-a:7070,http://replica-b:7070,http://replica-c:7070
//
// GET /v1/router exposes the router's current view of the fleet; /v1/readyz
// answers 503 only when no backend is ready.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heterog/internal/router"
)

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", ":7080", "listen address")
	backendsCSV := flag.String("backends", "", "comma-separated replica base URLs (required)")
	refresh := flag.Duration("refresh", 2*time.Second, "backend view refresh TTL (readiness, queue depth, cache index)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving")
	flag.Parse()

	var backends []string
	for _, b := range strings.Split(*backendsCSV, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		log.Fatal("heterog-route: -backends is required (comma-separated replica URLs)")
	}

	rt, err := router.New(router.Config{Backends: backends, RefreshTTL: *refresh})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("heterog-route listening on %s, fronting %d replicas: %s",
		ln.Addr(), len(backends), strings.Join(backends, ", "))

	httpSrv := &http.Server{Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
	case err := <-errCh:
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "heterog-route stopped")
}

// Command cordial-router is the stateless ingest front for a Cordial
// cluster: clients POST event batches (JSONL or wire frames) to one
// address and the router forwards each event, as wire frames, to the serve
// node that owns its bank under the current consistent-hash ring, retrying
// with bounded backoff when a node refuses mid-handoff or the ring moved.
// Run any number of routers; they hold no session state.
//
// Usage:
//
//	cordial-router -addr 127.0.0.1:8080 -control-plane http://127.0.0.1:9090
//
// Endpoints:
//
//	POST /v1/events      JSONL batch ingest (same contract as cordial-serve)
//	POST /v1/events.bin  binary-framed batch ingest (same contract)
//	GET  /statsz      router counters plus every node's /statsz, by node ID
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 until a ring has been fetched)
//	GET  /metrics     Prometheus text exposition (router instruments)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cordial/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cordial-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		cpURL     = flag.String("control-plane", "", "control plane base URL (http://host:port), required")
		refresh   = flag.Duration("refresh-interval", 2*time.Second, "background ring poll period")
		attempts  = flag.Int("max-attempts", 5, "forwarding attempts per node batch before lines are dropped")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()
	if *cpURL == "" {
		return fmt.Errorf("need -control-plane <url>")
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stdout, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stdout, nil)
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	rt := cluster.NewRouter(cluster.RouterConfig{
		ControlPlane:    *cpURL,
		RefreshInterval: *refresh,
		MaxAttempts:     *attempts,
		Logger:          logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved-address attribute is load-bearing: with -addr :0 it is
	// how harnesses learn the real port (same contract as cordial-serve).
	logger.Info("listening", "addr", ln.Addr().String(), "controlPlane", *cpURL)

	srv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ringCtx, stopRing := context.WithCancel(context.Background())
	defer stopRing()
	go func() {
		if err := rt.Run(ringCtx); err != nil && ringCtx.Err() == nil {
			logger.Error("ring maintenance stopped", "err", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-errc:
		return err
	}
	stopRing()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// Command deadd is the experiment service daemon: a long-lived HTTP+JSON
// server over a shared workspace, serving experiment, predictor-
// evaluation, and profile queries with admission control, backpressure,
// and graceful degradation (see internal/server).
//
// Usage:
//
//	deadd [-addr host:port] [-queue n] [-request-timeout d] [-max-timeout d]
//	      [-retries n] [-drain-timeout d] [-n budget] [-j workers]
//	      [-cache-budget bytes] [-cache-dir dir] [-disk-budget bytes]
//	      [-remote-cache url] [-v]
//
// Endpoints: GET /healthz, /readyz, /metricz; POST /v1/experiment,
// /v1/experiments, /v1/predeval, /v1/profile — all POST endpoints accept
// ?timeout= per-request deadlines and ?stream=1 chunked NDJSON progress.
// GET and PUT /v1/artifact/{kind}/{digest} transfer encoded artifacts
// (CRC-framed), so a peer workspace started with -remote-cache pointed
// here warm-starts from this daemon's cache instead of rebuilding.
// Identical pending POST requests coalesce into a single execution;
// requests beyond the worker and queue capacity are shed with 429 +
// Retry-After; queued requests are granted round-robin across client
// tokens (X-Client-Token header).
//
// On SIGTERM/SIGINT the daemon drains: readiness flips to 503, new work
// is rejected, in-flight work finishes (or is cancelled at
// -drain-timeout), resident artifacts spill to the -cache-dir disk tier,
// and a final JSON metrics dump ({"run": ..., "artifacts": ...}) goes to
// stdout before a zero exit. The FAULTS / FAULTS_SEED environment
// variables arm the fault injector (sites server.accept and
// server.handle belong to the daemon); malformed rules abort startup.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7311", "listen address")
	queue := flag.Int("queue", 16, "admission queue depth (waiting requests beyond the workers; 0 = shed when all workers busy)")
	reqTimeout := flag.Duration("request-timeout", 2*time.Minute, "default per-request execution deadline (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "clamp on client-requested ?timeout= deadlines (0 = no clamp)")
	retries := flag.Int("retries", 3, "attempts per request; transient failures retry with backoff")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long graceful drain waits for in-flight work before cancelling it")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "deadd")
	verbose := flag.Bool("v", false, "tee per-phase engine progress lines to stderr")
	flag.Parse()

	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Partial-results mode: a multi-experiment request reports failures
	// per experiment instead of failing the whole request.
	w.KeepGoing = true
	mc := metrics.New()
	w.Metrics = mc

	if _, err := cliflags.ArmFaults(mc, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	retry := core.RetryPolicy{}
	if *retries > 1 {
		retry = core.DefaultRetryPolicy()
		retry.MaxAttempts = *retries
	}
	cfg := server.Config{
		Workspace:      w,
		QueueDepth:     *queue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		Retry:          retry,
		Metrics:        mc,
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	s := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadd:", err)
		return 2
	}
	hs := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(os.Stderr, "deadd: serving on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), w.Pool().Workers(), *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "deadd: %v: draining (timeout %s)\n", got, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "deadd:", err)
		return 1
	}

	// Graceful drain: readiness flips first so load balancers stop
	// routing, then in-flight work finishes or is deadline-cancelled,
	// then resident artifacts spill to the disk tier.
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	forced := s.Drain(dctx)
	hs.Shutdown(context.Background())
	if forced != nil {
		fmt.Fprintf(os.Stderr, "deadd: drain deadline passed, cancelled in-flight work: %v\n", forced)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "deadd:", err)
	}

	mc.RecordMemStats()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Run       metrics.Summary `json:"run"`
		Artifacts artifact.Stats  `json:"artifacts"`
	}{mc.Summary(), w.ArtifactStats()})
	return 0
}

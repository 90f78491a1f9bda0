// Command deadd is the experiment service daemon: a long-lived HTTP+JSON
// server over a shared workspace, serving experiment, predictor-
// evaluation, and profile queries with admission control, backpressure,
// and graceful degradation (see internal/server).
//
// Usage:
//
//	deadd [-addr host:port] [-queue n] [-request-timeout d] [-max-timeout d]
//	      [-drain-timeout d] [-n budget] [-j workers] [-cache-dir dir]
//	      [-disk-budget bytes] [-remote-cache url] [-v]
//
// Endpoints: GET /healthz, /readyz, /metricz; POST /v1/experiment (one
// experiment per request), /v1/predeval, /v1/profile — all POST endpoints
// accept ?timeout= per-request deadlines and answer with one compact JSON
// body.
// GET /v1/artifact/{kind}/{digest} exports encoded artifacts
// (CRC-framed, read-only), so a peer workspace started with
// -remote-cache pointed here warm-starts from this daemon's cache
// instead of rebuilding. Requests beyond the worker and queue capacity
// are shed with 429 + Retry-After; queued requests are granted in
// arrival order; identical concurrent requests each take a slot and
// share one build in the artifact store, and a repeated experiment is
// read from it, not run again. Each request executes once: a
// transient failure is a 503 with a "transient" error kind, and the
// client may ask again. -v prints one line per completed engine span to
// stderr.
//
// Every artifact the daemon completes stays in memory until it exits.
// That stays bounded: the daemon serves one budget, so it holds at most
// the 11 suite profiles, the fixed set of facts and machine results its
// endpoints reach, and one entry per experiment id (never written to
// -cache-dir). Only /v1/predeval results grow, one per distinct
// predictor spec a client sends, each at the cost of a full evaluation.
// -cache-dir with -disk-budget is the bounded tier.
//
// On SIGTERM/SIGINT the daemon drains: readiness flips to 503, new work
// is rejected, in-flight work finishes (or is cancelled at
// -drain-timeout), every resident artifact the -cache-dir disk tier
// lacks (a failed write-through) is written to it, and a final JSON
// metrics dump ({"run": ..., "artifacts": ...}) goes to stdout before a
// zero exit. The FAULTS / FAULTS_SEED environment variables arm the
// fault injector (sites server.accept and server.handle belong to the
// daemon).
//
// Exit codes: 0 after a drain, 1 when serving fails, 2 on a usage error
// before anything is served: a bad workspace flag, a negative -queue,
// -request-timeout, -max-timeout or -drain-timeout, a malformed FAULTS
// rule, or an address it cannot listen on.
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
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long graceful drain waits for in-flight work before cancelling it")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "deadd")
	verbose := flag.Bool("v", false, "print per-phase engine progress lines to stderr")
	flag.Parse()

	if *queue < 0 {
		fmt.Fprintf(os.Stderr, "deadd: -queue %d: must not be negative\n", *queue)
		return 2
	}
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{{"request-timeout", *reqTimeout}, {"max-timeout", *maxTimeout}, {"drain-timeout", *drainTimeout}} {
		if d.v < 0 {
			fmt.Fprintf(os.Stderr, "deadd: -%s %s: must not be negative\n", d.flag, d.v)
			return 2
		}
	}
	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	mc := metrics.New()
	w.Metrics = mc
	if *verbose {
		mc.SetVerbose(os.Stderr)
	}

	if _, err := cliflags.ArmFaults(mc, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	s := server.New(server.Config{
		Workspace:      w,
		QueueDepth:     *queue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		Metrics:        mc,
	})

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
	// then resident artifacts missing from the disk tier are written.
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

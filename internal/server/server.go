// Package server is the experiment service daemon behind cmd/deadd: an
// HTTP+JSON front end over a shared core.Workspace, serving experiment,
// predictor-evaluation, and profile queries with the robustness
// machinery a long-lived service needs — a bounded FIFO admission queue
// with load-shedding backpressure (429 + Retry-After), per-request
// deadlines, health/readiness probes, and graceful drain on shutdown.
// Every request takes one path: admission, one execution, one JSON body.
// A transient failure is answered with 503 and the client decides
// whether to ask again.
//
// Every result the daemon serves derives through the workspace's
// content-addressed artifact store, so responses are bit-identical to
// what the CLI tools produce for the same spec: an experiment response
// carries exactly Experiment.Render(), and the chaos soak holds the
// daemon to that contract under injected faults. Experiments are
// artifacts too, so a repeated experiment request is a store lookup, not
// a rerun. Response bodies are compact JSON, one value and a newline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Fault-injection sites owned by the daemon: SiteAccept fires as a
// request enters admission (a failure there is pre-execution and always
// retryable by the client), SiteHandle fires once per request execution,
// just before it runs.
const (
	SiteAccept faults.Site = "server.accept"
	SiteHandle faults.Site = "server.handle"
)

func init() { faults.RegisterSite(SiteAccept, SiteHandle) }

// Config assembles a Server.
type Config struct {
	// Workspace executes all queries. Its pool's worker count also
	// bounds concurrently executing requests, and its Metrics collector
	// (nil-safe) receives the daemon's counters and histograms.
	Workspace *core.Workspace
	// QueueDepth bounds requests waiting for a worker; arrivals beyond
	// it are shed with 429 (0 = no waiting, shed when all workers busy).
	QueueDepth int
	// DefaultTimeout bounds a request that names no ?timeout (0 = none);
	// MaxTimeout clamps client-requested deadlines (0 = no clamp).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

// Server is the HTTP service; build one with New, expose Handler, and
// call Drain on shutdown.
type Server struct {
	cfg Config
	w   *core.Workspace
	mc  *metrics.Collector
	adm *admission
	mux *http.ServeMux

	// baseCtx parents every request execution; baseCancel is the drain
	// deadline's hammer — cancelling it deadline-cancels in-flight work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a Server over the given config.
func New(cfg Config) *Server {
	if cfg.Workspace == nil {
		panic("server: Config.Workspace is required")
	}
	s := &Server{
		cfg: cfg,
		w:   cfg.Workspace,
		mc:  cfg.Workspace.Metrics,
		adm: newAdmission(cfg.Workspace.Pool().Workers(), cfg.QueueDepth, cfg.Workspace.Metrics),
		mux: http.NewServeMux(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/predeval", s.handlePredEval)
	s.mux.HandleFunc("POST /v1/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/artifact/{kind}/{digest}", s.handleArtifactGet)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs graceful shutdown: stop admitting new requests
// (readiness flips to 503, acquires fail with ErrDraining), let queued
// and in-flight requests finish, and — if ctx expires first —
// deadline-cancel whatever is still running and wait for it to unwind.
// Finally every resident artifact missing from the disk tier is written
// to it, so a warm restart reloads it instead of recomputing. Returns
// ctx's error if the deadline forced cancellation of a request still
// admitted or queued, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.drain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		// The deadline may be seen before done closes on an idle server.
		// Once admission is draining, a request that holds no slot and
		// waits for none is only being turned away, so nothing is forced.
		if active, queued := s.adm.snapshot(); active+queued > 0 {
			forced = ctx.Err()
			s.baseCancel()
		}
		<-done // in-flight work observes cancellation and unwinds
	}
	s.w.PersistResident()
	return forced
}

// --- probes and introspection ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// handleMetricz reports the model fingerprint every artifact key
// carries (a peer whose model differs misses every key), the run
// summary, with the heap measured now under run.mem, the artifact store
// snapshot and the admission state.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	active, queued := s.adm.snapshot()
	s.mc.RecordMemStats()
	writeJSON(w, http.StatusOK, struct {
		Model     string          `json:"model"`
		Run       metrics.Summary `json:"run"`
		Artifacts artifact.Stats  `json:"artifacts"`
		Active    int             `json:"active_requests"`
		Queued    int             `json:"queued_requests"`
		Draining  bool            `json:"draining"`
	}{core.ModelFingerprint, s.mc.Summary(), s.w.ArtifactStats(), active, queued, s.draining.Load()})
}

// --- request plumbing ---

// errorBody is the JSON error envelope: what failed and how it
// classifies (transient errors are worth a client retry).
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	kind := "permanent"
	switch {
	case faults.IsTransient(err):
		kind = "transient"
	case errors.Is(err, context.DeadlineExceeded):
		kind = "deadline"
	case errors.Is(err, context.Canceled):
		kind = "cancelled"
	}
	writeJSON(w, status, errorBody{Error: err.Error(), Kind: kind})
}

// requestTimeout resolves the request's execution deadline: ?timeout=
// parsed as a Go duration, clamped to MaxTimeout, defaulting to
// DefaultTimeout. An unparsable value is a usage error.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			return 0, fmt.Errorf("server: bad timeout %q", v)
		}
		d = parsed
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// execute runs fn under the daemon's full request discipline: the
// server.accept fault site, drain checks, FIFO admission with
// load-shedding, the per-request deadline (which starts at admission, so
// queue wait does not count against it), and the server.handle fault
// site, then fn, once, and writes its result or error as one JSON body.
// The context passed to fn dies when the client disconnects, the
// deadline passes, or a drain deadline forces cancellation.
//
// Identical concurrent requests each take their own admission slot; the
// work they share collapses one layer down, in the artifact store, which
// runs every build once for all its waiters, lets a surviving waiter
// adopt a build whose originating request disconnected, and starts a
// fresh build for a request that arrives after the last waiter left.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, endpoint string, fn func(ctx context.Context) (any, error)) {
	start := time.Now()
	if err := faults.Fire(SiteAccept); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Done()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// A drain deadline cancels in-flight work through baseCtx.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	qstart := time.Now()
	err = s.adm.acquire(ctx)
	s.mc.Observe(metrics.HistServerQueueWait+"."+endpoint, time.Since(qstart))
	if err != nil {
		// Never executed: a shed, a drain rejection, or a client that gave
		// up while queued. None of these count as server_failed.
		s.mc.Observe(metrics.HistServerLatency+"."+endpoint, time.Since(start))
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			w.Header().Set("Retry-After", strconv.Itoa(int(shed.RetryAfter.Seconds())))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, statusForContext(ctx), err)
		}
		return
	}
	defer s.adm.release()

	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}
	estart := time.Now()
	var res any
	if err = faults.Fire(SiteHandle); err == nil {
		res, err = fn(ctx)
	}
	s.mc.Observe(metrics.HistServerExec+"."+endpoint, time.Since(estart))
	s.mc.Observe(metrics.HistServerLatency+"."+endpoint, time.Since(start))

	if err != nil {
		s.mc.Add(metrics.CounterServerFailed, 1)
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// Client gone or drain-forced; the status is best-effort.
			status = http.StatusServiceUnavailable
		case faults.IsTransient(err):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	s.mc.Add(metrics.CounterServerCompleted, 1)
	writeJSON(w, http.StatusOK, res)
}

func statusForContext(ctx context.Context) int {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// --- endpoints ---

// ExperimentResult is the JSON form of one completed experiment. Render
// is the deterministic serialization (Experiment.Render) — the server's
// bit-identity contract with the CLI: for the same id and workspace
// configuration it is byte-for-byte what `experiments` would print from
// its tables. A failed experiment answers with an error status and an
// error body instead, whose message decodes into Error.
type ExperimentResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title,omitempty"`
	Claim   string             `json:"claim,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Render  string             `json:"render,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// maxBodyBytes bounds a request body. The largest legitimate one, a
// /v1/predeval request with a full predictor geometry, is a few hundred
// bytes.
const maxBodyBytes = 64 << 10

// Request bodies, one per query endpoint.
type (
	experimentRequest struct {
		ID string `json:"id"`
	}
	predEvalRequest struct {
		Bench  string      `json:"bench"`
		Flavor string      `json:"flavor"`
		Config *dip.Config `json:"config"`
	}
	profileRequest struct {
		Bench string `json:"bench"`
	}
)

// decodeBody decodes the request body, which must be exactly one JSON
// value with no unknown fields, into v. On failure it answers 413 for a
// body over maxBodyBytes, 400 for anything else, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("server: bad request body: %w", err))
	return false
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req experimentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !slices.Contains(core.ExperimentIDs(), req.ID) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: unknown experiment %q", req.ID))
		return
	}
	s.execute(w, r, "experiment", func(ctx context.Context) (any, error) {
		exps, err := s.w.RunExperiments(ctx, []string{req.ID})
		if err != nil {
			return nil, err
		}
		e := exps[0]
		return ExperimentResult{
			ID: e.ID, Title: e.Title, Claim: e.Claim,
			Metrics: e.Metrics, Render: e.Render(),
		}, nil
	})
}

// PredEvalResult wraps a predictor evaluation with its derived rates, so
// clients need not recompute them.
type PredEvalResult struct {
	Bench    string     `json:"bench"`
	Spec     string     `json:"spec"`
	Result   dip.Result `json:"result"`
	Coverage float64    `json:"coverage"`
	Accuracy float64    `json:"accuracy"`
}

func (s *Server) handlePredEval(w http.ResponseWriter, r *http.Request) {
	var req predEvalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, err := workload.ByName(req.Bench); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := dip.Spec{Flavor: req.Flavor, Config: dip.DefaultConfig()}
	if spec.Flavor == "" {
		spec.Flavor = dip.FlavorCFI
	}
	if req.Config != nil {
		spec.Config = *req.Config
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.execute(w, r, "predeval", func(ctx context.Context) (any, error) {
		res, err := s.w.EvalPredictorCtx(ctx, req.Bench, spec)
		if err != nil {
			return nil, err
		}
		return PredEvalResult{
			Bench: req.Bench, Spec: spec.Label(), Result: res,
			Coverage: res.Coverage(), Accuracy: res.Accuracy(),
		}, nil
	})
}

// ProfileStats is the profile-query response: the oracle summary and
// static locality for one benchmark, read from its default facts, so a
// warm workspace answers without opening a trace.
type ProfileStats struct {
	Bench        string            `json:"bench"`
	Budget       int               `json:"budget"`
	Summary      deadness.Summary  `json:"summary"`
	Locality     deadness.Locality `json:"locality"`
	DeadFraction float64           `json:"dead_fraction"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, err := workload.ByName(req.Bench); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.execute(w, r, "profile", func(ctx context.Context) (any, error) {
		f, err := s.w.Facts(ctx, req.Bench, nil)
		if err != nil {
			return nil, err
		}
		return ProfileStats{
			Bench: req.Bench, Budget: s.w.Budget,
			Summary: f.Summary, Locality: f.Locality,
			DeadFraction: f.Summary.DeadFraction(),
		}, nil
	})
}

// --- artifact export (the remote-tier wire protocol) ---

// validArtifactPath checks the {kind}/{digest} route values: kind is a
// short lowercase identifier, digest a sha256 hex string — both double
// as disk-tier file names, so nothing else is allowed through.
func validArtifactPath(kind, digest string) error {
	ok := func(s string, minLen, maxLen int, hexOnly bool) bool {
		if len(s) < minLen || len(s) > maxLen {
			return false
		}
		for _, c := range s {
			switch {
			case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
			case !hexOnly && (c >= 'g' && c <= 'z' || c == '_' || c == '-'):
			default:
				return false
			}
		}
		return true
	}
	if !ok(kind, 1, 64, false) {
		return fmt.Errorf("server: bad artifact kind %q", kind)
	}
	if !ok(digest, 64, 64, true) {
		return fmt.Errorf("server: bad artifact digest %q", digest)
	}
	return nil
}

// handleArtifactGet serves one encoded artifact, CRC-framed with the
// disk tier's header, from the workspace's memory or disk tier. The
// export is read-only: there is no upload route, so everything served
// here was built by this daemon, loaded from its own disk tier, or
// fetched by it. The endpoint bypasses admission: it never computes,
// only copies bytes, and throttling it would defeat the remote tier's
// purpose of making a warm peer cheaper than a rebuild. It stays up
// during drain for the same reason — a draining daemon's artifacts are
// exactly the warm state a successor wants to pull.
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	kind, digest := r.PathValue("kind"), r.PathValue("digest")
	if err := validArtifactPath(kind, digest); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	framed, spilled, err := s.w.EncodedArtifactFrame(
		artifact.Key{Kind: artifact.Kind(kind), Digest: digest})
	if err != nil {
		if errors.Is(err, artifact.ErrNotFound) {
			s.mc.Add(metrics.CounterServerArtifactMisses, 1)
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.mc.Add(metrics.CounterServerArtifactHits, 1)
	if spilled {
		// Served straight off the disk tier's entry file: the framed bytes
		// on disk are the wire format, no re-encode happened.
		s.mc.Add(metrics.CounterServerArtifactSpillthrough, 1)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(framed)
}

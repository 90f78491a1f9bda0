package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/dip"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Artifact kinds the workspace derives. They form a small DAG: a profile
// (compiled, emulated, linked and analyzed trace) feeds its facts (the
// small summaries), predictor evaluations and machine runs. Only
// default-option profiles are artifacts: a facts build under other compile
// options builds its profile privately and keeps none. Every kind
// is addressed by a canonical digest of its full input spec, so two
// experiments asking for the same computation share one artifact
// regardless of which asked first.
const (
	// KindProgram names no artifact: a profile build compiles its own
	// program. It stays declared only because benchmark/layers.go reads
	// it.
	KindProgram artifact.Kind = "program"
	// KindProfile is an emulated + analyzed trace with its summaries,
	// compiled with the workload's own options: (benchmark, budget).
	KindProfile artifact.Kind = "profile"
	// KindFacts is a profile's small summaries (ProfileFacts): benchmark,
	// budget, compile options, E18's window sizes and a format version.
	KindFacts artifact.Kind = "facts"
	// KindPredEval is one trace-level predictor evaluation: (benchmark,
	// budget, canonical dip.Spec digest).
	KindPredEval artifact.Kind = "predeval"
	// KindMachine is one pipeline simulation: (benchmark, budget,
	// canonical pipeline.Config digest).
	KindMachine artifact.Kind = "machine"
)

// Counter names the workspace reports through its metrics collector.
// They alias the artifact store's per-kind counters: a "build" is a
// cache miss, a "memo hit" is a cache hit (including waiting on an
// in-flight build, so hits+misses is schedule-independent).
const (
	// CounterProfileBuilds counts profile artifacts built from scratch
	// (emulate + link + analyze): default-option profiles only, since a
	// compile-option variant is built inside its facts build.
	CounterProfileBuilds = "artifact_misses." + string(KindProfile)
	// CounterProfileMemoHits counts profile requests served from the
	// artifact store.
	CounterProfileMemoHits = "artifact_hits." + string(KindProfile)
	// CounterMachineSims counts pipeline simulations actually executed.
	CounterMachineSims = "artifact_misses." + string(KindMachine)
	// CounterMachineMemoHits counts machine runs served from the store: a
	// (benchmark, config-digest) pair another experiment already simulated.
	CounterMachineMemoHits = "artifact_hits." + string(KindMachine)
)

// Workspace derives per-benchmark traces, oracle analyses, profile facts,
// predictor evaluations, and machine simulations through a
// content-addressed artifact store, so the experiment drivers can run
// many machine configurations over the same inputs without re-emulating
// or re-simulating. It is safe for concurrent use: each artifact is
// built exactly once (single-flight), and all heavy work is bounded by
// the workspace pool.
type Workspace struct {
	Budget int
	// Metrics, when non-nil, receives phase timings and artifact-cache
	// counters. Set it before first use; a nil collector disables
	// collection at zero cost.
	Metrics *metrics.Collector

	// Timeout bounds each experiment with a deadline that propagates
	// through the pool fan-out (0 = none).
	Timeout time.Duration
	// KeepGoing switches RunExperiments to partial-results mode: every
	// experiment runs to completion and failures are reported per
	// experiment instead of cancelling the whole run.
	KeepGoing bool

	mu    sync.Mutex
	store *artifact.Store
	pool  *Pool
}

// profileSpec keys a profile artifact. Every profile artifact uses the
// workload's own compile options. The spec once also held an omitempty
// options pointer, nil for these profiles, so the digests are unchanged
// and tiers written before keep serving them (TestDefaultProfileKeyPinned).
type profileSpec struct {
	Bench  string
	Budget int
}

// predEvalSpec keys a predictor-evaluation artifact. The predictor
// itself contributes through the canonical dip.Spec digest, so the two
// digest schemes compose and cannot drift.
type predEvalSpec struct {
	Bench      string
	Budget     int
	SpecDigest string
}

// machineSpec keys a machine-run artifact via the canonical
// pipeline.Config digest.
type machineSpec struct {
	Bench        string
	Budget       int
	ConfigDigest string
}

// NewWorkspace creates a workspace with the given per-benchmark dynamic
// instruction budget (DefaultBudget if 0) and a GOMAXPROCS-bounded pool.
func NewWorkspace(budget int) *Workspace {
	return NewWorkspaceWorkers(budget, 0)
}

// NewWorkspaceWorkers creates a workspace whose heavy tasks run at most
// workers at a time (GOMAXPROCS if workers <= 0).
func NewWorkspaceWorkers(budget, workers int) *Workspace {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Workspace{
		Budget: budget,
		pool:   NewPool(workers),
	}
}

// Pool returns the workspace's bounded task pool.
func (w *Workspace) Pool() *Pool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pool == nil {
		w.pool = NewPool(0)
	}
	return w.pool
}

// artifacts returns the workspace's artifact store, creating it on first
// use. The collector reference is refreshed on every access so a
// Metrics field assigned after construction still receives the store's
// counters.
func (w *Workspace) artifacts() *artifact.Store {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.store == nil {
		w.store = artifact.New()
		// Only successes and deterministic (permanent) failures are
		// memoized: an artifact that fails transiently — an injected
		// fault, a cancelled context — is forgotten so the next request
		// rebuilds it.
		w.store.MemoErr = func(err error) bool { return !evictable(err) }
		// Register the persistable kinds.
		w.store.RegisterCodec(KindProfile, profileCodec{w.Budget})
		w.store.RegisterCodec(KindFacts, factsCodec)
		w.store.RegisterCodec(KindPredEval, predEvalCodec{})
		w.store.RegisterCodec(KindMachine, machineCodec{})
	}
	w.store.SetMetrics(w.Metrics)
	return w.store
}

// OpenDiskCache attaches a persistent disk tier rooted at dir to the
// workspace's artifact store: profiles, their facts, predictor
// evaluations, and machine runs write through to a content-addressed
// on-disk cache, and cold misses load from disk instead of rebuilding.
// budgetBytes bounds the directory (0 = unlimited; the oldest entries are
// garbage-collected beyond it). The directory may be shared with
// concurrent processes. Call before the first artifact request.
func (w *Workspace) OpenDiskCache(dir string, budgetBytes int64) error {
	d, err := artifact.OpenDisk(dir, budgetBytes)
	if err != nil {
		return err
	}
	w.artifacts().SetDisk(d)
	return nil
}

// SetRemoteTier attaches a remote artifact cache — typically an
// internal/client.Cache pointed at a warm daemon — as the third lookup
// tier behind memory and disk: cold misses fetch from it (a verified hit
// also warms the disk tier). The tier is read-only; what this workspace
// builds stays local. nil detaches. Call before the first artifact
// request.
func (w *Workspace) SetRemoteTier(r artifact.RemoteTier) {
	w.artifacts().SetRemote(r)
}

// RemoteTierAttached reports whether a remote artifact tier is attached.
func (w *Workspace) RemoteTierAttached() bool {
	return w.artifacts().RemoteTierAttached()
}

// ArtifactStats snapshots the workspace's artifact-cache counters and
// residency for run reports.
func (w *Workspace) ArtifactStats() artifact.Stats {
	return w.artifacts().Stats()
}

// EncodedArtifactFrame serves the daemon's artifact GET endpoint: the
// CRC-framed wire image for a completed artifact, encoded fresh when it
// is resident and read as-is from the disk tier's entry file otherwise
// (spilled=true); artifact.ErrNotFound when the workspace holds it in
// neither tier.
func (w *Workspace) EncodedArtifactFrame(key artifact.Key) (framed []byte, spilled bool, err error) {
	return w.artifacts().EncodedFrame(key)
}

// PersistResident writes every resident artifact that has no disk entry
// through to the disk tier, so anything whose write-through was lost —
// e.g. to an injected artifact.disk fault — gets a second attempt. The
// daemon calls it during graceful drain so warm state survives a
// restart.
func (w *Workspace) PersistResident() {
	w.artifacts().PersistResident()
}

// ProfileOf returns the trace-level analysis of a suite benchmark,
// building it on first use. Readers of the summaries alone should use
// Facts, which a warm store answers without decoding the trace.
func (w *Workspace) ProfileOf(name string) (*ProfileResult, error) {
	return w.ProfileOfCtx(context.Background(), name)
}

// ProfileOfCtx is ProfileOf with cooperative cancellation of this
// requester's interest in the profile. The context governs the
// requester, not the build itself: builds run on a detached context
// owned by every requester currently waiting on them. Cancelling ctx
// while other requesters wait hands the in-flight build to the survivors
// (artifact_adoptions); only when the last interested requester
// disconnects is the emulation aborted and its pooled resources
// released. A cancelled build is forgotten (see evictable), so the next
// request rebuilds deterministically.
func (w *Workspace) ProfileOfCtx(ctx context.Context, name string) (*ProfileResult, error) {
	key := artifact.Key{Kind: KindProfile, Digest: artifact.Digest(profileSpec{name, w.Budget})}
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (*ProfileResult, int64, error) {
		return w.buildProfile(bctx, name)
	})
}

// buildProfile runs one profile build with panic containment. The panic
// is converted to an error here, inside the build, so the store memoizes
// it like any other deterministic failure.
func (w *Workspace) buildProfile(ctx context.Context, name string) (res *ProfileResult, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, size, err = nil, 0, recoveredError(fmt.Sprintf("core: profiling %s panicked", name), r)
		}
	}()
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return nil, 0, fmt.Errorf("core: profiling %s: %w", name, err)
	}
	p, err := workload.ByName(name)
	if err != nil {
		return nil, 0, err
	}
	res, err = profileWith(ctx, p, nil, w.Budget, w.Metrics)
	if err != nil {
		return nil, 0, err
	}
	return res, res.SizeBytes(), nil
}

// evictable reports whether an artifact's failure should be forgotten so
// the next request rebuilds it: transient faults and context cancellation
// or expiry (a run aborted mid-build must not poison the next run).
// Deterministic failures stay memoized — rebuilding would just fail again.
func evictable(err error) bool {
	return faults.IsTransient(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// EvalPredictor runs one predictor evaluation — any registered flavor —
// over a benchmark's trace, served from the predictor-evaluation
// artifact: specs canonicalize before digesting, so e.g. the default
// CFI point requested by E5, E6, and E11 evaluates once.
func (w *Workspace) EvalPredictor(name string, spec dip.Spec) (dip.Result, error) {
	return w.EvalPredictorCtx(context.Background(), name, spec)
}

// EvalPredictorCtx is EvalPredictor with cooperative cancellation of any
// profile build the evaluation initiates (see ProfileOfCtx). An invalid
// spec fails before any artifact entry exists; only a build constructs
// the predictor, so a cache hit allocates no predictor state.
func (w *Workspace) EvalPredictorCtx(ctx context.Context, name string, spec dip.Spec) (dip.Result, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return dip.Result{}, err
	}
	key := artifact.Key{Kind: KindPredEval, Digest: artifact.Digest(predEvalSpec{name, w.Budget, spec.Digest()})}
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (dip.Result, int64, error) {
		return w.buildPredEval(bctx, name, spec)
	})
}

// predEvalSize is the flat resident footprint reported per evaluation result.
const predEvalSize = int64(128)

func (w *Workspace) buildPredEval(ctx context.Context, name string, spec dip.Spec) (res dip.Result, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, size, err = dip.Result{}, 0,
				recoveredError(fmt.Sprintf("core: evaluating %s on %s panicked", spec.Label(), name), r)
		}
	}()
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return dip.Result{}, 0, fmt.Errorf("core: evaluating %s on %s: %w", spec.Label(), name, err)
	}
	pred, err := spec.New()
	if err != nil {
		return dip.Result{}, 0, err
	}
	p, err := w.ProfileOfCtx(ctx, name)
	if err != nil {
		return dip.Result{}, 0, err
	}
	sp := w.Metrics.Start("predict", name+" "+spec.Label())
	res, err = pred.Evaluate(p.Trace, p.Analysis)
	sp.End(int64(p.Trace.Len()))
	if err != nil {
		return dip.Result{}, 0, err
	}
	return res, predEvalSize, nil
}

// RunMachine simulates one benchmark on one machine configuration,
// served from the machine-run artifact keyed by (benchmark, canonical
// configuration digest): sweeps and elim-off/on pairs shared across
// experiments simulate exactly once, and repeats are served from the
// store (counted by CounterMachineMemoHits). The simulation itself runs
// on the calling goroutine — callers fanning out should do so through
// the workspace pool.
func (w *Workspace) RunMachine(name string, cfg pipeline.Config) (pipeline.Stats, error) {
	return w.RunMachineCtx(context.Background(), name, cfg)
}

// RunMachineCtx is RunMachine with cooperative cancellation of any
// profile build the simulation initiates (see ProfileOfCtx). The
// pipeline simulation itself is not interruptible; the profile build
// dominates a cold request's wall time.
func (w *Workspace) RunMachineCtx(ctx context.Context, name string, cfg pipeline.Config) (pipeline.Stats, error) {
	key := artifact.Key{Kind: KindMachine, Digest: artifact.Digest(machineSpec{name, w.Budget, cfg.Digest()})}
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (pipeline.Stats, int64, error) {
		return w.simulate(bctx, name, cfg)
	})
}

// machineStatsSize is the flat resident footprint reported per simulation result.
const machineStatsSize = int64(512)

func (w *Workspace) simulate(ctx context.Context, name string, cfg pipeline.Config) (st pipeline.Stats, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, size, err = pipeline.Stats{}, 0,
				recoveredError(fmt.Sprintf("core: simulating %s panicked", name), r)
		}
	}()
	if err := faults.Fire(faults.SiteSimulate); err != nil {
		return pipeline.Stats{}, 0, fmt.Errorf("core: simulating %s %s: %w", name, cfg.Label(), err)
	}
	res, err := w.ProfileOfCtx(ctx, name)
	if err != nil {
		return pipeline.Stats{}, 0, err
	}
	sp := w.Metrics.Start(metrics.PhaseSimulate, fmt.Sprintf("%s %s", name, cfg.Label()))
	st, err = pipeline.Run(res.Trace, res.Analysis, cfg)
	sp.End(int64(res.Trace.Len()))
	if err != nil {
		return pipeline.Stats{}, 0, fmt.Errorf("core: simulating %s: %w", name, err)
	}
	return st, machineStatsSize, nil
}

// SuiteNames returns the benchmark names in suite order.
func SuiteNames() []string {
	profiles := workload.Suite()
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// overSuite runs fn for every suite benchmark through the workspace's
// bounded pool and returns the results in suite order (the concurrency is
// invisible in the output: every per-benchmark computation is independent
// and deterministic, and errors surface in suite order).
func overSuite[T any](ctx context.Context, w *Workspace, fn func(name string) (T, error)) ([]T, error) {
	names := SuiteNames()
	out := make([]T, len(names))
	err := w.Pool().ForEach(ctx, len(names), func(i int) error {
		v, err := fn(names[i])
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

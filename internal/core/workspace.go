package core

import (
	"context"
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
// small summaries), predictor evaluations and machine runs, and those
// feed experiments. Only default-option profiles are artifacts: a facts
// build under other compile options builds its profile privately and
// keeps none. Every kind is addressed by a canonical digest of its full
// input spec, so two experiments asking for the same computation share
// one artifact regardless of which asked first.
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
	// KindExperiment is one completed experiment: (ID, budget). Its
	// codec persists what Render reads, so a warm run reads one entry
	// per experiment and none of the artifacts it was built from; the
	// driver code that made it is named by ModelFingerprint, which every
	// key carries.
	KindExperiment artifact.Kind = "experiment"
)

// ModelFingerprint names the model and driver code that produce every
// artifact value: it is a hash of what a canary run of E1-E21 renders and
// persists, and every artifact key carries it (artifactKey). A change to
// the emulator, the analysis, a predictor, the timing model, a driver or
// a codec that alters any of those bytes fails TestModelFingerprint,
// which prints the new value. Updating the constant re-keys every kind,
// so every disk and remote cache written under the old value is never
// read again, and a peer daemon built from other code misses every key.
const ModelFingerprint = "7bb94f0886d7e4ca"

// modelSpec is what an artifact key digests: the kind's spec under the
// model that answers it.
type modelSpec struct {
	Model string
	Spec  any
}

// artifactKey addresses the artifact of kind k built from spec. It is the
// one place keys are made, so no kind can miss the fingerprint: a bump
// that re-keyed only experiments would rebuild them from stale machine
// and predictor-evaluation entries.
func artifactKey(k artifact.Kind, spec any) artifact.Key {
	return artifact.Key{Kind: k, Digest: artifact.Digest(modelSpec{ModelFingerprint, spec})}
}

// Workspace derives per-benchmark traces, oracle analyses, profile facts,
// predictor evaluations, and machine simulations through a
// content-addressed artifact store, so the experiment drivers can run
// many machine configurations over the same inputs without re-emulating
// or re-simulating. It is safe for concurrent use: each artifact is
// built exactly once (single-flight), and all heavy work is bounded by
// the workspace pool.
type Workspace struct {
	Budget int
	// Metrics, when non-nil, receives phase timings and the engine's
	// counters; the artifact store's counts are in ArtifactStats. Set it
	// before first use; a nil collector disables collection at zero cost.
	Metrics *metrics.Collector

	// Timeout bounds each experiment with a deadline that propagates
	// through the pool fan-out and into the builds it waits on (0 = none).
	Timeout time.Duration

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

// experimentSpec keys an experiment artifact.
type experimentSpec struct {
	ID     string
	Budget int
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
// use.
func (w *Workspace) artifacts() *artifact.Store {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.store == nil {
		w.store = artifact.New()
		// Register the persistable kinds.
		w.store.RegisterCodec(KindProfile, profileCodec{w.Budget})
		w.store.RegisterCodec(KindFacts, factsCodec)
		w.store.RegisterCodec(KindPredEval, predEvalCodec{})
		w.store.RegisterCodec(KindMachine, machineCodec{})
		w.store.RegisterCodec(KindExperiment, experimentCodec{})
	}
	return w.store
}

// OpenDiskCache attaches a persistent disk tier rooted at dir to the
// workspace's artifact store: profiles, their facts, predictor
// evaluations, machine runs and experiments write through to a
// content-addressed on-disk cache, and cold misses load from disk
// instead of rebuilding, so a warm E1-E21 reads its 21 experiment
// entries and nothing else. Every key carries ModelFingerprint, so a
// tier written by another model is never read.
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
// (KindStats.Adoptions); only when the last interested requester
// disconnects is the emulation aborted. The store forgets a cancelled
// build, so the next request rebuilds deterministically.
func (w *Workspace) ProfileOfCtx(ctx context.Context, name string) (*ProfileResult, error) {
	key := artifactKey(KindProfile, profileSpec{name, w.Budget})
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (*ProfileResult, error) {
		return w.buildProfile(bctx, name)
	})
}

// buildProfile runs one profile build. A panic in it is contained by
// the artifact store, which never memoizes one.
func (w *Workspace) buildProfile(ctx context.Context, name string) (*ProfileResult, error) {
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", name, err)
	}
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return profileWith(ctx, p, nil, w.Budget, w.Metrics)
}

// EvalPredictor runs one predictor evaluation — any registered flavor —
// over a benchmark's trace, served from the predictor-evaluation
// artifact: specs canonicalize before digesting, so e.g. the default
// CFI point requested by E5, E6, and E11 evaluates once.
func (w *Workspace) EvalPredictor(name string, spec dip.Spec) (dip.Result, error) {
	return w.EvalPredictorCtx(context.Background(), name, spec)
}

// EvalPredictorCtx is EvalPredictor for a requester that can stop
// waiting, as RunMachineCtx is. An invalid spec fails before any artifact
// entry exists; only a build constructs the predictor, so a cache hit
// allocates no predictor state.
func (w *Workspace) EvalPredictorCtx(ctx context.Context, name string, spec dip.Spec) (dip.Result, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return dip.Result{}, err
	}
	key := artifactKey(KindPredEval, predEvalSpec{name, w.Budget, spec.Digest()})
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (dip.Result, error) {
		return w.buildPredEval(bctx, name, spec)
	})
}

func (w *Workspace) buildPredEval(ctx context.Context, name string, spec dip.Spec) (dip.Result, error) {
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return dip.Result{}, fmt.Errorf("core: evaluating %s on %s: %w", spec.Label(), name, err)
	}
	pred, err := spec.New()
	if err != nil {
		return dip.Result{}, err
	}
	p, err := w.ProfileOfCtx(ctx, name)
	if err != nil {
		return dip.Result{}, err
	}
	sp := w.Metrics.Start("predict", name+" "+spec.Label())
	res, err := pred.Evaluate(p.Trace, p.Analysis)
	sp.End(int64(p.Trace.Len()))
	if err != nil {
		return dip.Result{}, err
	}
	return res, nil
}

// RunMachine simulates one benchmark on one machine configuration,
// served from the machine-run artifact keyed by (benchmark, canonical
// configuration digest): sweeps and elim-off/on pairs shared across
// experiments simulate exactly once, and repeats are served from the
// store (machine hits in ArtifactStats). The caller waits while the
// store's build goroutine simulates — callers fanning out should do so
// through the workspace pool.
func (w *Workspace) RunMachine(name string, cfg pipeline.Config) (pipeline.Stats, error) {
	return w.RunMachineCtx(context.Background(), name, cfg)
}

// RunMachineCtx is RunMachine for a requester that can stop waiting:
// when ctx ends it returns ctx.Err() at once, and the build, with any
// profile build it started, is cancelled unless another requester still
// waits on it (see ProfileOfCtx). A running pipeline simulation does not
// check its context: an abandoned one runs out on its own goroutine, and
// its result is dropped.
func (w *Workspace) RunMachineCtx(ctx context.Context, name string, cfg pipeline.Config) (pipeline.Stats, error) {
	key := artifactKey(KindMachine, machineSpec{name, w.Budget, cfg.Digest()})
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (pipeline.Stats, error) {
		return w.simulate(bctx, name, cfg)
	})
}

func (w *Workspace) simulate(ctx context.Context, name string, cfg pipeline.Config) (pipeline.Stats, error) {
	if err := faults.Fire(faults.SiteSimulate); err != nil {
		return pipeline.Stats{}, fmt.Errorf("core: simulating %s %s: %w", name, cfg.Label(), err)
	}
	res, err := w.ProfileOfCtx(ctx, name)
	if err != nil {
		return pipeline.Stats{}, err
	}
	sp := w.Metrics.Start(metrics.PhaseSimulate, fmt.Sprintf("%s %s", name, cfg.Label()))
	st, err := pipeline.Run(res.Trace, res.Analysis, cfg)
	sp.End(int64(res.Trace.Len()))
	if err != nil {
		return pipeline.Stats{}, fmt.Errorf("core: simulating %s: %w", name, err)
	}
	return st, nil
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

package core

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/compiler"
	"repro/internal/deadness"
	"repro/internal/faults"
	"repro/internal/workload"
)

// factsVersion is the format generation of ProfileFacts. The facts spec
// carries it, so changing the value's fields re-keys every entry: the
// strict JSON codec refuses unknown fields but decodes a missing one as
// zero, and an older entry read under the same key would answer with
// zero-filled facts. TestFactsVersionPinsLayout fails on any change to
// the shape of ProfileFacts until this is bumped.
const factsVersion = 1

// factsSpec keys a facts artifact: the benchmark, the budget, the
// compile options (nil means the workload's own), the window sizes E18
// re-analyzes, and the format version. Only E18 names windows; every
// other reader shares the window-less entry.
type factsSpec struct {
	Version int
	Bench   string
	Budget  int
	Opts    *compiler.Options `json:",omitempty"`
	Windows []int             `json:",omitempty"`
}

// ProfileFacts is everything the summary readers take from a profile:
// E1-E4, E12, E16, E18, E19 and deadprof. It is a small plain value
// built once from the profile and persisted on its own, so a warm
// run answers those readers without decoding a trace.
type ProfileFacts struct {
	Summary   deadness.Summary
	Locality  deadness.Locality
	PassStats compiler.PassStats
	// DeadResolve is the resolve-distance distribution of the oracle-dead
	// instances (E16).
	DeadResolve deadness.DistanceStats
	Mix         deadness.Mix
	// WindowDead[i] is the dead fraction measured over disjoint windows of
	// the spec's Windows[i] instructions (E18); nil when the spec names no
	// windows.
	WindowDead []float64
}

// factsCodec persists KindFacts artifacts as strict JSON.
var factsCodec = artifact.JSONCodec[ProfileFacts]{}

// Facts returns the profile facts of a suite benchmark compiled with opts
// (nil means the workload's own options). Only a build reads a profile;
// facts served from memory, disk or the remote tier read no trace.
func (w *Workspace) Facts(ctx context.Context, name string, opts *compiler.Options) (ProfileFacts, error) {
	return w.facts(ctx, name, opts, nil)
}

// facts is Facts with E18's window sizes, which are part of the key.
func (w *Workspace) facts(ctx context.Context, name string, opts *compiler.Options, windows []int) (ProfileFacts, error) {
	key := artifactKey(KindFacts, factsSpec{factsVersion, name, w.Budget, opts, windows})
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (ProfileFacts, error) {
		return w.buildFacts(bctx, name, opts, windows)
	})
}

// buildFacts derives the facts from the profile, with the same fault
// site as buildPredEval.
func (w *Workspace) buildFacts(ctx context.Context, name string, opts *compiler.Options, windows []int) (ProfileFacts, error) {
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return ProfileFacts{}, fmt.Errorf("core: summarizing %s: %w", name, err)
	}
	res, err := w.factsProfile(ctx, name, opts)
	if err != nil {
		return ProfileFacts{}, err
	}
	f := ProfileFacts{
		Summary:     res.Summary,
		Locality:    res.Locality,
		PassStats:   res.PassStats,
		DeadResolve: res.Analysis.ResolveDistances(true),
		Mix:         deadness.ComputeMix(res.Trace),
	}
	for _, win := range windows {
		d, err := windowedDeadFraction(res.Trace, win)
		if err != nil {
			return ProfileFacts{}, err
		}
		f.WindowDead = append(f.WindowDead, d)
	}
	return f, nil
}

// factsProfile returns the profile a facts build reads. The
// default-option profile comes from the store, because predictor
// evaluations and machine runs share it. A compile-option variant (E3's
// no-hoist, E12's with-DCE) has no other reader, so it is built here,
// outside the store, and becomes garbage once the facts are computed.
func (w *Workspace) factsProfile(ctx context.Context, name string, opts *compiler.Options) (*ProfileResult, error) {
	if opts == nil {
		return w.ProfileOfCtx(ctx, name)
	}
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return profileWith(ctx, p, opts, w.Budget, w.Metrics)
}

// suiteFacts returns every suite benchmark's default facts, in suite
// order, fetched through the workspace's bounded pool.
func suiteFacts(ctx context.Context, w *Workspace) ([]ProfileFacts, error) {
	return overSuite(ctx, w, func(name string) (ProfileFacts, error) {
		return w.Facts(ctx, name, nil)
	})
}

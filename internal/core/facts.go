package core

import (
	"context"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/compiler"
	"repro/internal/deadness"
	"repro/internal/faults"
)

// factsVersion is the format generation of ProfileFacts. The facts spec
// carries it, so changing the value's fields re-keys every entry: the
// strict JSON codec refuses unknown fields but decodes a missing one as
// zero, and an older entry read under the same key would answer with
// zero-filled facts. TestFactsVersionPinsLayout fails on any change to
// the shape of ProfileFacts until this is bumped.
const factsVersion = 1

// factsSpec keys a facts artifact: the profile's key (benchmark, budget,
// compile options), the window sizes E18 re-analyzes, and the format
// version. Only E18 names windows; every other reader shares the
// window-less entry.
type factsSpec struct {
	Version int
	Bench   string
	Budget  int
	Opts    *compiler.Options `json:",omitempty"`
	Windows []int             `json:",omitempty"`
}

// ProfileFacts is everything the summary readers take from a profile:
// E1-E4, E12, E16, E18, E19 and deadprof. It is a small plain value
// built once from the pinned profile and persisted on its own, so a warm
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

// factsSize is the flat footprint charged per facts value.
const factsSize = int64(4096)

// factsCodec persists KindFacts artifacts as strict JSON.
var factsCodec = artifact.JSONCodec[ProfileFacts]{Size: factsSize}

// Facts returns the profile facts of a suite benchmark compiled with opts
// (nil means the workload's own options). Only a build opens the profile;
// facts served from memory, disk or the remote tier read no trace.
func (w *Workspace) Facts(ctx context.Context, name string, opts *compiler.Options) (ProfileFacts, error) {
	return w.facts(ctx, name, opts, nil)
}

// facts is Facts with E18's window sizes, which are part of the key.
func (w *Workspace) facts(ctx context.Context, name string, opts *compiler.Options, windows []int) (ProfileFacts, error) {
	key := artifact.Key{Kind: KindFacts, Digest: artifact.Digest(factsSpec{factsVersion, name, w.Budget, opts, windows})}
	f, release, err := artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (ProfileFacts, int64, error) {
		return w.buildFacts(bctx, name, opts, windows)
	})
	release()
	return f, err
}

// buildFacts derives the facts from the profile, pinned for the duration,
// with the same panic containment and fault site as buildPredEval.
func (w *Workspace) buildFacts(ctx context.Context, name string, opts *compiler.Options, windows []int) (f ProfileFacts, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, size, err = ProfileFacts{}, 0, recoveredError(fmt.Sprintf("core: summarizing %s panicked", name), r)
		}
	}()
	if err := faults.Fire(faults.SiteWorkspaceMemo); err != nil {
		return ProfileFacts{}, 0, fmt.Errorf("core: summarizing %s: %w", name, err)
	}
	res, release, err := w.profileFor(ctx, name, opts)
	if err != nil {
		return ProfileFacts{}, 0, err
	}
	defer release()
	f = ProfileFacts{
		Summary:     res.Summary,
		Locality:    res.Locality,
		PassStats:   res.PassStats,
		DeadResolve: res.Analysis.ResolveDistances(true),
		Mix:         deadness.ComputeMix(res.Trace),
	}
	for _, win := range windows {
		d, err := windowedDeadFraction(res.Trace, win)
		if err != nil {
			return ProfileFacts{}, 0, err
		}
		f.WindowDead = append(f.WindowDead, d)
	}
	return f, factsSize, nil
}

// suiteFacts returns every suite benchmark's default facts, in suite
// order, fetched through the workspace's bounded pool.
func suiteFacts(ctx context.Context, w *Workspace) ([]ProfileFacts, error) {
	return overSuite(ctx, w, func(name string) (ProfileFacts, error) {
		return w.Facts(ctx, name, nil)
	})
}

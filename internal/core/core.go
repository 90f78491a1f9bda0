// Package core is the facade tying the substrates together: it runs a
// workload through the emulator, the deadness oracle, the dead-instruction
// predictor, and the pipeline timing model, and exposes one driver per
// experiment (E1-E21) of DESIGN.md's experiment index.
package core

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultBudget is the per-benchmark dynamic instruction budget used by
// the experiment drivers.
const DefaultBudget = 1_000_000

// ProfileResult bundles everything a trace-level analysis produces.
type ProfileResult struct {
	Bench     string
	Trace     *trace.Trace
	Analysis  *deadness.Analysis
	Summary   deadness.Summary
	Locality  deadness.Locality
	PassStats compiler.PassStats
}

// Profile builds a benchmark (optionally overriding its compile options),
// runs it for at most budget instructions, and runs the deadness oracle
// in-line with emulation (emu.CollectAnalyzed).
func Profile(p workload.Profile, opts *compiler.Options, budget int) (*ProfileResult, error) {
	return profileWith(context.Background(), p, opts, budget, nil)
}

// profileWith is Profile with cooperative cancellation and phase-level
// observability: compile, emulate, and analyze each report wall time,
// instruction throughput, and allocation deltas through the (nil-safe)
// collector.
func profileWith(ctx context.Context, p workload.Profile, opts *compiler.Options, budget int, mc *metrics.Collector) (*ProfileResult, error) {
	sp := mc.Start(metrics.PhaseCompile, p.Name)
	prog, passStats, err := p.Compile(opts)
	sp.End(0)
	if err != nil {
		return nil, err
	}
	// The streaming path runs the fused link+analyze pass one chunk behind
	// the emulator; the spans it records keep emulation and the analysis
	// tail separate. A ctx cancellation aborts the emulation within a few
	// thousand instructions.
	tr, a, _, err := emu.CollectAnalyzedCtx(ctx, prog, budget, mc, p.Name)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", p.Name, err)
	}
	res := &ProfileResult{
		Bench:     p.Name,
		Trace:     tr,
		Analysis:  a,
		Summary:   a.Summarize(tr, prog),
		PassStats: passStats,
	}
	res.Locality = deadness.ComputeLocality(a.StaticProfile(tr), nil)
	return res, nil
}

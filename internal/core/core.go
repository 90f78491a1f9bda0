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
	"repro/internal/dip"
	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultBudget is the per-benchmark dynamic instruction budget used by
// the experiment drivers.
const DefaultBudget = 1_000_000

// ProfileResult bundles everything a trace-level analysis produces.
type ProfileResult struct {
	Bench     string
	Prog      *program.Program
	Trace     *trace.Trace
	Analysis  *deadness.Analysis
	Summary   deadness.Summary
	Locality  deadness.Locality
	PassStats compiler.PassStats

	// opts records the compile-option override the profile was built with
	// (nil = the workload's own options), so the persistent artifact tier
	// can recompile the program on decode instead of serializing it.
	opts *compiler.Options
}

// SizeBytes estimates the resident footprint charged against the
// workspace's artifact-cache budget: the columnar trace dominates, with
// the per-record analysis arrays second.
func (r *ProfileResult) SizeBytes() int64 {
	var n int64 = 4096 // summaries, locality, headers
	if r.Trace != nil {
		n += r.Trace.SizeBytes()
	}
	if r.Analysis != nil {
		n += r.Analysis.SizeBytes()
	}
	return n
}

// ReleaseArtifact returns the profile's pooled trace chunks to the
// chunk pool when the artifact store evicts it. Only unpinned profiles
// are evicted, so no reader can still hold the trace.
func (r *ProfileResult) ReleaseArtifact() {
	if r.Trace != nil {
		r.Trace.Release()
	}
}

// Profile builds a benchmark (optionally overriding its compile options),
// runs it for at most budget instructions, and runs the deadness oracle
// in-line with emulation (emu.CollectAnalyzed).
func Profile(p workload.Profile, opts *compiler.Options, budget int) (*ProfileResult, error) {
	return profileWith(p, opts, budget, nil)
}

// profileWith is Profile with phase-level observability: compile, emulate,
// and analyze each report wall time, instruction throughput, and
// allocation deltas through the (nil-safe) collector.
func profileWith(p workload.Profile, opts *compiler.Options, budget int, mc *metrics.Collector) (*ProfileResult, error) {
	sp := mc.Start(metrics.PhaseCompile, p.Name)
	prog, passStats, err := p.Compile(opts)
	sp.End(0)
	if err != nil {
		return nil, err
	}
	return profileProgramWith(context.Background(), p.Name, prog, passStats, budget, mc)
}

// ProfileProgram runs the oracle analysis over an already-compiled program.
func ProfileProgram(name string, prog *program.Program, passStats compiler.PassStats, budget int) (*ProfileResult, error) {
	return profileProgramWith(context.Background(), name, prog, passStats, budget, nil)
}

func profileProgramWith(ctx context.Context, name string, prog *program.Program, passStats compiler.PassStats, budget int, mc *metrics.Collector) (*ProfileResult, error) {
	// The streaming path runs the fused link+analyze pass one chunk behind
	// the emulator; the spans it records keep emulation and the analysis
	// tail separate. A ctx cancellation aborts the emulation within a few
	// thousand instructions and releases every pooled resource the partial
	// run held (trace chunk arenas, writer-map pages).
	tr, a, _, err := emu.CollectAnalyzedCtx(ctx, prog, budget, mc, name)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", name, err)
	}
	res := &ProfileResult{
		Bench:     name,
		Prog:      prog,
		Trace:     tr,
		Analysis:  a,
		Summary:   a.Summarize(tr, prog),
		PassStats: passStats,
	}
	res.Locality = deadness.ComputeLocality(a.StaticProfile(tr), nil)
	return res, nil
}

// EvalPredictor runs a dead-instruction predictor configuration over a
// benchmark's trace (the predicted-path CFI flavor, or the oracle-path
// flavor when actualPath is set), routed through the dip.Predictor
// registry.
func EvalPredictor(p workload.Profile, cfg dip.Config, budget int, actualPath bool) (dip.Result, error) {
	spec := dip.Spec{Flavor: dip.FlavorCFI, Config: cfg}
	if actualPath {
		spec.Flavor = dip.FlavorOracle
	}
	pred, err := spec.New()
	if err != nil {
		return dip.Result{}, err
	}
	prof, err := Profile(p, nil, budget)
	if err != nil {
		return dip.Result{}, err
	}
	return pred.Evaluate(prof.Trace, prof.Analysis)
}

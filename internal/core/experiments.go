package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dip"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Experiment is the result of one reproduced table or figure (see the
// experiment index in DESIGN.md).
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper statement the experiment reproduces.
	Claim string
	Table *stats.Table
	// Figure, when non-nil, is the ASCII rendering of the experiment's
	// sweep — the analogue of the paper's figure for that experiment.
	Figure *stats.Chart
	// Metrics carries the headline numbers (percentages as fractions)
	// checked by the benchmark harness and recorded in EXPERIMENTS.md.
	Metrics map[string]float64
	// Wall is how long the experiment's build took. It is measured
	// inside the build, so an experiment served again from memory
	// reports its one build's time, and one read from the disk or remote
	// tier reports 0: the codec does not store it. It reflects
	// scheduling and memoization, so it is excluded from deterministic
	// comparisons.
	Wall time.Duration
	// Err is the failure of an experiment that did not complete, as
	// RunExperiments reports it; such an entry carries no Table, Figure,
	// or Metrics.
	Err error
}

// ExperimentIDs lists the reproduced experiments in order.
func ExperimentIDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
		"e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21"}
}

// E1 measures the dynamic dead-instruction fraction of every benchmark and
// its breakdown by level and operation class.
func (w *Workspace) E1(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e1",
		Title: "Dynamic dead-instruction fraction",
		Claim: "3 to 16% of dynamic instructions are dead",
		Table: stats.NewTable("bench", "dyn-insts", "dead%", "first-level%",
			"transitive%", "dead-ALU", "dead-loads", "dead-stores"),
		Metrics: map[string]float64{},
	}
	facts, err := suiteFacts(ctx, w)
	if err != nil {
		return nil, err
	}
	var fracs []float64
	for i, name := range SuiteNames() {
		s := facts[i].Summary
		f := s.DeadFraction()
		fracs = append(fracs, f)
		firstLevel, err := safeDiv(s.FirstLevel, s.Dead)
		if err != nil {
			return nil, fmt.Errorf("e1 %s first-level share: %w", name, err)
		}
		transitive, err := safeDiv(s.Transitive, s.Dead)
		if err != nil {
			return nil, fmt.Errorf("e1 %s transitive share: %w", name, err)
		}
		e.Table.AddRow(name, fmt.Sprint(s.Total), stats.Pct(f),
			stats.Pct(firstLevel), stats.Pct(transitive),
			fmt.Sprint(s.DeadALU), fmt.Sprint(s.DeadLoads), fmt.Sprint(s.DeadStores))
	}
	e.Table.AddRow("MEAN", "", stats.Pct(stats.Mean(fracs)), "", "", "", "", "")
	e.Metrics["dead_min"] = stats.Min(fracs)
	e.Metrics["dead_max"] = stats.Max(fracs)
	e.Metrics["dead_mean"] = stats.Mean(fracs)
	return e, nil
}

// E2 shows that most dynamic dead instances come from static instructions
// that also produce useful results (partially dead statics).
func (w *Workspace) E2(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e2",
		Title: "Partially dead static instructions",
		Claim: "the majority of dead instances arise from static instructions that also produce useful results",
		Table: stats.NewTable("bench", "dead-statics", "fully-dead", "partially-dead",
			"dead-from-partial%", "mostly-dead-share%"),
		Metrics: map[string]float64{},
	}
	facts, err := suiteFacts(ctx, w)
	if err != nil {
		return nil, err
	}
	var fromPartial []float64
	for i, name := range SuiteNames() {
		loc := facts[i].Locality
		fromPartial = append(fromPartial, loc.DeadFromPartial)
		e.Table.AddRow(name, fmt.Sprint(loc.DeadStatics),
			fmt.Sprint(loc.FullyDeadStatics), fmt.Sprint(loc.PartiallyDeadStatics),
			stats.Pct(loc.DeadFromPartial), stats.Pct(loc.MostlyDeadShare))
	}
	e.Table.AddRow("MEAN", "", "", "", stats.Pct(stats.Mean(fromPartial)), "")
	e.Metrics["dead_from_partial_mean"] = stats.Mean(fromPartial)
	return e, nil
}

// E3 is the compiler-scheduling ablation: dead fraction with the suite's
// production options versus hoisting disabled, plus the dead volume
// attributed to each provenance class. The no-hoist rebuilds are
// independent per benchmark and run through the bounded pool.
func (w *Workspace) E3(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e3",
		Title: "Compiler scheduling creates partially dead instructions",
		Claim: "compiler optimization (specifically instruction scheduling) creates a significant portion of partially dead static instructions",
		Table: stats.NewTable("bench", "dead%", "dead%-nohoist", "delta",
			"hoist-dead", "spill-dead", "callconv-dead", "licm-dead", "normal-dead"),
		Metrics: map[string]float64{},
	}
	type pair struct{ res, noh ProfileFacts }
	results, err := overSuite(ctx, w, func(name string) (pair, error) {
		res, err := w.Facts(ctx, name, nil)
		if err != nil {
			return pair{}, err
		}
		prof, err := workload.ByName(name)
		if err != nil {
			return pair{}, err
		}
		opts := prof.Opts
		opts.MaxHoist = 0
		noh, err := w.Facts(ctx, name, &opts)
		if err != nil {
			return pair{}, err
		}
		return pair{res, noh}, nil
	})
	if err != nil {
		return nil, err
	}
	var with, without []float64
	for i, name := range SuiteNames() {
		s, noh := results[i].res.Summary, results[i].noh
		f0, f1 := s.DeadFraction(), noh.Summary.DeadFraction()
		with = append(with, f0)
		without = append(without, f1)
		e.Table.AddRow(name, stats.Pct(f0), stats.Pct(f1),
			fmt.Sprintf("%+.1fpp", 100*(f0-f1)),
			fmt.Sprint(s.ByProv[program.ProvHoisted].Dead),
			fmt.Sprint(s.ByProv[program.ProvSpill].Dead+s.ByProv[program.ProvReload].Dead),
			fmt.Sprint(s.ByProv[program.ProvCallSave].Dead+s.ByProv[program.ProvCallRestore].Dead),
			fmt.Sprint(s.ByProv[program.ProvLICM].Dead),
			fmt.Sprint(s.ByProv[program.ProvNormal].Dead+s.ByProv[program.ProvGlue].Dead))
	}
	e.Table.AddRow("MEAN", stats.Pct(stats.Mean(with)), stats.Pct(stats.Mean(without)),
		fmt.Sprintf("%+.1fpp", 100*(stats.Mean(with)-stats.Mean(without))), "", "", "", "", "")
	e.Metrics["dead_mean_with_hoist"] = stats.Mean(with)
	e.Metrics["dead_mean_no_hoist"] = stats.Mean(without)
	return e, nil
}

// E4 measures the static locality of dead instances.
func (w *Workspace) E4(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e4",
		Title: "Static locality of dead instances",
		Claim: "most dead instances arise from a small set of static instructions that are dead most of the time",
		Table: stats.NewTable("bench", "dead-statics", "top8-cov%", "top16-cov%",
			"top32-cov%", "top64-cov%", "mostly-dead-share%"),
		Metrics: map[string]float64{},
	}
	facts, err := suiteFacts(ctx, w)
	if err != nil {
		return nil, err
	}
	var top16, mostly []float64
	for i, name := range SuiteNames() {
		loc := facts[i].Locality
		covAt := func(pt int) float64 {
			for i, p := range loc.CoveragePoints {
				if p == pt {
					return loc.CoverageAt[i]
				}
			}
			return 0
		}
		top16 = append(top16, covAt(16))
		mostly = append(mostly, loc.MostlyDeadShare)
		e.Table.AddRow(name, fmt.Sprint(loc.DeadStatics),
			stats.Pct(covAt(8)), stats.Pct(covAt(16)),
			stats.Pct(covAt(32)), stats.Pct(covAt(64)),
			stats.Pct(loc.MostlyDeadShare))
	}
	e.Table.AddRow("MEAN", "", "", stats.Pct(stats.Mean(top16)), "", "",
		stats.Pct(stats.Mean(mostly)))
	e.Metrics["top16_coverage_mean"] = stats.Mean(top16)
	e.Metrics["mostly_dead_share_mean"] = stats.Mean(mostly)
	return e, nil
}

// E5 evaluates the default dead-instruction predictor.
func (w *Workspace) E5(ctx context.Context) (*Experiment, error) {
	cfg := dip.DefaultConfig()
	e := &Experiment{
		ID:    "e5",
		Title: "Dead-instruction predictor at the paper design point",
		Claim: "93% accuracy while identifying over 91% of dead instructions using less than 5 KB of state",
		Table: stats.NewTable("bench", "dead", "covered", "coverage%",
			"accuracy%", "false+", "branch-acc%"),
		Metrics: map[string]float64{},
	}
	results, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
		return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
	})
	if err != nil {
		return nil, err
	}
	var covs, accs []float64
	for i, name := range SuiteNames() {
		r := results[i]
		covs = append(covs, r.Coverage())
		accs = append(accs, r.Accuracy())
		e.Table.AddRow(name, fmt.Sprint(r.Dead), fmt.Sprint(r.TruePos),
			stats.Pct(r.Coverage()), stats.Pct(r.Accuracy()),
			fmt.Sprint(r.FalsePositives()), stats.Pct(r.BranchAccuracy))
	}
	e.Table.AddRow("MEAN", "", "", stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)), "", "")
	e.Metrics["coverage_mean"] = stats.Mean(covs)
	e.Metrics["accuracy_mean"] = stats.Mean(accs)
	e.Metrics["state_kb"] = cfg.StateKB()
	return e, nil
}

// E6 is the future-control-flow ablation: the CFI predictor against a
// plain per-PC counter at the same design point, plus the actual-path
// oracle upper bound.
func (w *Workspace) E6(ctx context.Context) (*Experiment, error) {
	withCFI := dip.DefaultConfig()
	noCFI := dip.DefaultConfig()
	noCFI.PathLen = 0
	e := &Experiment{
		ID:    "e6",
		Title: "Future control-flow information ablation",
		Claim: "high accuracy comes from leveraging future control flow (branch predictions) to distinguish useless from useful instances",
		Table: stats.NewTable("bench", "cfi-cov%", "cfi-acc%", "counter-cov%",
			"counter-acc%", "oracle-cov%", "oracle-acc%"),
		Metrics: map[string]float64{},
	}
	type trio struct{ a, b, o dip.Result }
	results, err := overSuite(ctx, w, func(name string) (trio, error) {
		a, err := w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: withCFI})
		if err != nil {
			return trio{}, err
		}
		b, err := w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCounter, Config: noCFI})
		if err != nil {
			return trio{}, err
		}
		o, err := w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorOracle, Config: withCFI})
		if err != nil {
			return trio{}, err
		}
		return trio{a, b, o}, nil
	})
	if err != nil {
		return nil, err
	}
	var cfiAcc, ctrAcc, cfiCov, ctrCov []float64
	for i, name := range SuiteNames() {
		a, b, o := results[i].a, results[i].b, results[i].o
		cfiAcc = append(cfiAcc, a.Accuracy())
		ctrAcc = append(ctrAcc, b.Accuracy())
		cfiCov = append(cfiCov, a.Coverage())
		ctrCov = append(ctrCov, b.Coverage())
		e.Table.AddRow(name,
			stats.Pct(a.Coverage()), stats.Pct(a.Accuracy()),
			stats.Pct(b.Coverage()), stats.Pct(b.Accuracy()),
			stats.Pct(o.Coverage()), stats.Pct(o.Accuracy()))
	}
	e.Table.AddRow("MEAN", stats.Pct(stats.Mean(cfiCov)), stats.Pct(stats.Mean(cfiAcc)),
		stats.Pct(stats.Mean(ctrCov)), stats.Pct(stats.Mean(ctrAcc)), "", "")
	e.Metrics["cfi_accuracy_mean"] = stats.Mean(cfiAcc)
	e.Metrics["counter_accuracy_mean"] = stats.Mean(ctrAcc)
	e.Metrics["cfi_coverage_mean"] = stats.Mean(cfiCov)
	e.Metrics["counter_coverage_mean"] = stats.Mean(ctrCov)
	return e, nil
}

// E7 sweeps the predictor's state budget.
func (w *Workspace) E7(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e7",
		Title:   "Predictor state-budget sweep",
		Claim:   "a small table (<5 KB) suffices; coverage saturates with capacity",
		Table:   stats.NewTable("config", "state-KB", "coverage%", "accuracy%"),
		Metrics: map[string]float64{},
	}
	var covPts, accPts []stats.Point
	for _, cfg := range dip.SweepConfigs() {
		cfg := cfg
		results, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
			return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
		})
		if err != nil {
			return nil, err
		}
		var covs, accs []float64
		for _, r := range results {
			covs = append(covs, r.Coverage())
			accs = append(accs, r.Accuracy())
		}
		e.Table.AddRow(cfg.Name(), fmt.Sprintf("%.2f", cfg.StateKB()),
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)))
		e.Metrics[fmt.Sprintf("coverage_at_%.2fKB", cfg.StateKB())] = stats.Mean(covs)
		covPts = append(covPts, stats.Point{X: cfg.StateKB(), Y: 100 * stats.Mean(covs)})
		accPts = append(accPts, stats.Point{X: cfg.StateKB(), Y: 100 * stats.Mean(accs)})
	}
	e.Figure = &stats.Chart{
		Title: "predictor quality vs state budget", XLabel: "state (KB)", YLabel: "%",
		Series: []stats.Series{{Name: "coverage", Points: covPts}, {Name: "accuracy", Points: accPts}},
	}
	return e, nil
}

// elimPair runs one benchmark with elimination off and on. Both runs are
// memoized, so experiments sharing a configuration reuse the simulations.
func (w *Workspace) elimPair(ctx context.Context, name string, cfg pipeline.Config) (base, elim pipeline.Stats, err error) {
	base, err = w.RunMachineCtx(ctx, name, cfg)
	if err != nil {
		return
	}
	cfg.Elim = true
	elim, err = w.RunMachineCtx(ctx, name, cfg)
	return
}

// E8 measures resource-utilization reductions on the baseline machine.
func (w *Workspace) E8(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e8",
		Title: "Resource utilization reduction (baseline machine)",
		Claim: "reductions averaging over 5% and sometimes exceeding 10% in register management, register-file traffic, and data cache accesses",
		Table: stats.NewTable("bench", "eliminated%", "reg-alloc-red%",
			"rf-read-red%", "rf-write-red%", "dcache-red%", "recoveries"),
		Metrics: map[string]float64{},
	}
	cfg := pipeline.BaselineConfig()
	type pair struct{ base, elim pipeline.Stats }
	results, err := overSuite(ctx, w, func(name string) (pair, error) {
		base, elim, err := w.elimPair(ctx, name, cfg)
		return pair{base, elim}, err
	})
	if err != nil {
		return nil, err
	}
	var alloc, rfr, rfw, dc []float64
	for i, name := range SuiteNames() {
		base, elim := results[i].base, results[i].elim
		var redErr error
		red := func(metric string, b, el int64) float64 {
			v, err := reduction(b, el)
			if err != nil && redErr == nil {
				redErr = fmt.Errorf("e8 %s %s: %w", name, metric, err)
			}
			return v
		}
		ra := red("phys-allocs", base.PhysAllocs, elim.PhysAllocs)
		rr := red("rf-reads", base.RFReads, elim.RFReads)
		rw := red("rf-writes", base.RFWrites, elim.RFWrites)
		rd := red("dcache-accesses", int64(base.Cache.Accesses), int64(elim.Cache.Accesses))
		if redErr != nil {
			return nil, redErr
		}
		frac, err := safeDiv(int(elim.Eliminated), int(elim.Committed))
		if err != nil {
			return nil, fmt.Errorf("e8 %s eliminated share: %w", name, err)
		}
		alloc = append(alloc, ra)
		rfr = append(rfr, rr)
		rfw = append(rfw, rw)
		dc = append(dc, rd)
		e.Table.AddRow(name,
			stats.Pct(frac),
			stats.Pct(ra), stats.Pct(rr), stats.Pct(rw), stats.Pct(rd),
			fmt.Sprint(elim.DeadMispredicts))
	}
	e.Table.AddRow("MEAN", "", stats.Pct(stats.Mean(alloc)), stats.Pct(stats.Mean(rfr)),
		stats.Pct(stats.Mean(rfw)), stats.Pct(stats.Mean(dc)), "")
	e.Metrics["alloc_reduction_mean"] = stats.Mean(alloc)
	e.Metrics["rf_read_reduction_mean"] = stats.Mean(rfr)
	e.Metrics["rf_write_reduction_mean"] = stats.Mean(rfw)
	e.Metrics["dcache_reduction_mean"] = stats.Mean(dc)
	e.Metrics["alloc_reduction_max"] = stats.Max(alloc)
	return e, nil
}

// E9 measures the speedup on the resource-contended machine.
func (w *Workspace) E9(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e9",
		Title: "Performance on a resource-contended machine",
		Claim: "performance improves by an average of 3.6% on an architecture exhibiting resource contention",
		Table: stats.NewTable("bench", "base-IPC", "elim-IPC", "speedup%",
			"eliminated", "recoveries", "freelist-stall-red%"),
		Metrics: map[string]float64{},
	}
	cfg := pipeline.ContendedConfig()
	type pair struct{ base, elim pipeline.Stats }
	results, err := overSuite(ctx, w, func(name string) (pair, error) {
		base, elim, err := w.elimPair(ctx, name, cfg)
		return pair{base, elim}, err
	})
	if err != nil {
		return nil, err
	}
	var speedups []float64
	for i, name := range SuiteNames() {
		base, elim := results[i].base, results[i].elim
		sp := elim.IPC()/base.IPC() - 1
		speedups = append(speedups, sp)
		stallRed, err := reduction(base.StallFreeList, elim.StallFreeList)
		if err != nil {
			return nil, fmt.Errorf("e9 %s freelist-stall reduction: %w", name, err)
		}
		e.Table.AddRow(name,
			fmt.Sprintf("%.3f", base.IPC()), fmt.Sprintf("%.3f", elim.IPC()),
			fmt.Sprintf("%+.1f%%", 100*sp),
			fmt.Sprint(elim.Eliminated), fmt.Sprint(elim.DeadMispredicts),
			stats.Pct(stallRed))
	}
	e.Table.AddRow("MEAN", "", "", fmt.Sprintf("%+.1f%%", 100*stats.Mean(speedups)), "", "", "")
	e.Metrics["speedup_mean"] = stats.Mean(speedups)
	e.Metrics["speedup_max"] = stats.Max(speedups)
	e.Metrics["speedup_min"] = stats.Min(speedups)
	return e, nil
}

// E10 sweeps the degree of contention (physical register file size).
func (w *Workspace) E10(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e10",
		Title:   "Speedup vs degree of resource contention",
		Claim:   "gains come from contention: an amply provisioned machine shows little speedup",
		Table:   stats.NewTable("phys-regs", "base-IPC", "elim-IPC", "speedup%"),
		Metrics: map[string]float64{},
	}
	// Sweep the register file on the otherwise amply provisioned baseline,
	// so the top end of the sweep isolates "no contention at all".
	var spPts []stats.Point
	for _, regs := range []int{40, 48, 56, 64, 96, 128} {
		cfg := pipeline.BaselineConfig()
		cfg.PhysRegs = regs
		type pair struct{ base, elim pipeline.Stats }
		results, err := overSuite(ctx, w, func(name string) (pair, error) {
			base, elim, err := w.elimPair(ctx, name, cfg)
			return pair{base, elim}, err
		})
		if err != nil {
			return nil, err
		}
		var baseIPC, elimIPC, sps []float64
		for _, r := range results {
			baseIPC = append(baseIPC, r.base.IPC())
			elimIPC = append(elimIPC, r.elim.IPC())
			sps = append(sps, r.elim.IPC()/r.base.IPC()-1)
		}
		sp := stats.Mean(sps)
		e.Table.AddRow(fmt.Sprint(regs),
			fmt.Sprintf("%.3f", stats.Mean(baseIPC)),
			fmt.Sprintf("%.3f", stats.Mean(elimIPC)),
			fmt.Sprintf("%+.1f%%", 100*sp))
		e.Metrics[fmt.Sprintf("speedup_at_%d_regs", regs)] = sp
		if regs == 128 {
			e.Metrics["speedup_uncontended"] = sp
		}
		spPts = append(spPts, stats.Point{X: float64(regs), Y: 100 * sp})
	}
	e.Figure = &stats.Chart{
		Title: "elimination speedup vs register file size", XLabel: "phys regs", YLabel: "speedup %",
		Series: []stats.Series{{Name: "speedup", Points: spPts}},
	}
	return e, nil
}

// safeDiv divides a by b. A zero denominator is reported as an explicit
// error rather than silently yielding 0: in an experiment table a 0/0
// means the underlying measurement was empty or degenerate, and masking
// it as "0%" hides the problem from the reader.
func safeDiv(a, b int) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("core: division by zero (%d/0): empty or degenerate measurement", a)
	}
	return float64(a) / float64(b), nil
}

// reduction computes the relative reduction from base to elim. A zero
// baseline is an explicit error for the same reason as safeDiv: "0%
// reduction of nothing" would silently mask a run that measured nothing.
func reduction(base, elim int64) (float64, error) {
	if base == 0 {
		return 0, fmt.Errorf("core: reduction against a zero baseline (elim=%d)", elim)
	}
	return 1 - float64(elim)/float64(base), nil
}

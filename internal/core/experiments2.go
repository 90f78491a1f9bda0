package core

import (
	"context"
	"fmt"

	"repro/internal/dip"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file holds the extension experiments beyond the paper's direct
// tables (E11-E14): sensitivity and limit studies for the design choices
// DESIGN.md calls out.

// E11 measures how the dead-instruction predictor degrades with the
// quality of the underlying branch direction predictor — the path
// signatures are only as good as the predictions they are built from.
func (w *Workspace) E11(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e11",
		Title:   "Sensitivity to branch-predictor quality",
		Claim:   "extension: path signatures inherit the branch predictor's accuracy; better direction prediction means better dead-instruction coverage",
		Table:   stats.NewTable("direction predictor", "branch-acc%", "coverage%", "accuracy%"),
		Metrics: map[string]float64{},
	}
	// The sweep is declarative: every registered direction predictor, by
	// name, through the same predictor-evaluation artifacts the other
	// experiments use (the gshare-4k row shares E5's artifact).
	dirs := []string{"static-taken", "bimodal-4k", "twolevel-4k", "gshare-4k", "tournament-4k"}
	cfg := dip.DefaultConfig()
	var covPts []stats.Point
	for _, dir := range dirs {
		dir := dir
		results, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
			return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg, Dir: dir})
		})
		if err != nil {
			return nil, err
		}
		var covs, accs, baccs []float64
		for _, r := range results {
			covs = append(covs, r.Coverage())
			accs = append(accs, r.Accuracy())
			baccs = append(baccs, r.BranchAccuracy)
		}
		e.Table.AddRow(dir, stats.Pct(stats.Mean(baccs)),
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)))
		e.Metrics["coverage_"+dir] = stats.Mean(covs)
		covPts = append(covPts, stats.Point{X: 100 * stats.Mean(baccs), Y: 100 * stats.Mean(covs)})
	}
	e.Figure = &stats.Chart{
		Title: "dead-instruction coverage vs branch accuracy", XLabel: "branch accuracy %", YLabel: "coverage %",
		Series: []stats.Series{{Name: "coverage", Points: covPts}},
	}
	// Oracle future directions as the upper bound.
	oracle, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
		return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorOracle, Config: cfg})
	})
	if err != nil {
		return nil, err
	}
	var covs, accs []float64
	for _, r := range oracle {
		covs = append(covs, r.Coverage())
		accs = append(accs, r.Accuracy())
	}
	e.Table.AddRow("oracle-paths", "100.0%",
		stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)))
	e.Metrics["coverage_oracle"] = stats.Mean(covs)
	return e, nil
}

// E12 contrasts static dead-code elimination with dynamic deadness:
// running a classic DCE pass removes the always-dead leftovers but cannot
// touch partially dead instructions, so the dynamic dead fraction barely
// moves. The with-DCE rebuilds are independent per benchmark and run
// through the bounded pool.
func (w *Workspace) E12(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e12",
		Title: "Static DCE cannot recover dynamic deadness",
		Claim: "extension of claim 2: dynamically dead instructions are mostly useful-on-some-path, so compile-time dead-code elimination cannot remove them",
		Table: stats.NewTable("bench", "dead%", "dead%-with-DCE", "delta",
			"statically-removed"),
		Metrics: map[string]float64{},
	}
	type pair struct{ res, dce ProfileFacts }
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
		opts.DCE = true
		withDCE, err := w.Facts(ctx, name, &opts)
		if err != nil {
			return pair{}, err
		}
		return pair{res, withDCE}, nil
	})
	if err != nil {
		return nil, err
	}
	var base, dce []float64
	for i, name := range SuiteNames() {
		res, withDCE := results[i].res, results[i].dce
		f0 := res.Summary.DeadFraction()
		f1 := withDCE.Summary.DeadFraction()
		base = append(base, f0)
		dce = append(dce, f1)
		e.Table.AddRow(name, stats.Pct(f0), stats.Pct(f1),
			fmt.Sprintf("%+.1fpp", 100*(f1-f0)),
			fmt.Sprint(withDCE.PassStats.DCERemoved))
	}
	e.Table.AddRow("MEAN", stats.Pct(stats.Mean(base)), stats.Pct(stats.Mean(dce)),
		fmt.Sprintf("%+.1fpp", 100*(stats.Mean(dce)-stats.Mean(base))), "")
	e.Metrics["dead_mean"] = stats.Mean(base)
	e.Metrics["dead_mean_dce"] = stats.Mean(dce)
	return e, nil
}

// E13 is the limit study: predictor-driven elimination against oracle
// elimination (perfect deadness knowledge, no recoveries) on the contended
// machine.
func (w *Workspace) E13(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e13",
		Title: "Predictor-driven vs oracle elimination (limit study)",
		Claim: "extension: how much of the perfect-knowledge headroom the real predictor captures",
		Table: stats.NewTable("bench", "base-IPC", "dip-IPC", "oracle-IPC",
			"dip-speedup%", "oracle-speedup%", "captured%"),
		Metrics: map[string]float64{},
	}
	cfg := pipeline.ContendedConfig()
	type triple struct{ base, dip, ora pipeline.Stats }
	results, err := overSuite(ctx, w, func(name string) (triple, error) {
		base, err := w.RunMachineCtx(ctx, name, cfg)
		if err != nil {
			return triple{}, err
		}
		dcfg := cfg
		dcfg.Elim = true
		dipSt, err := w.RunMachineCtx(ctx, name, dcfg)
		if err != nil {
			return triple{}, err
		}
		ocfg := cfg
		ocfg.Elim = true
		ocfg.OracleElim = true
		oraSt, err := w.RunMachineCtx(ctx, name, ocfg)
		if err != nil {
			return triple{}, err
		}
		return triple{base, dipSt, oraSt}, nil
	})
	if err != nil {
		return nil, err
	}
	var dips, oracles, captured []float64
	for i, name := range SuiteNames() {
		base, dipSt, oraSt := results[i].base, results[i].dip, results[i].ora
		spDip := dipSt.IPC()/base.IPC() - 1
		spOra := oraSt.IPC()/base.IPC() - 1
		dips = append(dips, spDip)
		oracles = append(oracles, spOra)
		cap := 0.0
		if spOra > 0 {
			cap = spDip / spOra
		}
		captured = append(captured, cap)
		e.Table.AddRow(name,
			fmt.Sprintf("%.3f", base.IPC()),
			fmt.Sprintf("%.3f", dipSt.IPC()),
			fmt.Sprintf("%.3f", oraSt.IPC()),
			fmt.Sprintf("%+.1f%%", 100*spDip),
			fmt.Sprintf("%+.1f%%", 100*spOra),
			stats.Pct(cap))
	}
	e.Table.AddRow("MEAN", "", "", "",
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(dips)),
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(oracles)),
		stats.Pct(stats.Mean(captured)))
	e.Metrics["dip_speedup_mean"] = stats.Mean(dips)
	e.Metrics["oracle_speedup_mean"] = stats.Mean(oracles)
	e.Metrics["captured_mean"] = stats.Mean(captured)
	return e, nil
}

// E15 deepens the memory system (L2 + slow main memory) and re-measures
// the elimination speedup. The interesting result is negative: speedups
// are essentially unchanged, and the memory-bound benchmark (mcf, whose
// pointer chase misses 40% of L1 accesses) gains almost nothing — when
// the bottleneck is a serialized chain of cache misses, executing fewer
// dead instructions does not shorten the critical path. Elimination pays
// off where *bandwidth and occupancy* contend, not where latency does.
func (w *Workspace) E15(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e15",
		Title: "Memory-hierarchy depth sensitivity",
		Claim: "extension: memory depth barely changes elimination's value — gains come from bandwidth/occupancy contention, not miss latency",
		Table: stats.NewTable("bench", "flat-speedup%", "deep-speedup%",
			"deep-L1-miss%", "deep-L2-miss%"),
		Metrics: map[string]float64{},
	}
	flatCfg := pipeline.ContendedConfig()
	deepCfg := pipeline.DeepMemoryConfig()
	type row struct {
		flat, deep             float64
		l1MissRate, l2MissRate float64
	}
	results, err := overSuite(ctx, w, func(name string) (row, error) {
		fb, fe, err := w.elimPair(ctx, name, flatCfg)
		if err != nil {
			return row{}, err
		}
		db, de, err := w.elimPair(ctx, name, deepCfg)
		if err != nil {
			return row{}, err
		}
		r := row{
			flat: fe.IPC()/fb.IPC() - 1,
			deep: de.IPC()/db.IPC() - 1,
		}
		if de.Cache.Accesses > 0 {
			r.l1MissRate = 1 - de.Cache.HitRate()
		}
		if de.L2.Accesses > 0 {
			r.l2MissRate = 1 - de.L2.HitRate()
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	var flats, deeps []float64
	for i, name := range SuiteNames() {
		r := results[i]
		flats = append(flats, r.flat)
		deeps = append(deeps, r.deep)
		e.Table.AddRow(name,
			fmt.Sprintf("%+.1f%%", 100*r.flat),
			fmt.Sprintf("%+.1f%%", 100*r.deep),
			stats.Pct(r.l1MissRate), stats.Pct(r.l2MissRate))
	}
	e.Table.AddRow("MEAN",
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(flats)),
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(deeps)), "", "")
	e.Metrics["flat_speedup_mean"] = stats.Mean(flats)
	e.Metrics["deep_speedup_mean"] = stats.Mean(deeps)
	return e, nil
}

// E14 sweeps the predictor's confidence machinery: counter width and
// prediction threshold trade coverage against accuracy (and therefore
// recovery cost).
func (w *Workspace) E14(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e14",
		Title:   "Predictor confidence sweep",
		Claim:   "extension: the confidence threshold trades coverage against the accuracy that keeps recoveries cheap",
		Table:   stats.NewTable("config", "coverage%", "accuracy%", "false+/Minst"),
		Metrics: map[string]float64{},
	}
	type point struct{ bits, thr int }
	var covPts, accPts []stats.Point
	for _, pt := range []point{{1, 1}, {2, 1}, {2, 2}, {2, 3}, {3, 4}, {3, 7}} {
		cfg := dip.DefaultConfig()
		cfg.CounterBits = pt.bits
		cfg.Threshold = pt.thr
		results, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
			return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
		})
		if err != nil {
			return nil, err
		}
		var covs, accs []float64
		fp, insts := 0, 0
		for _, r := range results {
			covs = append(covs, r.Coverage())
			accs = append(accs, r.Accuracy())
			fp += r.FalsePositives()
			insts += r.Candidates
		}
		e.Table.AddRow(cfg.Name(), stats.Pct(stats.Mean(covs)),
			stats.Pct(stats.Mean(accs)),
			fmt.Sprintf("%.0f", 1e6*float64(fp)/float64(insts)))
		e.Metrics[fmt.Sprintf("coverage_b%d_t%d", pt.bits, pt.thr)] = stats.Mean(covs)
		e.Metrics[fmt.Sprintf("accuracy_b%d_t%d", pt.bits, pt.thr)] = stats.Mean(accs)
		covPts = append(covPts, stats.Point{X: float64(pt.thr), Y: 100 * stats.Mean(covs)})
		accPts = append(accPts, stats.Point{X: float64(pt.thr), Y: 100 * stats.Mean(accs)})
	}
	e.Figure = &stats.Chart{
		Title: "confidence threshold tradeoff", XLabel: "threshold", YLabel: "%",
		Series: []stats.Series{{Name: "coverage", Points: covPts}, {Name: "accuracy", Points: accPts}},
	}
	return e, nil
}

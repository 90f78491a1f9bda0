package core

import (
	"context"
	"fmt"

	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
)

// This file holds the ineffectuality experiments (E19-E21): the
// generalization of deadness to silent stores and trivial operations, the
// steering predictor that learns it, and the two-cluster machine that
// exploits it (DESIGN.md §11).

// E19 measures ineffectuality rates by class and provenance: how much
// dynamic work beyond the strictly dead produces no architectural change
// — stores that rewrite the bytes already in memory, and operations whose
// result equals one of their inputs.
func (w *Workspace) E19(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e19",
		Title: "Ineffectuality rates by class and provenance",
		Claim: "extension: silent stores and trivial operations widen the paper's dead fraction into a strictly larger pool of removable work",
		Table: stats.NewTable("bench", "dead%", "silent-stores", "silent%-of-stores",
			"trivial-ops", "ineff%", "dead+ineff-reach%"),
		Metrics: map[string]float64{},
	}
	facts, err := suiteFacts(ctx, w)
	if err != nil {
		return nil, err
	}
	var deadF, ineffF, silentRate []float64
	var pts []stats.Point
	var byProv [program.NumProvenances]deadness.ProvCount
	for i, name := range SuiteNames() {
		s := facts[i].Summary
		df, nf := s.DeadFraction(), s.IneffFraction()
		deadF = append(deadF, df)
		ineffF = append(ineffF, nf)
		sr := 0.0
		if s.Stores > 0 {
			sr = float64(s.SilentStores) / float64(s.Stores)
		}
		silentRate = append(silentRate, sr)
		// Dead and ineffectual overlap (a dead silent store is both), so the
		// combined reach is bounded above by their sum; the table reports
		// that bound as the widened pool the mechanisms can share.
		e.Table.AddRow(name, stats.Pct(df),
			fmt.Sprint(s.SilentStores), stats.Pct(sr),
			fmt.Sprint(s.TrivialOps), stats.Pct(nf), stats.Pct(df+nf))
		pts = append(pts, stats.Point{X: 100 * df, Y: 100 * nf})
		for p := range byProv {
			byProv[p].Dyn += s.ByProv[p].Dyn
			byProv[p].Silent += s.ByProv[p].Silent
			byProv[p].Trivial += s.ByProv[p].Trivial
		}
	}
	e.Table.AddRow("MEAN", stats.Pct(stats.Mean(deadF)), "", stats.Pct(stats.Mean(silentRate)),
		"", stats.Pct(stats.Mean(ineffF)), stats.Pct(stats.Mean(deadF)+stats.Mean(ineffF)))
	// Provenance attribution over the whole suite: which compiler
	// transformations emit the ineffectual work.
	for p, c := range byProv {
		if c.Silent+c.Trivial == 0 {
			continue
		}
		prov := program.Provenance(p)
		e.Table.AddRow("prov:"+prov.String(), "",
			fmt.Sprint(c.Silent), "", fmt.Sprint(c.Trivial), "", "")
		e.Metrics[fmt.Sprintf("ineff_prov_%s", prov)] =
			float64(c.Silent + c.Trivial)
	}
	e.Metrics["ineff_mean"] = stats.Mean(ineffF)
	e.Metrics["ineff_max"] = stats.Max(ineffF)
	e.Metrics["silent_store_rate_mean"] = stats.Mean(silentRate)
	e.Metrics["dead_mean"] = stats.Mean(deadF)
	e.Figure = &stats.Chart{
		Title: "ineffectual vs dead fraction per benchmark", XLabel: "dead %", YLabel: "ineffectual %",
		Series: []stats.Series{{Name: "benchmarks", Points: pts}},
	}
	return e, nil
}

// E20 sweeps the steering predictor: every registered direction predictor
// reinterpreted over ineffectuality outcomes, measuring how well a per-PC
// binary predictor learns which instances are ineffectual.
func (w *Workspace) E20(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e20",
		Title:   "Steering-predictor accuracy and coverage",
		Claim:   "extension: ineffectuality is strongly PC-correlated, so small per-PC predictors steer accurately; history-indexed tables add little",
		Table:   stats.NewTable("steer predictor", "coverage%", "accuracy%", "state-KB"),
		Metrics: map[string]float64{},
	}
	dirs := []string{"static-taken", "bimodal-4k", "twolevel-4k", "gshare-4k", "tournament-4k"}
	var covPts, accPts []stats.Point
	for _, dir := range dirs {
		dir := dir
		results, err := overSuite(ctx, w, func(name string) (dip.Result, error) {
			return w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorSteer, Dir: dir})
		})
		if err != nil {
			return nil, err
		}
		var covs, accs []float64
		bits := 0
		for _, r := range results {
			covs = append(covs, r.Coverage())
			accs = append(accs, r.Accuracy())
			bits = r.StateBits
		}
		kb := float64(bits) / 8192
		e.Table.AddRow(dir, stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)),
			fmt.Sprintf("%.2f", kb))
		e.Metrics["steer_coverage_"+dir] = stats.Mean(covs)
		e.Metrics["steer_accuracy_"+dir] = stats.Mean(accs)
		covPts = append(covPts, stats.Point{X: kb, Y: 100 * stats.Mean(covs)})
		accPts = append(accPts, stats.Point{X: kb, Y: 100 * stats.Mean(accs)})
	}
	e.Figure = &stats.Chart{
		Title: "steering quality vs state budget", XLabel: "state (KB)", YLabel: "%",
		Series: []stats.Series{{Name: "coverage", Points: covPts}, {Name: "accuracy", Points: accPts}},
	}
	return e, nil
}

// E21 pits the two-cluster steered machine against the paper's
// elimination-only mechanism on the contended configuration: elimination
// removes dead work outright, steering degrades ineffectual work onto
// narrow lanes, and the two compose.
func (w *Workspace) E21(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e21",
		Title: "Two-cluster steering vs elimination-only",
		Claim: "extension: steering predicted-ineffectual work to a narrow cluster relieves full-width issue pressure and composes with dead-instruction elimination",
		Table: stats.NewTable("bench", "base-IPC", "elim-IPC", "steer-IPC", "both-IPC",
			"narrow-share%", "steer-misp%"),
		Metrics: map[string]float64{},
	}
	contended := pipeline.ContendedConfig()
	clustered := pipeline.ClusteredConfig()
	type quad struct{ base, elim, steer, both pipeline.Stats }
	results, err := overSuite(ctx, w, func(name string) (quad, error) {
		var q quad
		var err error
		if q.base, q.elim, err = w.elimPair(ctx, name, contended); err != nil {
			return q, err
		}
		if q.steer, err = w.RunMachineCtx(ctx, name, clustered); err != nil {
			return q, err
		}
		cfg := clustered
		cfg.Elim = true
		q.both, err = w.RunMachineCtx(ctx, name, cfg)
		return q, err
	})
	if err != nil {
		return nil, err
	}
	var spElim, spSteer, spBoth, narrowShare []float64
	for i, name := range SuiteNames() {
		q := results[i]
		spElim = append(spElim, q.elim.IPC()/q.base.IPC()-1)
		spSteer = append(spSteer, q.steer.IPC()/q.base.IPC()-1)
		spBoth = append(spBoth, q.both.IPC()/q.base.IPC()-1)
		share := 0.0
		if q.steer.Committed > 0 {
			share = float64(q.steer.ClusterCommitted[1]) / float64(q.steer.Committed)
		}
		narrowShare = append(narrowShare, share)
		misp := 0.0
		if q.steer.SteeredNarrow > 0 {
			misp = float64(q.steer.SteerMispredicts) / float64(q.steer.SteeredNarrow)
		}
		e.Table.AddRow(name,
			fmt.Sprintf("%.3f", q.base.IPC()), fmt.Sprintf("%.3f", q.elim.IPC()),
			fmt.Sprintf("%.3f", q.steer.IPC()), fmt.Sprintf("%.3f", q.both.IPC()),
			stats.Pct(share), stats.Pct(misp))
	}
	e.Table.AddRow("MEAN (speedup)", "",
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(spElim)),
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(spSteer)),
		fmt.Sprintf("%+.1f%%", 100*stats.Mean(spBoth)),
		stats.Pct(stats.Mean(narrowShare)), "")
	e.Metrics["speedup_elim_mean"] = stats.Mean(spElim)
	e.Metrics["speedup_steer_mean"] = stats.Mean(spSteer)
	e.Metrics["speedup_both_mean"] = stats.Mean(spBoth)
	e.Metrics["narrow_share_mean"] = stats.Mean(narrowShare)
	return e, nil
}

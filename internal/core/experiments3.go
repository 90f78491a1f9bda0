package core

import (
	"context"
	"fmt"

	"repro/internal/dip"
	"repro/internal/stats"
)

// E16 measures how quickly deadness outcomes resolve: the distance from a
// result-producing instruction to the overwrite or read that settles its
// fate. Short distances justify the mechanism's commit-time training and
// bound how long an eliminated instruction would wait for verification.
func (w *Workspace) E16(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e16",
		Title: "Resolve distance of deadness outcomes",
		Claim: "extension: outcomes resolve within a ROB's reach, so the predictor trains on timely, in-window information",
		Table: stats.NewTable("bench", "dead-resolved", "mean-dist", "p50",
			"p90", "p99", "within-ROB%", "unresolved"),
		Metrics: map[string]float64{},
	}
	facts, err := suiteFacts(ctx, w)
	if err != nil {
		return nil, err
	}
	var withins []float64
	for i, name := range SuiteNames() {
		st := facts[i].DeadResolve
		withins = append(withins, st.WithinROB)
		e.Table.AddRow(name, fmt.Sprint(st.Count),
			fmt.Sprintf("%.1f", st.Mean),
			fmt.Sprint(st.P50), fmt.Sprint(st.P90), fmt.Sprint(st.P99),
			stats.Pct(st.WithinROB), fmt.Sprint(st.Unresolved))
	}
	e.Table.AddRow("MEAN", "", "", "", "", "", stats.Pct(stats.Mean(withins)), "")
	e.Metrics["within_rob_mean"] = stats.Mean(withins)
	return e, nil
}

// E17 pits the dynamic predictor against an idealized profile-guided
// static hint (unbounded profile storage, threshold 0.9): the hint's
// accuracy is capped by the deadness ratios of partially dead
// instructions, which only future control flow can split.
func (w *Workspace) E17(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:    "e17",
		Title: "Profile-guided static hints vs dynamic prediction",
		Claim: "extension: per-instruction hints cannot separate useful from useless instances; the dynamic CFI predictor can",
		Table: stats.NewTable("bench", "hint90-cov%", "hint90-acc%",
			"hint50-cov%", "hint50-acc%", "dip-cov%", "dip-acc%"),
		Metrics: map[string]float64{},
	}
	cfg := dip.DefaultConfig()
	type trio struct{ strict, loose, dyn dip.Result }
	results, err := overSuite(ctx, w, func(name string) (trio, error) {
		strict, err := w.EvalPredictorCtx(ctx, name,
			dip.Spec{Flavor: dip.FlavorStaticHint, TrainFrac: 0.5, HintThreshold: 0.9})
		if err != nil {
			return trio{}, err
		}
		loose, err := w.EvalPredictorCtx(ctx, name,
			dip.Spec{Flavor: dip.FlavorStaticHint, TrainFrac: 0.5, HintThreshold: 0.5})
		if err != nil {
			return trio{}, err
		}
		dyn, err := w.EvalPredictorCtx(ctx, name, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
		if err != nil {
			return trio{}, err
		}
		return trio{strict: strict, loose: loose, dyn: dyn}, nil
	})
	if err != nil {
		return nil, err
	}
	var sc, sa, lc, la, dc, da []float64
	for i, name := range SuiteNames() {
		r := results[i]
		sc = append(sc, r.strict.Coverage())
		sa = append(sa, r.strict.Accuracy())
		lc = append(lc, r.loose.Coverage())
		la = append(la, r.loose.Accuracy())
		dc = append(dc, r.dyn.Coverage())
		da = append(da, r.dyn.Accuracy())
		e.Table.AddRow(name,
			stats.Pct(r.strict.Coverage()), stats.Pct(r.strict.Accuracy()),
			stats.Pct(r.loose.Coverage()), stats.Pct(r.loose.Accuracy()),
			stats.Pct(r.dyn.Coverage()), stats.Pct(r.dyn.Accuracy()))
	}
	e.Table.AddRow("MEAN", stats.Pct(stats.Mean(sc)), stats.Pct(stats.Mean(sa)),
		stats.Pct(stats.Mean(lc)), stats.Pct(stats.Mean(la)),
		stats.Pct(stats.Mean(dc)), stats.Pct(stats.Mean(da)))
	e.Metrics["hint90_coverage_mean"] = stats.Mean(sc)
	e.Metrics["hint90_accuracy_mean"] = stats.Mean(sa)
	e.Metrics["hint50_coverage_mean"] = stats.Mean(lc)
	e.Metrics["hint50_accuracy_mean"] = stats.Mean(la)
	e.Metrics["dip_coverage_mean"] = stats.Mean(dc)
	e.Metrics["dip_accuracy_mean"] = stats.Mean(da)
	return e, nil
}

package core

import (
	"context"
	"fmt"

	"repro/internal/deadness"
	"repro/internal/stats"
	"repro/internal/trace"
)

// E18 quantifies measurement-window bias: the deadness oracle is
// conservative at a window boundary (an unresolved value cannot be proven
// dead), so measuring dead fractions over short windows could in
// principle underestimate. The measured bias is negligible even on 10k
// windows — the flip side of E16's finding that outcomes resolve within a
// few instructions, so only a window's last handful of values are ever
// left unresolved. The suite's 1M-instruction budget is comfortably
// unbiased.
func (w *Workspace) E18(ctx context.Context) (*Experiment, error) {
	e := &Experiment{
		ID:      "e18",
		Title:   "Measurement-window bias of the deadness oracle",
		Claim:   "extension: window bias is negligible because outcomes resolve within a few instructions (see E16); the 1M budget is unbiased",
		Table:   stats.NewTable("window", "mean-dead%", "bias-vs-full"),
		Metrics: map[string]float64{},
	}
	windows := []int{10_000, 50_000, 250_000}

	// The windowed re-analysis costs two thirds of a profile build, so
	// only E18's facts carry it: the window sizes are part of their key.
	results, err := overSuite(ctx, w, func(name string) (ProfileFacts, error) {
		f, err := w.facts(ctx, name, nil, windows)
		if err == nil && len(f.WindowDead) != len(windows) {
			err = fmt.Errorf("e18 %s: facts hold %d window fractions, want %d", name, len(f.WindowDead), len(windows))
		}
		return f, err
	})
	if err != nil {
		return nil, err
	}

	var fulls []float64
	for _, r := range results {
		fulls = append(fulls, r.Summary.DeadFraction())
	}
	fullMean := stats.Mean(fulls)
	var pts []stats.Point
	for wi, win := range windows {
		var vals []float64
		for _, r := range results {
			vals = append(vals, r.WindowDead[wi])
		}
		m := stats.Mean(vals)
		e.Table.AddRow(fmt.Sprint(win), stats.Pct(m),
			fmt.Sprintf("%+.1fpp", 100*(m-fullMean)))
		e.Metrics[fmt.Sprintf("dead_mean_at_%d", win)] = m
		pts = append(pts, stats.Point{X: float64(win), Y: 100 * m})
	}
	e.Table.AddRow("full", stats.Pct(fullMean), "+0.0pp")
	e.Metrics["dead_mean_full"] = fullMean
	pts = append(pts, stats.Point{X: 1_000_000, Y: 100 * fullMean})
	e.Figure = &stats.Chart{
		Title: "measured dead fraction vs window size", XLabel: "window (instructions)", YLabel: "dead %",
		Series: []stats.Series{{Name: "mean dead%", Points: pts}},
	}
	return e, nil
}

// windowedDeadFraction splits the trace into disjoint windows, analyzes
// each independently (values crossing a boundary are conservatively
// live), and returns the aggregate dead fraction.
//
// The input trace is shared by every reader of the resident profile, so
// its chunks must stay untouched; each window's records are block-copied
// into one reusable scratch trace (Reset keeps the chunk storage between
// windows, Release returns the pooled arenas at the end), so the call
// allocates one window's worth of columns instead of a whole-trace copy.
func windowedDeadFraction(t *trace.Trace, window int) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("core: window size %d must be positive", window)
	}
	n := t.Len()
	sub := trace.NewWithCapacity(min(window, n))
	defer sub.Release()
	dead, total := 0, 0
	for start := 0; start < n; start += window {
		end := min(start+window, n)
		sub.Reset()
		sub.AppendRange(t, start, end)
		a, err := deadness.LinkAndAnalyze(sub)
		if err != nil {
			return 0, err
		}
		s := a.Summarize(sub, nil)
		dead += s.Dead
		total += s.Total
	}
	if total == 0 {
		return 0, nil
	}
	return float64(dead) / float64(total), nil
}

package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/dip"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// testBudget keeps core tests quick while still exercising warmed-up
// predictors and pipelines.
const testBudget = 120_000

func TestProfileRunsABenchmark(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Profile(p, nil, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Len() == 0 || res.Summary.Total != res.Trace.Len() {
		t.Fatalf("bad totals: %+v", res.Summary)
	}
	if res.Summary.Dead == 0 {
		t.Error("no dead instructions found in gzip")
	}
	if res.Locality.DeadStatics == 0 {
		t.Error("no dead statics")
	}
	if res.PassStats.Hoisted == 0 {
		t.Error("no hoisting recorded")
	}
}

func TestEvalPredictor(t *testing.T) {
	w := NewWorkspace(testBudget)
	res, err := w.EvalPredictor("crafty", dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead == 0 || res.TruePos == 0 {
		t.Fatalf("predictor found nothing: %+v", res)
	}
	if res.Coverage() < 0.5 || res.Accuracy() < 0.5 {
		t.Errorf("implausibly poor predictor: %v", res)
	}
	bad := dip.Config{}
	if _, err := w.EvalPredictor("crafty", dip.Spec{Flavor: dip.FlavorCFI, Config: bad}); err == nil {
		t.Error("invalid predictor config accepted")
	}
}

func TestWorkspaceCachesProfiles(t *testing.T) {
	w := NewWorkspace(testBudget)
	a, err := w.ProfileOf("vpr")
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.ProfileOf("vpr")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("profile not cached")
	}
	if _, err := w.ProfileOf("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestWorkspaceRunMachine(t *testing.T) {
	w := NewWorkspace(testBudget)
	base, err := w.RunMachine("gzip", pipeline.ContendedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.Committed == 0 || base.IPC() <= 0 {
		t.Fatalf("bad stats: %+v", base)
	}
	cfg := pipeline.ContendedConfig()
	cfg.Elim = true
	elim, err := w.RunMachine("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elim.Eliminated == 0 {
		t.Error("nothing eliminated")
	}
	if elim.PhysAllocs >= base.PhysAllocs {
		t.Error("elimination did not reduce register allocations")
	}
}

func TestSuiteNames(t *testing.T) {
	names := SuiteNames()
	if len(names) != 11 || names[0] != "gzip" {
		t.Errorf("suite names = %v", names)
	}
}

func TestExperimentDispatch(t *testing.T) {
	w := NewWorkspace(testBudget)
	ids := ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("experiment ids = %v", ids)
	}
	if _, err := w.RunExperiments(context.Background(), []string{"bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	exps, err := w.RunExperiments(context.Background(), []string{"e1"})
	if err != nil {
		t.Fatal(err)
	}
	e := exps[0]
	if e.ID != "e1" || e.Table.NumRows() != len(SuiteNames())+1 {
		t.Errorf("e1 table has %d rows", e.Table.NumRows())
	}
	if e.Metrics["dead_max"] <= e.Metrics["dead_min"] {
		t.Errorf("metrics: %+v", e.Metrics)
	}
	if !strings.Contains(e.Table.String(), "gzip") {
		t.Error("table missing benchmarks")
	}
}

func TestE5MetricsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := NewWorkspace(testBudget)
	e, err := w.E5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e.Metrics["state_kb"] >= 5 {
		t.Errorf("predictor state %.2f KB, want < 5", e.Metrics["state_kb"])
	}
	// Short-budget coverage/accuracy are lower than the full run but must
	// still be recognizably good.
	if e.Metrics["coverage_mean"] < 0.6 || e.Metrics["accuracy_mean"] < 0.75 {
		t.Errorf("predictor metrics collapsed: %+v", e.Metrics)
	}
}

func TestE9ElimPairConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := NewWorkspace(testBudget)
	base, elim, err := w.elimPair(context.Background(), "crafty", pipeline.ContendedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if base.Eliminated != 0 {
		t.Error("baseline eliminated instructions")
	}
	if elim.Eliminated == 0 {
		t.Error("elimination run eliminated nothing")
	}
	if base.Committed != elim.Committed {
		t.Errorf("committed differ: %d vs %d", base.Committed, elim.Committed)
	}
}

// TestProfilePredictionsShared runs machine runs and predictor
// evaluations of one profile concurrently, through the workspace, while
// other goroutines ask the profile for its prediction column. Every
// caller sees one column, and every result equals the private path's,
// where pipeline.Run and Predictor.Evaluate predict the branches
// themselves. Under -race it also checks that the column's first build
// is safe to share.
func TestProfilePredictionsShared(t *testing.T) {
	const name = "gzip"
	w := NewWorkspaceWorkers(20_000, 4)
	p, err := w.ProfileOf(name)
	if err != nil {
		t.Fatal(err)
	}
	elim := pipeline.ContendedConfig()
	elim.Elim = true
	cfgs := []pipeline.Config{pipeline.BaselineConfig(), elim, pipeline.ClusteredConfig()}
	cfg := dip.DefaultConfig()
	specs := []dip.Spec{
		{Flavor: dip.FlavorCFI, Config: cfg},
		{Flavor: dip.FlavorCounter, Config: cfg},
		{Flavor: dip.FlavorOracle, Config: cfg},
		{Flavor: dip.FlavorCFI, Config: cfg, Dir: "bimodal-4k"},
	}
	stats := make([]pipeline.Stats, len(cfgs))
	results := make([]dip.Result, len(specs))
	cols := make([]*bpred.Predictions, 4)
	errs := make(chan error, len(cfgs)+len(specs))
	var wg sync.WaitGroup
	for i, c := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := w.RunMachine(name, c)
			stats[i] = st
			errs <- err
		}()
	}
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := w.EvalPredictor(name, s)
			results[i] = res
			errs <- err
		}()
	}
	for i := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols[i] = p.Predictions()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, col := range cols {
		if col != p.Predictions() {
			t.Errorf("caller %d got another column", i)
		}
	}
	for i, c := range cfgs {
		want, err := pipeline.Run(p.Trace, p.Analysis, c)
		if err != nil {
			t.Fatal(err)
		}
		if stats[i] != want {
			t.Errorf("%s: shared column gives %+v, private %+v", c.Label(), stats[i], want)
		}
	}
	for i, s := range specs {
		pred, err := s.New()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pred.Evaluate(p.Trace, p.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Errorf("%s: shared column gives %+v, private %+v", s.Label(), results[i], want)
		}
	}
}

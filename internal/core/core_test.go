package core

import (
	"context"
	"strings"
	"testing"

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
	base, elim, err := w.elimPair("crafty", pipeline.ContendedConfig())
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

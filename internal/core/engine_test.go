package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// renderExperiment is Experiment.Render, kept as a free-function alias so
// the equivalence suites read naturally.
func renderExperiment(e *Experiment) string { return e.Render() }

// TestRunExperimentsConcurrentMatchesSequential runs all 18 experiments
// concurrently on a shared workspace and asserts every table, figure, and
// metric matches a sequential (-j 1) run byte-for-byte. Run it with
// -race: it is also the concurrency soak for the workspace.
func TestRunExperimentsConcurrentMatchesSequential(t *testing.T) {
	const budget = 60_000
	ids := ExperimentIDs()

	seq := NewWorkspaceWorkers(budget, 1)
	seqRes, err := seq.RunExperiments(context.Background(), ids)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}

	conc := NewWorkspaceWorkers(budget, 0)
	mc := metrics.New()
	conc.Metrics = mc
	concRes, err := conc.RunExperiments(context.Background(), ids)
	if err != nil {
		t.Fatalf("concurrent run: %v", err)
	}

	if len(seqRes) != len(ids) || len(concRes) != len(ids) {
		t.Fatalf("result counts: seq=%d conc=%d want %d", len(seqRes), len(concRes), len(ids))
	}
	for i, id := range ids {
		if seqRes[i].ID != id || concRes[i].ID != id {
			t.Fatalf("order broken at %d: seq=%s conc=%s want %s", i, seqRes[i].ID, concRes[i].ID, id)
		}
		a, b := renderExperiment(seqRes[i]), renderExperiment(concRes[i])
		if a != b {
			t.Errorf("%s diverges between -j 1 and -j N:\n--- sequential\n%s\n--- concurrent\n%s", id, a, b)
		}
	}

	// The shared workspace must have deduplicated cross-experiment machine
	// runs: E9, E13, and E15 share the contended pair, E10's 128-reg point
	// is E8's baseline pair, and so on.
	arts := conc.ArtifactStats().Kinds
	if hits := arts[KindMachine].Hits; hits == 0 {
		t.Error("no machine-run memoization hits across the 18 experiments")
	}
	if sims := arts[KindMachine].Misses; sims == 0 {
		t.Errorf("implausible counters: sims=%d", sims)
	}
	// Three compiles per benchmark, each exactly once: the default, E3's
	// no-hoist variant and E12's with-DCE variant. Only the default is a
	// profile artifact; each variant is built inside its facts build.
	if builds := arts[KindProfile].Misses; builds != int64(len(SuiteNames())) {
		t.Errorf("profile builds = %d, want %d (one per benchmark, the default)",
			builds, len(SuiteNames()))
	}
	if n := mc.Summary().Phases[metrics.PhaseCompile].Count; n != int64(3*len(SuiteNames())) {
		t.Errorf("compile spans = %d, want %d (three per benchmark: default, no-hoist, DCE)",
			n, 3*len(SuiteNames()))
	}
}

func TestRunMachineMemoized(t *testing.T) {
	w := NewWorkspace(testBudget)
	machine := func() (sims, hits int64) {
		st := w.ArtifactStats().Kinds[KindMachine]
		return st.Misses, st.Hits
	}

	cfg := pipeline.ContendedConfig()
	a, err := w.RunMachine("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.RunMachine("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("memoized run differs from original")
	}
	if sims, hits := machine(); sims != 1 || hits != 1 {
		t.Errorf("sims=%d hits=%d, want 1 and 1", sims, hits)
	}

	// A different configuration must simulate again...
	cfg.Elim = true
	if _, err := w.RunMachine("gzip", cfg); err != nil {
		t.Fatal(err)
	}
	if sims, _ := machine(); sims != 2 {
		t.Errorf("sims=%d after config change, want 2", sims)
	}
	// ...and an equal configuration built independently must not.
	cfg2 := pipeline.ContendedConfig()
	cfg2.Elim = true
	if _, err := w.RunMachine("gzip", cfg2); err != nil {
		t.Fatal(err)
	}
	if sims, hits := machine(); sims != 2 || hits != 2 {
		t.Errorf("sims=%d hits=%d, want 2 and 2", sims, hits)
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	w := NewWorkspace(testBudget)
	if _, err := w.RunExperiments(context.Background(), []string{"e1", "nonesuch"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentsCancelledContext(t *testing.T) {
	w := NewWorkspace(testBudget)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.RunExperiments(ctx, []string{"e1"}); err == nil {
		t.Error("cancelled context produced results")
	}
}

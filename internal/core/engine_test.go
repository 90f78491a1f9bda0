package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
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

// TestRepeatedExperimentsBuildNothing checks that an experiment is an
// artifact: asking a workspace again for experiments it has run reads
// the stored experiments, building nothing of any kind.
func TestRepeatedExperimentsBuildNothing(t *testing.T) {
	w := NewWorkspaceWorkers(20_000, 2)
	ids := []string{"e1", "e5"}
	first, err := w.RunExperiments(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	before := w.ArtifactStats().Kinds
	second, err := w.RunExperiments(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	after := w.ArtifactStats().Kinds
	for i, e := range second {
		if e != first[i] || e.Render() != first[i].Render() {
			t.Errorf("%s: the repeat is not the stored experiment", e.ID)
		}
	}
	for k, st := range after {
		if d := st.Misses - before[k].Misses; d != 0 {
			t.Errorf("the repeat built %d %s artifacts, want 0", d, k)
		}
	}
	if d := after[KindExperiment].Hits - before[KindExperiment].Hits; d != 2 {
		t.Errorf("experiment hits rose by %d, want 2", d)
	}
}

// TestConcurrentExperimentsShareOneBuild checks that identical
// concurrent requests wait on one experiment build (run with -race: the
// callers share the stored experiment and must only read it).
func TestConcurrentExperimentsShareOneBuild(t *testing.T) {
	const callers = 4
	w := NewWorkspaceWorkers(20_000, 2)
	got := make([]*Experiment, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := w.RunExperiments(context.Background(), []string{"e5"})
			got[i], errs[i] = res[0], err
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != got[0] || got[i].Render() != got[0].Render() {
			t.Errorf("caller %d got another experiment than caller 0", i)
		}
	}
	ks := w.ArtifactStats().Kinds
	if st := ks[KindExperiment]; st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("experiment builds/hits = %d/%d, want 1/%d", st.Misses, st.Hits, callers-1)
	}
	if st := ks[KindPredEval]; st.Misses != int64(len(SuiteNames())) {
		t.Errorf("predeval builds = %d, want %d (one per benchmark)", st.Misses, len(SuiteNames()))
	}
}

// TestFailedExperimentBuildsAgain checks the memo rule for experiments:
// a build that failed on a transient fault, or on a panic inside one of
// its pool tasks, is forgotten, so the next request builds the
// experiment again and succeeds.
func TestFailedExperimentBuildsAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		site faults.Site
		kind faults.Kind
	}{
		{"transient facts build", faults.SiteWorkspaceMemo, faults.Transient},
		{"panicking pool task", faults.SitePoolTask, faults.Panic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorkspaceWorkers(20_000, 1)
			faults.Set(faults.NewInjector(1).Arm(tc.site, faults.Rule{Kind: tc.kind, Rate: 1, Max: 1}))
			defer faults.Set(nil)
			res, err := w.RunExperiments(context.Background(), []string{"e1"})
			var fe *faults.Error
			if !errors.As(err, &fe) || fe.Kind != tc.kind || res[0].Err == nil {
				t.Fatalf("first request: err = %v, want the injected %s fault", err, tc.kind)
			}
			res, err = w.RunExperiments(context.Background(), []string{"e1"})
			if err != nil || res[0].Table == nil {
				t.Fatalf("second request served the failure from memo: %v", err)
			}
			if st := w.ArtifactStats().Kinds[KindExperiment]; st.Misses != 2 || st.Hits != 0 {
				t.Errorf("experiment builds/hits = %d/%d, want 2/0", st.Misses, st.Hits)
			}
		})
	}
}

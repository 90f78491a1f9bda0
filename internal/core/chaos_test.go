package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// TestChaosSoak drives the full 18-experiment suite with the fault
// injector armed at every engine site class and asserts the graceful-
// degradation contract:
//
//  1. the run terminates (no deadlock) and leaks no goroutines,
//  2. every experiment that succeeds is bit-identical to a clean run,
//  3. every experiment that fails is attributable to an injected fault
//     through its error chain.
//
// Run with -race: the injector's schedule depends on goroutine
// interleaving, so this is also the concurrency soak for the failure
// paths.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak runs the full suite twice")
	}
	const budget = 60_000
	ids := ExperimentIDs()

	clean := NewWorkspaceWorkers(budget, 0)
	cleanRes, err := clean.RunExperiments(context.Background(), ids)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	want := make(map[string]string, len(ids))
	for _, e := range cleanRes {
		want[e.ID] = renderExperiment(e)
	}

	before := runtime.NumGoroutine()

	// Rate-1, Max-capped rules guarantee injections regardless of how the
	// schedule lands on goroutines; the low-rate rules add seeded noise at
	// every other site class, including per-instruction emulator faults.
	// The memo rule is capped too: uncapped, how many builds it hits
	// depends on how builds coalesce, and in about one run in six no
	// experiment survived its four attempts, which made the survivor
	// checks below vacuous and the run fail. Capped, every run has both
	// survivors and injected failures to check.
	in := faults.NewInjector(42).
		Arm(faults.SitePoolTask, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 5}).
		Arm(faults.SitePoolTask, faults.Rule{Kind: faults.Delay, Rate: 0.02, Max: 10, Delay: time.Millisecond}).
		Arm(faults.SiteWorkspaceMemo, faults.Rule{Kind: faults.Transient, Rate: 0.3, Max: 24}).
		Arm(faults.SiteEmuStep, faults.Rule{Kind: faults.Transient, Rate: 0.0001, Max: 4}).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Panic, Rate: 1, Max: 2}).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Transient, Rate: 0.01})
	mc := metrics.New()
	in.Metrics = mc
	faults.Set(in)
	defer faults.Set(nil)

	w := NewWorkspaceWorkers(budget, 0)
	w.Metrics = mc
	w.KeepGoing = true
	w.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
	// Arm the artifact cache's LRU eviction too, so transient-fault
	// eviction, budget eviction, and rebuilds all interleave under
	// injection — survivors must still match the clean run bit for bit.
	w.CacheBudget = 16 << 20

	type result struct {
		res []*Experiment
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := w.RunExperiments(context.Background(), ids)
		done <- result{res, err}
	}()
	var chaotic result
	select {
	case chaotic = <-done:
	case <-time.After(5 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("chaos run deadlocked; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	faults.Set(nil)

	if len(chaotic.res) != len(ids) {
		t.Fatalf("partial-results mode returned %d entries, want %d", len(chaotic.res), len(ids))
	}
	var injected uint64
	for _, site := range in.Sites() {
		injected += in.Fired(site)
	}
	if injected == 0 {
		t.Fatal("soak is vacuous: no fault fired")
	}
	if mc.Counter(metrics.CounterFaultsInjected) != int64(injected) {
		t.Errorf("metrics count %d injections, injector says %d",
			mc.Counter(metrics.CounterFaultsInjected), injected)
	}

	succeeded, failed := 0, 0
	for i, e := range chaotic.res {
		if e == nil {
			t.Fatalf("entry %d is nil under KeepGoing", i)
		}
		if e.ID != ids[i] {
			t.Fatalf("order broken at %d: got %s want %s", i, e.ID, ids[i])
		}
		if e.Err == nil {
			succeeded++
			if got := renderExperiment(e); got != want[e.ID] {
				t.Errorf("%s survived injection but diverged from the clean run:\n--- clean\n%s\n--- chaos\n%s",
					e.ID, want[e.ID], got)
			}
			continue
		}
		failed++
		var fe *faults.Error
		if !errors.As(e.Err, &fe) {
			t.Errorf("%s failed without an injected fault in its chain: %v", e.ID, e.Err)
		}
		if errors.Is(e.Err, context.Canceled) {
			t.Errorf("%s reports cancellation under KeepGoing: %v", e.ID, e.Err)
		}
		if e.Attempts < 1 {
			t.Errorf("%s failed with %d attempts recorded", e.ID, e.Attempts)
		}
	}
	t.Logf("chaos soak: %d injections, %d/%d experiments succeeded, %d retries",
		injected, succeeded, len(ids), mc.Counter(metrics.CounterRetries))
	if succeeded == 0 {
		t.Error("no experiment survived injection; retry/eviction is not recovering transients")
	}
	if failed > 0 != (chaotic.err != nil) {
		t.Errorf("error/failure mismatch: %d failures but err = %v", failed, chaotic.err)
	}
	if chaotic.err != nil {
		var re *RunError
		if !errors.As(chaotic.err, &re) {
			t.Fatalf("error is %T, want *RunError", chaotic.err)
		}
		if len(re.Failures)+len(re.Completed) != len(ids) {
			t.Errorf("RunError accounts for %d+%d experiments, want %d",
				len(re.Completed), len(re.Failures), len(ids))
		}
	}

	// Transient pool faults are retried at a level that re-runs them, so
	// the rate-1 Max-capped rule above guarantees retries happened.
	if mc.Counter(metrics.CounterRetries) == 0 {
		t.Error("no retry recorded despite guaranteed transient pool faults")
	}

	// Leak check: give coordinator goroutines a moment to unwind, then
	// compare against the pre-chaos baseline with slack for the runtime's
	// own background goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+3 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestRunExperimentsPartialResultsWithoutInjection checks KeepGoing
// semantics with a plain bad ID mixed into good ones: completed work is
// returned, the failure is structured, and the error unwraps to it.
func TestRunExperimentsPartialResultsWithoutInjection(t *testing.T) {
	w := NewWorkspaceWorkers(testBudget, 0)
	w.KeepGoing = true
	res, err := w.RunExperiments(context.Background(), []string{"e1", "nope", "e6"})
	if err == nil {
		t.Fatal("bad ID must surface an error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	if len(res) != 3 || res[0].Err != nil || res[2].Err != nil || res[1].Err == nil {
		t.Fatalf("partial results wrong: %+v", res)
	}
	if len(re.Completed) != 2 || len(re.Failures) != 1 || re.Failures[0].ID != "nope" {
		t.Errorf("RunError bookkeeping wrong: completed=%d failures=%+v", len(re.Completed), re.Failures)
	}
}

// TestRunExperimentsFailFastKeepsCompleted checks the default mode's
// contract: the first failure aborts the run, but the *RunError still
// carries whatever finished so callers never lose completed work.
func TestRunExperimentsFailFastKeepsCompleted(t *testing.T) {
	w := NewWorkspaceWorkers(testBudget, 1)
	res, err := w.RunExperiments(context.Background(), []string{"e1", "nope"})
	if res != nil || err == nil {
		t.Fatalf("fail-fast returned res=%v err=%v", res, err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	for _, e := range re.Completed {
		if e.Err != nil || e.ID == "" {
			t.Errorf("completed entry is not a finished experiment: %+v", e)
		}
	}
	found := false
	for _, f := range re.Failures {
		if f.ID == "nope" && f.Err != nil {
			found = true
		}
	}
	if !found {
		t.Errorf("the bad ID is missing from failures: %+v", re.Failures)
	}
}

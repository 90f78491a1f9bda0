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

// TestChaosSoak drives the full experiment suite with the fault
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
	// Each experiment runs once, and a fault in a shared build (a profile
	// feeds every experiment) fails every experiment waiting on it, so
	// the transient pool, memo and emulator rules are capped low enough
	// that every run has both survivors and injected failures to check.
	// An emulator fault always kills a profile build, which is why that
	// rule fires at most once.
	in := faults.NewInjector(42).
		Arm(faults.SitePoolTask, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 2}).
		Arm(faults.SitePoolTask, faults.Rule{Kind: faults.Delay, Rate: 0.02, Max: 10, Delay: time.Millisecond}).
		Arm(faults.SiteWorkspaceMemo, faults.Rule{Kind: faults.Transient, Rate: 0.3, Max: 4}).
		Arm(faults.SiteEmuStep, faults.Rule{Kind: faults.Transient, Rate: 0.0001, Max: 1}).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Panic, Rate: 1, Max: 2}).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Transient, Rate: 0.01})
	mc := metrics.New()
	in.Metrics = mc
	faults.Set(in)
	defer faults.Set(nil)

	w := NewWorkspaceWorkers(budget, 0)
	w.Metrics = mc

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
		t.Fatalf("RunExperiments returned %d entries, want %d", len(chaotic.res), len(ids))
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
			t.Fatalf("entry %d is nil", i)
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
			t.Errorf("%s reports cancellation, as if another failure had cancelled it: %v", e.ID, e.Err)
		}
		if !errors.Is(chaotic.err, e.Err) {
			t.Errorf("%s's error is not reachable from the run error", e.ID)
		}
	}
	t.Logf("chaos soak: %d injections, %d/%d experiments succeeded", injected, succeeded, len(ids))
	if succeeded == 0 {
		t.Error("no experiment survived injection; the survivor check is vacuous")
	}
	if failed == 0 {
		t.Error("no experiment failed under injection; the attribution checks are vacuous")
	}
	if failed > 0 != (chaotic.err != nil) {
		t.Errorf("error/failure mismatch: %d failures but err = %v", failed, chaotic.err)
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

// TestRunExperimentsPartialResultsWithoutInjection checks that a plain
// bad ID mixed into good ones fails only its own entry: the finished
// experiments come back in place, and the run error reaches the failed
// entry's error.
func TestRunExperimentsPartialResultsWithoutInjection(t *testing.T) {
	w := NewWorkspaceWorkers(testBudget, 0)
	ids := []string{"e1", "nope", "e6"}
	res, err := w.RunExperiments(context.Background(), ids)
	if len(res) != len(ids) {
		t.Fatalf("got %d entries, want one per requested ID (%d); err = %v", len(res), len(ids), err)
	}
	for i, e := range res {
		if e.ID != ids[i] {
			t.Fatalf("entry %d is %s, want %s", i, e.ID, ids[i])
		}
	}
	for _, e := range []*Experiment{res[0], res[2]} {
		if e.Err != nil || e.Table == nil {
			t.Errorf("%s did not complete beside the failure: err = %v", e.ID, e.Err)
		}
	}
	if res[1].Err == nil {
		t.Fatal("the bad ID must fail its entry")
	}
	if !errors.Is(err, res[1].Err) {
		t.Errorf("run error %v does not reach the failed entry's error %v", err, res[1].Err)
	}
}

package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/pipeline"
)

// TestDeadlinePropagatesThroughNestedFanOut drives the real nesting used
// by experiments — coordinator → Pool.ForEach → Pool.Do leaf tasks — with
// an expired deadline and checks every layer reports the deadline rather
// than hanging or mislabeling the failure.
func TestDeadlinePropagatesThroughNestedFanOut(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	started := make(chan struct{}, 16)
	err := p.ForEach(ctx, 4, func(i int) error {
		started <- struct{}{}
		// Nested fan-out: each outer task coordinates inner leaf work.
		inner := make(chan error, 1)
		go func() {
			inner <- p.Do(ctx, func() error {
				<-ctx.Done() // simulate work outliving the deadline
				return ctx.Err()
			})
		}()
		return <-inner
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("nested fan-out error = %v, want deadline exceeded", err)
	}
	if faults.IsTransient(err) {
		t.Error("deadline expiry must not be classified transient")
	}
}

// TestWorkspaceTimeoutBoundsAttempts checks runOne's deadline: an
// experiment that cannot finish, because every pool slot is held, is
// cut off by Workspace.Timeout instead of hanging the run.
func TestWorkspaceTimeoutBoundsAttempts(t *testing.T) {
	w := NewWorkspaceWorkers(1000, 1)
	w.Timeout = 20 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	held := make(chan struct{})
	go w.Pool().Do(context.Background(), func() error { close(held); <-release; return nil })
	<-held
	done := make(chan error, 1)
	go func() {
		// E9 fans out over the suite through the pool, so it waits for
		// the held slot until its deadline.
		_, err := w.runOne(context.Background(), "e9")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout did not bound the experiment")
	}
}

// TestExperimentDeadlineAbandonsInflightBuild checks that an
// experiment's deadline reaches the builds it waits on: with one
// simulation held in a 3 s injected delay, E9 gives up at its 200 ms
// Timeout instead of waiting the build out.
func TestExperimentDeadlineAbandonsInflightBuild(t *testing.T) {
	w := NewWorkspaceWorkers(20_000, 1)
	for _, name := range SuiteNames() {
		if _, err := w.ProfileOf(name); err != nil {
			t.Fatal(err)
		}
	}
	in := faults.NewInjector(1).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Delay, Rate: 1, Max: 1, Delay: 3 * time.Second})
	faults.Set(in)
	defer faults.Set(nil)
	w.Timeout = 200 * time.Millisecond

	start := time.Now()
	_, err := w.runOne(context.Background(), "e9")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("E9 returned after %v: its deadline did not reach the in-flight build", elapsed)
	}
}

// TestPanickingBuildRebuilds checks the store's one panic policy for
// workspace builds: a panicking simulation fails its request with the
// injected fault still in the error chain, and is forgotten, so the next
// request simulates again instead of replaying the panic.
func TestPanickingBuildRebuilds(t *testing.T) {
	w := NewWorkspaceWorkers(20_000, 1)
	name := SuiteNames()[0]
	if _, err := w.ProfileOf(name); err != nil {
		t.Fatal(err)
	}
	in := faults.NewInjector(1).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Panic, Rate: 1, Max: 1})
	faults.Set(in)
	defer faults.Set(nil)

	cfg := pipeline.ContendedConfig()
	_, err := w.RunMachine(name, cfg)
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.Panic {
		t.Fatalf("first request: err = %v, want the injected panic in its chain", err)
	}
	if !strings.HasPrefix(err.Error(), "artifact: building machine:") {
		t.Errorf("first request: err = %v, want the store's panic boundary to name the build", err)
	}
	if _, err := w.RunMachine(name, cfg); err != nil {
		t.Fatalf("second request served the panic from memo: %v", err)
	}
	if misses := w.ArtifactStats().Kinds[KindMachine].Misses; misses != 2 {
		t.Errorf("machine misses = %d, want 2", misses)
	}
}

// TestMemoEvictsTransientFailures checks the workspace memo contract:
// transient failures are forgotten (so the next request rebuilds), while
// the success that follows is memoized normally.
func TestMemoEvictsTransientFailures(t *testing.T) {
	in := faults.NewInjector(5).
		Arm(faults.SiteWorkspaceMemo, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 1})
	faults.Set(in)
	defer faults.Set(nil)

	w := NewWorkspaceWorkers(1000, 2)
	name := SuiteNames()[0]
	_, err := w.ProfileOf(name)
	if !faults.IsTransient(err) {
		t.Fatalf("first build should fail transiently, got %v", err)
	}
	// The entry must have been evicted: the next call rebuilds and succeeds
	// (the rule's Max=1 is spent).
	res, err := w.ProfileOf(name)
	if err != nil || res == nil {
		t.Fatalf("rebuild after transient failure: %v", err)
	}
	// And the success is memoized: a third call is a memo hit.
	before := w.ArtifactStats().Kinds[KindProfile]
	if _, err := w.ProfileOf(name); err != nil {
		t.Fatal(err)
	}
	if w.ArtifactStats().Kinds[KindProfile].Hits-before.Hits != 1 {
		t.Error("successful profile was not memoized")
	}
}

// TestMemoKeepsPermanentFailures: deterministic failures stay memoized —
// rebuilding would just fail again.
func TestMemoKeepsPermanentFailures(t *testing.T) {
	w := NewWorkspaceWorkers(1000, 2)
	_, err := w.ProfileOf("no-such-benchmark")
	if err == nil {
		t.Fatal("unknown benchmark must fail")
	}
	before := w.ArtifactStats().Kinds[KindProfile]
	if _, err2 := w.ProfileOf("no-such-benchmark"); err2 == nil {
		t.Fatal("memoized failure must still fail")
	}
	if w.ArtifactStats().Kinds[KindProfile].Hits-before.Hits != 1 {
		t.Error("permanent failure was rebuilt instead of served from memo")
	}
}

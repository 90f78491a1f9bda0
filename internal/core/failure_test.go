package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
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
	mc := metrics.New()
	w.Metrics = mc
	if _, err := w.ProfileOf(name); err != nil {
		t.Fatal(err)
	}
	if mc.Counter(CounterProfileMemoHits) != 1 {
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
	mc := metrics.New()
	w.Metrics = mc
	if _, err2 := w.ProfileOf("no-such-benchmark"); err2 == nil {
		t.Fatal("memoized failure must still fail")
	}
	if mc.Counter(CounterProfileMemoHits) != 1 {
		t.Error("permanent failure was rebuilt instead of served from memo")
	}
}

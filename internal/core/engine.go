package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Failure is one experiment's structured failure.
type Failure struct {
	ID string
	// Err is the experiment's error; injected faults remain reachable
	// through its chain (errors.As(*faults.Error)).
	Err error
}

// RunError reports a partially failed run. It always carries the
// experiments that completed before (or despite) the failure, so callers
// never lose finished work to an unrelated error — the chaos soak relies
// on this to compare survivors against a clean run.
type RunError struct {
	// Completed holds the successfully finished experiments in input
	// order.
	Completed []*Experiment
	// Failures holds the failed experiments in input order. Experiments
	// cancelled because a sibling failed first appear with a
	// context.Canceled error.
	Failures []Failure
}

// Error summarizes the run: the failure count and the first failure that
// is not a cancellation casualty.
func (e *RunError) Error() string {
	primary := e.Failures[0].Err
	for _, f := range e.Failures {
		if !errors.Is(f.Err, context.Canceled) {
			primary = f.Err
			break
		}
	}
	return fmt.Sprintf("core: %d of %d experiments failed (%d completed): %v",
		len(e.Failures), len(e.Failures)+len(e.Completed), len(e.Completed), primary)
}

// Unwrap exposes every failure's error to errors.Is / errors.As.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// Render serializes everything deterministic about a completed
// experiment — id, title, claim, table, figure, and metrics with floats
// at full precision — so byte-for-byte comparison catches any divergence
// between runs. It is the bit-identity contract shared by the
// equivalence suites, the chaos soak, and the daemon: a server response
// for an experiment carries exactly this rendering, and must equal the
// rendering a CLI run of the same spec produces.
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%s title=%s claim=%s\n", e.ID, e.Title, e.Claim)
	if e.Table != nil {
		b.WriteString(e.Table.String())
	}
	if e.Figure != nil {
		b.WriteString(e.Figure.String())
	}
	keys := make([]string, 0, len(e.Metrics))
	for k := range e.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(e.Metrics[k], 'g', -1, 64))
	}
	return b.String()
}

// RunExperiments runs the requested experiments concurrently over the
// workspace and returns them in input order, so output stays
// deterministic no matter how the work was scheduled. Each experiment
// gets a lightweight coordinator goroutine (with panic recovery); all
// heavy per-benchmark work inside the experiments funnels through the
// workspace's bounded pool, so total parallelism stays at the pool's
// bound even with experiments × suite fan-out.
//
// Failure semantics follow the workspace's knobs: each experiment runs
// once, bounded by Timeout, and the run degrades per KeepGoing. With
// KeepGoing false (the default) the first failure cancels the work still
// pending and RunExperiments returns (nil, *RunError) carrying the
// experiments that had already completed. With KeepGoing true every
// experiment runs to completion; the returned slice has one entry per
// requested ID — failed entries carry Err and no Table — and the error
// is a *RunError describing the failures (nil if none).
func (w *Workspace) RunExperiments(ctx context.Context, ids []string) ([]*Experiment, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Build every benchmark profile once upfront: all experiments need
	// them, and preloading keeps the verbose phase report tidy. Under
	// KeepGoing a benchmark that fails is left for the experiments that
	// need it to report.
	if err := w.Preload(ctx); err != nil && !w.KeepGoing {
		return nil, err
	}

	out := make([]*Experiment, len(ids))
	failures := make([]*Failure, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			e, err := w.runOne(ctx, id)
			if err != nil {
				failures[i] = &Failure{ID: id, Err: fmt.Errorf("experiment %s: %w", id, err)}
				w.Metrics.Add(metrics.CounterExperimentFailures, 1)
				if !w.KeepGoing {
					cancel()
				}
				return
			}
			out[i] = e
		}(i, id)
	}
	wg.Wait()

	runErr := &RunError{}
	for i, f := range failures {
		if f != nil {
			runErr.Failures = append(runErr.Failures, *f)
		} else if out[i] != nil {
			runErr.Completed = append(runErr.Completed, out[i])
		}
	}
	if len(runErr.Failures) == 0 {
		return out, nil
	}
	if !w.KeepGoing {
		return nil, runErr
	}
	// Partial-results mode: every requested ID gets an entry; failed ones
	// carry their error in place of tables and metrics.
	for i, f := range failures {
		if f != nil {
			out[i] = &Experiment{ID: f.ID, Err: f.Err}
		}
	}
	return out, runErr
}

// runOne runs one experiment under the workspace's Timeout deadline.
func (w *Workspace) runOne(ctx context.Context, id string) (*Experiment, error) {
	sp := w.Metrics.Start("experiment", id)
	start := time.Now()
	if w.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.Timeout)
		defer cancel()
	}
	e, err := w.dispatchSafe(ctx, id)
	sp.End(0)
	if err != nil {
		return nil, err
	}
	e.Wall = time.Since(start)
	return e, nil
}

// dispatchSafe is dispatch with panic containment: a panicking experiment
// (or an injected panic that escaped deeper recovery layers) becomes an
// error whose chain still reaches the panic value.
func (w *Workspace) dispatchSafe(ctx context.Context, id string) (e *Experiment, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, recoveredError(fmt.Sprintf("core: experiment %s panicked", id), r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.dispatch(ctx, id)
}

// Preload builds every suite benchmark's profile through the bounded
// pool.
func (w *Workspace) Preload(ctx context.Context) error {
	_, err := overSuite(ctx, w, func(name string) (struct{}, error) {
		_, err := w.ProfileOf(name)
		return struct{}{}, err
	})
	return err
}

func (w *Workspace) dispatch(ctx context.Context, id string) (*Experiment, error) {
	switch id {
	case "e1":
		return w.E1(ctx)
	case "e2":
		return w.E2(ctx)
	case "e3":
		return w.E3(ctx)
	case "e4":
		return w.E4(ctx)
	case "e5":
		return w.E5(ctx)
	case "e6":
		return w.E6(ctx)
	case "e7":
		return w.E7(ctx)
	case "e8":
		return w.E8(ctx)
	case "e9":
		return w.E9(ctx)
	case "e10":
		return w.E10(ctx)
	case "e11":
		return w.E11(ctx)
	case "e12":
		return w.E12(ctx)
	case "e13":
		return w.E13(ctx)
	case "e14":
		return w.E14(ctx)
	case "e15":
		return w.E15(ctx)
	case "e16":
		return w.E16(ctx)
	case "e17":
		return w.E17(ctx)
	case "e18":
		return w.E18(ctx)
	case "e19":
		return w.E19(ctx)
	case "e20":
		return w.E20(ctx)
	case "e21":
		return w.E21(ctx)
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

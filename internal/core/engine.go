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

	"repro/internal/faults"
	"repro/internal/metrics"
)

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
// Each experiment runs once, bounded by Timeout, and to its own end: a
// failure never cancels or drops another experiment. The returned slice
// has one entry per requested ID; a failed entry carries Err and no
// Table. The error joins the failed entries' errors, in input order, so
// an injected fault stays reachable through errors.As; it is nil when
// every experiment succeeded.
func (w *Workspace) RunExperiments(ctx context.Context, ids []string) ([]*Experiment, error) {
	out := make([]*Experiment, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			e, err := w.runOne(ctx, id)
			if err != nil {
				errs[i] = fmt.Errorf("experiment %s: %w", id, err)
				e = &Experiment{ID: id, Err: errs[i]}
				w.Metrics.Add(metrics.CounterExperimentFailures, 1)
			}
			out[i] = e
		}(i, id)
	}
	wg.Wait()
	return out, errors.Join(errs...) // nil entries are skipped
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

// dispatchSafe is dispatch with panic containment: a panic on the
// experiment's own goroutine, outside any pool task or artifact build,
// becomes an error whose chain still reaches the panic value.
func (w *Workspace) dispatchSafe(ctx context.Context, id string) (e *Experiment, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, faults.Recovered(fmt.Sprintf("core: experiment %s panicked", id), r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w.dispatch(ctx, id)
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

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

	"repro/internal/artifact"
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
// deterministic no matter how the work was scheduled. Each experiment is
// an artifact (KindExperiment, keyed by ID, budget and ModelFingerprint),
// built once per workspace on the artifact store's build goroutine, which
// is also its panic boundary: a repeated request reads the stored
// experiment, and identical concurrent requests wait on one build. Over
// a warm disk or remote tier an experiment is one entry read, and
// nothing it was built from is looked up. All heavy
// per-benchmark work inside the experiments funnels through the
// workspace's bounded pool, so total parallelism stays at the pool's
// bound even with experiments × suite fan-out.
//
// Each experiment is waited on once, bounded by Timeout, and to its own
// end: a failure never cancels or drops another experiment. The returned
// slice has one entry per requested ID; a failed entry carries Err and
// no Table. A completed entry is the stored experiment, shared with
// every other caller, so it must not be modified. The error joins the
// failed entries' errors, in input order, so an injected fault stays
// reachable through errors.As; it is nil when every experiment
// succeeded.
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

// runOne returns one experiment from the artifact store: from memory,
// else from the disk tier, else from the remote tier, else built. Timeout
// bounds this caller's wait; the build runs on the store's detached
// context, cancelled when its last waiter leaves, and a build that fails
// transiently, is cancelled or panics is forgotten, so the next request
// builds again. Only a build measures Wall, and only a success is
// written through.
func (w *Workspace) runOne(ctx context.Context, id string) (*Experiment, error) {
	sp := w.Metrics.Start("experiment", id)
	defer sp.End(0)
	driver, ok := experimentDrivers[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q", id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.Timeout)
		defer cancel()
	}
	key := artifactKey(KindExperiment, experimentSpec{id, w.Budget})
	return artifact.GetCtx(w.artifacts(), ctx, key, func(bctx context.Context) (*Experiment, error) {
		start := time.Now()
		e, err := driver(w, bctx)
		if err != nil {
			return nil, err
		}
		e.Wall = time.Since(start)
		return e, nil
	})
}

// experimentDrivers maps each experiment ID to its driver.
var experimentDrivers = map[string]func(*Workspace, context.Context) (*Experiment, error){
	"e1": (*Workspace).E1, "e2": (*Workspace).E2, "e3": (*Workspace).E3,
	"e4": (*Workspace).E4, "e5": (*Workspace).E5, "e6": (*Workspace).E6,
	"e7": (*Workspace).E7, "e8": (*Workspace).E8, "e9": (*Workspace).E9,
	"e10": (*Workspace).E10, "e11": (*Workspace).E11, "e12": (*Workspace).E12,
	"e13": (*Workspace).E13, "e14": (*Workspace).E14, "e15": (*Workspace).E15,
	"e16": (*Workspace).E16, "e17": (*Workspace).E17, "e18": (*Workspace).E18,
	"e19": (*Workspace).E19, "e20": (*Workspace).E20, "e21": (*Workspace).E21,
}

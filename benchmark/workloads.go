package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/metrics"
)

// The four workloads. README.md records why each was chosen.
const (
	suiteCold    = "suite-cold"    // E1-E21 on a fresh in-memory workspace
	profileBuild = "profile-build" // every suite profile on a fresh workspace
	suiteWarm    = "suite-warm"    // E1-E21 over a disk tier that setup populated
	daemonMix    = "daemon-mix"    // cmd/deadload's request mix against cmd/deadd
)

var workloadNames = []string{suiteCold, profileBuild, suiteWarm, daemonMix}

// scale sizes the work. defaultScale is what the benchmark measures; the
// smoke test shrinks it.
type scale struct {
	// SuiteBudget is the per-benchmark instruction budget of suite-cold,
	// suite-warm and daemon-mix; ProfileBudget that of profile-build.
	SuiteBudget   int
	ProfileBudget int
	// Experiments are the experiments a suite pass runs.
	Experiments []string
	// Requests is the length of one daemon-mix request sequence.
	Requests int
	// WarmSetups is how many disk tiers suite-warm populates per run, so
	// its setup_s is a median.
	WarmSetups int
	// MinPasses is the fewest passes a run makes, however long they take.
	MinPasses int
}

func defaultScale() scale {
	return scale{
		SuiteBudget:   50_000,
		ProfileBudget: 1_000_000,
		Experiments:   core.ExperimentIDs(),
		Requests:      2000,
		WarmSetups:    3,
		MinPasses:     3,
	}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	golden   *golden
	work     string // working directory; each run uses a fresh subdirectory
	exe      string // the binary re-executed as worker children
	deadd    string // the cmd/deadd binary daemon-mix starts
	log      io.Writer
}

// runResult is one run's outcome.
type runResult struct {
	Attempted int
	Failed    int
	Problems  []string
	EndToEnd  map[string]float64
	Layers    map[string]float64
}

// runner carries one run's samples.
type runner struct {
	cfg  runConfig
	dir  string
	res  *runResult
	tr   *tracer
	root int

	setups, walls, rss []float64
	traced             *tracedPass

	bodies *daemonBodies
}

// tracedPass is the one pass run with Workspace.Metrics set.
type tracedPass struct {
	wall      float64
	workers   int
	phases    map[string]metrics.PhaseSummary
	artifacts artifact.Stats
	server    *serverShares
}

func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{}
	s := cfg.scale
	if g := cfg.golden; g.SuiteBudget != s.SuiteBudget || g.ProfileBudget != s.ProfileBudget {
		return res, fmt.Errorf("golden digests are for budgets %d/%d, the benchmark runs %d/%d",
			g.SuiteBudget, g.ProfileBudget, s.SuiteBudget, s.ProfileBudget)
	}
	// Cancelling on return kills any child an error path left running.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	r := &runner{cfg: cfg, dir: dir, res: res, tr: newTracer()}
	r.root = r.tr.start(0, cfg.workload)
	switch cfg.workload {
	case suiteCold:
		err = r.suiteCold(ctx)
	case profileBuild:
		err = r.profileBuild(ctx)
	case suiteWarm:
		err = r.suiteWarm(ctx)
	case daemonMix:
		err = r.daemonMix(ctx)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err == nil && cfg.traced {
		err = r.layers(ctx)
	}
	if err != nil {
		return res, err
	}
	res.EndToEnd = map[string]float64{
		"setup_s":     median(r.setups),
		"wall_s":      slices.Min(r.walls),
		"peak_rss_mb": median(r.rss),
	}
	fmt.Fprintf(cfg.log, "%s seed %d: %d passes, wall %.3fs fastest, %.3fs median, %.3fs slowest, rss %.0fMiB, setup %.4fs, %d ops, %d failed\n",
		cfg.workload, cfg.seed, len(r.walls), res.EndToEnd["wall_s"], median(r.walls), slices.Max(r.walls),
		res.EndToEnd["peak_rss_mb"], res.EndToEnd["setup_s"], res.Attempted, res.Failed)
	return res, nil
}

// window runs passes until the measured window is spent: after MinPasses,
// a pass starts only while a pass of median length still fits.
func (r *runner) window(pass func(i int) error) error {
	start := time.Now()
	var cycles []float64
	for i := 0; ; i++ {
		if i >= r.cfg.scale.MinPasses && time.Since(start).Seconds()+median(cycles) > r.cfg.seconds {
			return nil
		}
		t := time.Now()
		sp := r.tr.start(r.root, fmt.Sprintf("pass %d", i))
		if err := pass(i); err != nil {
			return err
		}
		r.tr.end(sp, 0)
		cycles = append(cycles, time.Since(t).Seconds())
	}
}

// sample records one pass's measurements.
func (r *runner) sample(wall, rss float64) {
	r.walls = append(r.walls, wall)
	r.rss = append(r.rss, rss)
}

func (r *runner) fail(n int, problems ...string) {
	r.res.Failed += n
	r.res.Problems = append(r.res.Problems, problems...)
}

// suiteJob is one E1-E21 pass at the suite budget.
func (r *runner) suiteJob(cacheDir string, traced bool) job {
	return job{Budget: r.cfg.scale.SuiteBudget, IDs: r.cfg.scale.Experiments, CacheDir: cacheDir, Traced: traced}
}

// pass runs one suite or profiles worker and checks its outputs against
// the golden digests. A warm pass must also rebuild nothing.
func (r *runner) pass(ctx context.Context, role string, j job, warm bool) (*passResult, time.Duration, error) {
	var p passResult
	setup, err := runWorker(ctx, r.cfg.exe, role, j, r.cfg.log, &p)
	if err != nil {
		return nil, 0, err
	}
	r.res.Attempted += p.Ops
	var problems []string
	if role == roleProfiles {
		problems = check("profile", r.cfg.golden.Profiles, p.Digests)
	} else {
		problems = check("experiment", r.cfg.golden.Experiments, p.Digests)
	}
	if warm {
		for _, k := range []artifact.Kind{core.KindProfile, core.KindPredEval, core.KindMachine} {
			if n := p.Artifacts.Kinds[k].Misses; n != 0 {
				problems = append(problems, fmt.Sprintf("warm pass rebuilt %d %s artifacts", n, k))
			}
		}
	}
	r.fail(len(problems), problems...)
	return &p, setup, nil
}

// measure runs the window over pass and records each pass's sample, and
// its worker's start-up as setup when that is the workload's setup; a
// traced run then makes one more pass with the phase collector on.
func (r *runner) measure(pass func(i int, traced bool) (*passResult, time.Duration, error), startupIsSetup bool) error {
	err := r.window(func(i int) error {
		p, startup, err := pass(i, false)
		if err != nil {
			return err
		}
		if startupIsSetup {
			r.setups = append(r.setups, startup.Seconds())
		}
		r.sample(p.Wall, p.RSSMiB)
		return nil
	})
	if err != nil || !r.cfg.traced {
		return err
	}
	p, _, err := pass(0, true)
	if err != nil {
		return err
	}
	r.traced = &tracedPass{wall: p.Wall, workers: p.Workers, artifacts: p.Artifacts, phases: p.Metrics.Phases}
	return nil
}

func (r *runner) suiteCold(ctx context.Context) error {
	return r.measure(func(_ int, traced bool) (*passResult, time.Duration, error) {
		return r.pass(ctx, roleSuite, r.suiteJob("", traced), false)
	}, true)
}

// suiteWarm populates WarmSetups disk tiers (each a cold suite run that
// writes every artifact through, timed as setup), then measures passes
// that read them back on fresh workspaces, rotating over the tiers.
func (r *runner) suiteWarm(ctx context.Context) error {
	dirs := make([]string, r.cfg.scale.WarmSetups)
	for k := range dirs {
		dirs[k] = filepath.Join(r.dir, fmt.Sprintf("tier%d", k))
		sp := r.tr.start(r.root, fmt.Sprintf("setup %d", k))
		start := time.Now()
		if _, _, err := r.pass(ctx, roleSuite, r.suiteJob(dirs[k], false), false); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.tr.end(sp, 0)
	}
	return r.measure(func(i int, traced bool) (*passResult, time.Duration, error) {
		return r.pass(ctx, roleSuite, r.suiteJob(dirs[i%len(dirs)], traced), true)
	}, false)
}

func (r *runner) profileBuild(ctx context.Context) error {
	return r.measure(func(_ int, traced bool) (*passResult, time.Duration, error) {
		return r.pass(ctx, roleProfiles, job{Budget: r.cfg.scale.ProfileBudget, Traced: traced}, false)
	}, true)
}

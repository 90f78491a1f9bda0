// Command predsweep evaluates dead-instruction predictor configurations
// over the benchmark suite: the default CFI design point, the no-CFI
// counter baseline, oracle-path signatures, and a state-budget sweep.
// Evaluations run through a shared workspace, so each benchmark's trace
// and oracle analysis build once and are reused by every configuration;
// independent evaluations run concurrently, bounded by -j.
//
// Usage:
//
//	predsweep [-bench name] [-n budget] [-mode point|sweep|assoc|cfi|steer]
//	          [-path n] [-slots n] [-steer-dir name] [-j workers]
//	          [-cache-dir dir] [-disk-budget bytes] [-remote-cache url]
//
// -mode steer evaluates the cluster-steering predictor (dip.FlavorSteer):
// every registered direction predictor reinterpreted over ineffectuality
// outcomes, or just the one named by -steer-dir.
//
// Traces, oracle analyses, and predictor evaluations derive through the
// workspace's content-addressed artifact cache; -cache-dir attaches a
// persistent disk tier shared across runs and processes (bounded by
// -disk-budget), and -remote-cache attaches a warm deadd daemon as a
// third tier, so a sweep re-invoked after a warm run loads its profiles
// instead of re-emulating. The FAULTS / FAULTS_SEED environment variables
// arm the deterministic fault injector; malformed rules abort at startup.
//
// Exit codes: 0 success, 1 failed run, 2 bad usage or environment (a
// flag value or $FAULTS).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bpred"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dip"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (default: whole suite)")
	mode := flag.String("mode", "point", "point, sweep, assoc, cfi, or steer")
	pathLen := flag.Int("path", -1, "override signature path length")
	slots := flag.Int("slots", -1, "override signature slots per entry")
	steerDir := flag.String("steer-dir", "", "restrict -mode steer to one direction predictor")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "predsweep")
	flag.Parse()
	if *pathLen >= 0 {
		overridePath = *pathLen
	}
	if *slots > 0 {
		overrideSlots = *slots
	}

	names := core.SuiteNames()
	if *bench != "" {
		if _, err := workload.ByName(*bench); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*bench}
	}
	run, ok := map[string]func(*core.Workspace, []string) error{
		"point": point,
		"cfi":   cfi,
		"sweep": sweep,
		"assoc": assoc,
		"steer": func(w *core.Workspace, names []string) error { return steerSweep(w, names, *steerDir) },
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *steerDir != "" {
		if err := (dip.Spec{Flavor: dip.FlavorSteer, Dir: *steerDir}).Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := cliflags.ArmFaults(nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(w, names); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var overridePath = -1
var overrideSlots = -1

func defaultCfg() dip.Config {
	cfg := dip.DefaultConfig()
	if overridePath >= 0 {
		cfg.PathLen = overridePath
	}
	if overrideSlots > 0 {
		cfg.SigSlots = overrideSlots
	}
	return cfg
}

// evalAll evaluates one predictor spec over every benchmark through the
// workspace pool, returning results in suite order.
func evalAll(w *core.Workspace, names []string, spec dip.Spec) ([]dip.Result, error) {
	out := make([]dip.Result, len(names))
	err := w.Pool().ForEach(context.Background(), len(names), func(i int) error {
		r, err := w.EvalPredictor(names[i], spec)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func point(w *core.Workspace, names []string) error {
	cfg := defaultCfg()
	results, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
	if err != nil {
		return err
	}
	tb := stats.NewTable("bench", "dead", "covered", "cov%", "acc%", "false+", "br-acc%")
	var covs, accs []float64
	for i, name := range names {
		res := results[i]
		covs = append(covs, res.Coverage())
		accs = append(accs, res.Accuracy())
		tb.AddRow(name, fmt.Sprint(res.Dead), fmt.Sprint(res.TruePos),
			stats.Pct(res.Coverage()), stats.Pct(res.Accuracy()),
			fmt.Sprint(res.FalsePositives()), stats.Pct(res.BranchAccuracy))
	}
	tb.AddRow("MEAN", "", "", stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)), "", "")
	fmt.Printf("config %s (%.2f KB)\n\n%s", cfg.Name(), cfg.StateKB(), tb)
	return nil
}

func cfi(w *core.Workspace, names []string) error {
	withCFI := defaultCfg()
	noCFI := defaultCfg()
	noCFI.PathLen = 0
	as, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorCFI, Config: withCFI})
	if err != nil {
		return err
	}
	bs, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorCounter, Config: noCFI})
	if err != nil {
		return err
	}
	os_, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorOracle, Config: withCFI})
	if err != nil {
		return err
	}
	tb := stats.NewTable("bench", "cfi-cov%", "cfi-acc%", "ctr-cov%", "ctr-acc%", "oracle-cov%", "oracle-acc%")
	for i, name := range names {
		a, b, o := as[i], bs[i], os_[i]
		tb.AddRow(name,
			stats.Pct(a.Coverage()), stats.Pct(a.Accuracy()),
			stats.Pct(b.Coverage()), stats.Pct(b.Accuracy()),
			stats.Pct(o.Coverage()), stats.Pct(o.Accuracy()))
	}
	fmt.Print(tb)
	return nil
}

// assoc sweeps set associativity at a roughly constant entry count.
func assoc(w *core.Workspace, names []string) error {
	tb := stats.NewTable("config", "KB", "cov%", "acc%")
	for _, ways := range []int{1, 2, 4, 8} {
		cfg := defaultCfg()
		cfg.Ways = ways
		// Keep total entries at 512.
		cfg.LogSets = 9
		for v := ways; v > 1; v >>= 1 {
			cfg.LogSets--
		}
		results, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
		if err != nil {
			return err
		}
		var covs, accs []float64
		for _, res := range results {
			covs = append(covs, res.Coverage())
			accs = append(accs, res.Accuracy())
		}
		tb.AddRow(cfg.Name(), fmt.Sprintf("%.2f", cfg.StateKB()),
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)))
	}
	fmt.Print(tb)
	return nil
}

// steerSweep evaluates the cluster-steering predictor over the registered
// direction predictors (or the one named by -steer-dir): the trace-level
// twin of the two-cluster machine's steering stage.
func steerSweep(w *core.Workspace, names []string, only string) error {
	dirs := bpred.DirNames()
	if only != "" {
		dirs = []string{only}
	}
	tb := stats.NewTable("steer predictor", "ineff", "steered", "cov%", "acc%", "state-KB")
	for _, dir := range dirs {
		results, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorSteer, Dir: dir})
		if err != nil {
			return err
		}
		var covs, accs []float64
		ineff, steered, bits := 0, 0, 0
		for _, res := range results {
			covs = append(covs, res.Coverage())
			accs = append(accs, res.Accuracy())
			ineff += res.Dead
			steered += res.Predicted
			bits = res.StateBits
		}
		tb.AddRow(dir, fmt.Sprint(ineff), fmt.Sprint(steered),
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)),
			fmt.Sprintf("%.2f", float64(bits)/8192))
	}
	fmt.Print(tb)
	return nil
}

func sweep(w *core.Workspace, names []string) error {
	tb := stats.NewTable("config", "KB", "cov%", "acc%")
	for _, cfg := range dip.SweepConfigs() {
		if overridePath >= 0 {
			cfg.PathLen = overridePath
		}
		results, err := evalAll(w, names, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
		if err != nil {
			return err
		}
		var covs, accs []float64
		for _, res := range results {
			covs = append(covs, res.Coverage())
			accs = append(accs, res.Accuracy())
		}
		tb.AddRow(cfg.Name(), fmt.Sprintf("%.2f", cfg.StateKB()),
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.Mean(accs)))
	}
	fmt.Print(tb)
	return nil
}

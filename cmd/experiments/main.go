// Command experiments regenerates every reproduced table and figure
// (E1-E21 in DESIGN.md) and prints them in the format EXPERIMENTS.md
// records. Independent experiments run concurrently over a shared
// workspace — machine runs are memoized by (benchmark, config), so sweeps
// and elim-pairs shared across experiments simulate exactly once — and
// results print in deterministic ID order regardless of -j.
//
// Usage:
//
//	experiments [-only id[,id...]] [-skip id[,id...]] [-n budget] [-j workers]
//	            [-cache-dir dir] [-disk-budget bytes] [-remote-cache url]
//	            [-v] [-md | -json] [-timeout d]
//
// Experiment selection: -only restricts the run to the listed ids, -skip
// excludes ids from whatever -only selected (default: all); both validate
// against the known experiment ids up front.
//
// The workspace derives profiles, their facts, predictor evaluations,
// machine runs and the experiments themselves through a
// content-addressed artifact cache that keeps every artifact it completes
// for the rest of the run. -cache-dir attaches a persistent disk tier
// shared across runs (and safely across concurrent processes): artifacts
// write through on build and cold misses load from disk instead of
// rebuilding, so a warm rerun reads one entry per experiment and prints
// the cold run's output with 0.0s wall stamps; -disk-budget bounds the
// directory (suffixes KiB/MiB/GiB; 0 = unlimited), with the oldest
// entries garbage-collected beyond it. -remote-cache attaches a warm
// deadd daemon as a third tier behind memory and disk (lookup order:
// memory, disk, remote, build): verified remote hits also warm the local
// disk tier, and the tier is read-only, so freshly built artifacts stay
// local. The
// artifact store's per-kind counts (hits, misses, inflight_waits, and the
// disk and remote tiers' disk_hits, disk_writes, remote_hits, ...) end
// the -v run summary and form the -json "artifacts" section. Every key
// carries the model fingerprint, which -json reports as "model": a tier
// or daemon written by a model with another fingerprint misses every
// key.
//
// Failure handling: each experiment runs once, bounded by -timeout, and
// to its own end, so one failure never cancels or drops another
// experiment's results. A failed experiment is reported in its place
// (FAILED in the text and markdown output, an "error" field in -json),
// and the exit code says how the run went: 0 when every experiment
// succeeded, 3 when some failed, 1 when all failed. An interrupt (SIGINT)
// fails the experiments still running and keeps those that finished.
// The FAULTS / FAULTS_SEED environment variables arm the deterministic
// fault injector for resilience testing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/artifact"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Exit codes: 0 all experiments succeeded, 1 all failed, 2 bad usage or
// environment, 3 partial success (some failed).
const (
	exitOK      = 0
	exitFailed  = 1
	exitUsage   = 2
	exitPartial = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	skip := flag.String("skip", "", "comma-separated experiment ids to exclude")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "experiments")
	md := flag.Bool("md", false, "emit markdown sections (EXPERIMENTS.md body)")
	asJSON := flag.Bool("json", false, "emit machine-readable metrics")
	verbose := flag.Bool("v", false, "print per-phase progress lines and a run summary to stderr")
	timeout := flag.Duration("timeout", 0, "deadline per experiment (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopCPU, err := metrics.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	defer stopCPU()
	defer func() {
		if err := metrics.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	list, err := selectExperiments(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	mc := metrics.New()
	if *verbose {
		mc.SetVerbose(os.Stderr)
	}
	w.Metrics = mc
	w.Timeout = *timeout

	if _, err := cliflags.ArmFaults(mc, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Each failed entry carries its own error, which the output reports
	// in its place; the joined error repeats them.
	exps, _ := w.RunExperiments(ctx, list)
	mc.RecordMemStats()
	failed := 0
	for _, e := range exps {
		if e.Err != nil {
			failed++
		}
	}

	switch {
	case *asJSON:
		if !printJSON(exps, w.ArtifactStats(), mc) {
			return exitFailed
		}
	case *md:
		for _, e := range exps {
			if e.Err != nil {
				fmt.Printf("## %s — FAILED\n\n```\n%v\n```\n\n", strings.ToUpper(e.ID), e.Err)
				continue
			}
			fmt.Printf("## %s — %s\n\n", strings.ToUpper(e.ID), e.Title)
			fmt.Printf("Paper claim: *%s*\n\n```\n%s```\n\n", e.Claim, e.Table)
			if e.Figure != nil {
				fmt.Printf("```\n%s```\n\n", e.Figure)
			}
		}
	default:
		for _, e := range exps {
			if e.Err != nil {
				fmt.Printf("=== %s: FAILED\n%v\n\n", strings.ToUpper(e.ID), e.Err)
				continue
			}
			fmt.Printf("=== %s: %s (%.1fs)\n", strings.ToUpper(e.ID), e.Title, e.Wall.Seconds())
			fmt.Printf("claim: %s\n\n%s\n", e.Claim, e.Table)
			if e.Figure != nil {
				fmt.Printf("%s\n", e.Figure)
			}
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "\n--- run summary (%d workers) ---\n", w.Pool().Workers())
		mc.WriteText(os.Stderr)
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		enc.Encode(w.ArtifactStats())
	}
	switch {
	case failed == 0:
		return exitOK
	case failed == len(exps):
		fmt.Fprintf(os.Stderr, "all %d experiments failed\n", failed)
		return exitFailed
	default:
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed\n", failed, len(exps))
		return exitPartial
	}
}

// selectExperiments resolves the -only / -skip id lists against the
// known experiment ids, preserving declaration order. Unknown ids are a
// usage error up front, not a per-experiment failure mid-run.
func selectExperiments(only, skip string) ([]string, error) {
	known := make(map[string]bool)
	for _, id := range core.ExperimentIDs() {
		known[id] = true
	}
	parse := func(flagName, csv string) (map[string]bool, error) {
		set := make(map[string]bool)
		if csv == "" {
			return set, nil
		}
		for _, id := range strings.Split(csv, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if id == "" {
				continue
			}
			if !known[id] {
				return nil, fmt.Errorf("experiments: -%s: unknown experiment %q (have %s)",
					flagName, id, strings.Join(core.ExperimentIDs(), ","))
			}
			set[id] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var list []string
	for _, id := range core.ExperimentIDs() {
		if len(onlySet) > 0 && !onlySet[id] {
			continue
		}
		if skipSet[id] {
			continue
		}
		list = append(list, id)
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("experiments: -only/-skip selected no experiments")
	}
	return list, nil
}

// printJSON emits the machine-readable form: the model fingerprint every
// artifact key carries, then the experiments array, which is
// deterministic (identical for any -j), while the run section carries the
// wall-clock phase report and counters of this particular run, and the
// artifacts section the per-kind cache hit/miss statistics and
// residency.
// Failed experiments carry an error in place of metrics.
func printJSON(exps []*core.Experiment, arts artifact.Stats, mc *metrics.Collector) bool {
	type jsonExp struct {
		ID      string             `json:"id"`
		Title   string             `json:"title,omitempty"`
		Claim   string             `json:"claim,omitempty"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
		Error   string             `json:"error,omitempty"`
	}
	out := struct {
		Model       string          `json:"model"`
		Experiments []jsonExp       `json:"experiments"`
		Artifacts   artifact.Stats  `json:"artifacts"`
		Run         metrics.Summary `json:"run"`
	}{Model: core.ModelFingerprint, Artifacts: arts, Run: mc.Summary()}
	for _, e := range exps {
		je := jsonExp{ID: e.ID, Title: e.Title, Claim: e.Claim, Metrics: e.Metrics}
		if e.Err != nil {
			// Keep only the first line: injected-panic errors embed stacks.
			je.Error, _, _ = strings.Cut(e.Err.Error(), "\n")
		}
		out.Experiments = append(out.Experiments, je)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	return true
}

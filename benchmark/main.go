// Command deadbench is the repository's end-to-end benchmark. It runs four
// workloads against the public API of internal/core, internal/server and
// the substrate packages, checks every output, and reports the end-to-end
// metrics BENCHMARK.json declares (or, traced, the per-layer ones).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -seed 1 -reps 5 -o a.json      # all four workloads
//	bash benchmark/run.sh -reps 10 -against ../parent    # paired comparison
//	bash benchmark/run.sh -compare a.json b.json
//
// One workload run prints, as the last line of standard output, a JSON
// object with the keys correct, attempted, failed and metrics. Every
// measured sample runs in a fresh child process: the benchmark binary
// re-executed in a worker role (see worker.go), or cmd/deadd.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if role := os.Getenv(workerEnv); role != "" {
		os.Exit(workerMain(role))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty = all)")
	seed := fs.Int64("seed", 1, "seed for the workload inputs (daemon-mix requests)")
	seconds := fs.Int("seconds", 0, "measured window of one run in seconds (0 = run_seconds of BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics and write the spans")
	reps := fs.Int("reps", 1, "with no -workload: runs per workload, seeds seed, seed+1, ...")
	baseline := fs.String("against", "", "with no -workload: the checkout of a baseline to run in pairs with this one")
	out := fs.String("o", "", "with no -workload: write the JSON report (with -against, both) to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "working directory for disk tiers and span files")
	deadd := fs.String("deadd", filepath.Join(".bench_build", "deadd"), "the cmd/deadd binary daemon-mix runs")
	writeGolden := fs.Bool("write-golden", false, "recompute the expected output digests into "+goldenPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(stderr, "deadbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "deadbench: -compare takes two report files")
			return 2
		}
		return compareReports(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	scale := defaultScale()
	if *writeGolden {
		g, err := computeGolden(scale)
		if err == nil {
			err = g.save(goldenPath)
		}
		if err != nil {
			fmt.Fprintln(stderr, "deadbench:", err)
			return 1
		}
		return 0
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "deadbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "deadbench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	cfg := runConfig{
		seed: *seed, seconds: float64(*seconds), traced: *traceFlag == 1,
		scale: scale, golden: golden, work: *work, exe: exe, deadd: *deadd, log: stderr,
	}
	ctx := context.Background()
	if *workloadName != "" {
		if !spec.hasWorkload(*workloadName) {
			fmt.Fprintf(stderr, "deadbench: unknown workload %q\n", *workloadName)
			return 2
		}
		cfg.workload = *workloadName
		return runOne(ctx, spec, cfg, stdout)
	}
	return runAll(ctx, spec, cfg, *reps, *baseline, *out, stdout)
}

// runOne runs one workload once and prints the result line.
func runOne(ctx context.Context, spec *benchSpec, cfg runConfig, stdout io.Writer) int {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(cfg.log, "deadbench: %s: %v\n", cfg.workload, err)
		res.Failed = max(res.Failed, 1)
		res.Attempted = max(res.Attempted, res.Failed)
	}
	metrics, declared := res.EndToEnd, spec.EndToEnd
	if cfg.traced {
		metrics, declared = res.Layers, spec.PerLayer
	}
	line := resultLine{Correct: err == nil && res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	if err == nil {
		if err := checkDeclared(declared, metrics); err != nil {
			fmt.Fprintln(cfg.log, "deadbench:", err)
			line.Correct = false
		}
		for _, m := range declared {
			line.Metrics[m.Name] = metricValue{metrics[m.Name], m.Unit}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(cfg.log, "deadbench: FAIL", p)
	}
	b, _ := json.Marshal(line) // plain maps of floats and strings always marshal
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the JSON object every single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the command,
// the declared workloads and metrics, their bounds, and the window length.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the checkout at root.
func loadSpec(root string) (*benchSpec, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Command) == 0 {
		return nil, fmt.Errorf("%s: no command", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// checkDeclared reports metrics the program measured but BENCHMARK.json
// does not declare, and declared ones it did not measure, so the two
// cannot drift apart silently.
func checkDeclared(declared []metricSpec, got map[string]float64) error {
	want := map[string]bool{}
	var problems []string
	for _, m := range declared {
		want[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			problems = append(problems, "not measured: "+m.Name)
		}
	}
	for name := range got {
		if !want[name] {
			problems = append(problems, "not declared in BENCHMARK.json: "+name)
		}
	}
	if problems == nil {
		return nil
	}
	sort.Strings(problems)
	return errors.New(strings.Join(problems, "; "))
}

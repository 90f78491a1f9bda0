package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// deaddPath is the cmd/deadd binary TestMain builds for daemon-mix.
var deaddPath string

// TestMain lets the test binary serve as the benchmark's worker children,
// the way the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if role := os.Getenv(workerEnv); role != "" {
		os.Exit(workerMain(role))
	}
	os.Exit(testMain(m))
}

// testMain builds cmd/deadd, which daemon-mix starts, then runs the tests.
func testMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "deadbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	deaddPath = filepath.Join(dir, "deadd")
	if out, err := exec.Command("go", "build", "-o", deaddPath, "repro/cmd/deadd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/deadd: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(values, n=4) on the same inputs.
	for _, c := range []struct {
		in          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		if got := median(c.in); got != c.med {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.med)
		}
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relIQR = %g, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	s := func(vals ...float64) *series {
		var out series
		for _, v := range vals {
			out.add(v)
		}
		return &out
	}
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.25}
	steady := s(1.00, 1.01, 0.99, 1.00)
	noisy := s(1.0, 1.1, 0.9, 1.05) // spread 16%, over a third of the bound
	for _, c := range []struct {
		a, b *series
		want string
	}{
		{steady, s(1.02, 1.01, 1.03, 1.02), "same"},
		{steady, s(1.30, 1.31, 1.29, 1.30), "worse"},
		{steady, s(0.70, 0.71, 0.69, 0.70), "better"},
		{steady, s(0.5, 1.5, 1.0, 2.0), "unresolved"},
		// Noisy within the bound: same only if every b beats every a.
		{noisy, s(1.02, 1.01, 1.03, 1.02), "unresolved"},
		{noisy, s(0.85, 0.88, 0.86, 0.89), "same"},
		{noisy, s(0.85, 0.95, 0.86, 0.89), "unresolved"},
		// Noisy past the bound: the verdict needs full separation.
		{noisy, s(1.5, 2.5, 2.0, 3.0), "worse"},
		{noisy, s(1.0, 2.5, 2.0, 3.0), "unresolved"},
	} {
		if got := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Values, c.b.Values, got, c.want)
		}
	}
	m.Better = "higher"
	if got := verdict(m, steady, s(0.70, 0.71, 0.69, 0.70)); got != "worse" {
		t.Errorf("lower value of a higher-is-better metric: %s, want worse", got)
	}
}

func TestCompareFlagsCountMismatch(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: suiteCold}},
		EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "artifact.misses.machine", Unit: "count", Better: "lower"}},
	}
	write := func(misses float64) string {
		wall := &series{Unit: "s"}
		for _, v := range []float64{1, 1.01, 0.99} {
			wall.add(v)
		}
		rep := report{Workloads: map[string]*workloadReport{suiteCold: {
			EndToEnd: map[string]*series{"wall_s": wall},
			PerLayer: map[string]float64{"artifact.misses.machine": misses},
		}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write(209)
	var out bytes.Buffer
	if code := compareReports(spec, a, write(209), &out, &out); code != 0 {
		t.Fatalf("A/A compare exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(spec, a, write(210), &out, &out); code != 1 || !strings.Contains(out.String(), "MISMATCH") {
		t.Fatalf("count mismatch not flagged (exit %d):\n%s", code, out.String())
	}
}

// smokeScale runs every workload in seconds: a small budget, the three
// experiments the daemon load generator requests, 50 daemon requests, one
// pass.
func smokeScale() scale {
	return scale{
		SuiteBudget: 20_000, ProfileBudget: 20_000,
		Experiments: []string{"e1", "e2", "e5"}, Requests: 50, WarmSetups: 1, MinPasses: 1,
	}
}

// TestSmoke runs all four workloads, untraced and traced, at the smoke
// scale through the same entry the command uses, and checks the result
// line: correct, no failures, and exactly the metrics BENCHMARK.json
// declares, the end-to-end ones all positive.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	s := smokeScale()
	g, err := computeGolden(s)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out, log bytes.Buffer
			cfg := runConfig{workload: w, seed: 1, traced: traced, scale: s, golden: g,
				work: t.TempDir(), exe: exe, deadd: deaddPath, log: &log}
			code := runOne(context.Background(), spec, cfg, &out)
			line := resultOf(t, out.String())
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("%s traced=%v: exit %d, %+v\n%s", w, traced, code, line, log.String())
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(line.Metrics), len(declared))
			}
			for name, v := range line.Metrics {
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: %s = %g, want > 0", w, name, v.Value)
				}
			}
		}
	}
}

// TestWrongOutputFails checks the correctness gate: a run whose outputs
// do not match the expected digests reports failures and exits nonzero.
func TestWrongOutputFails(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	s := smokeScale()
	g, err := computeGolden(s)
	if err != nil {
		t.Fatal(err)
	}
	for id := range g.Experiments {
		g.Experiments[id] = strings.Repeat("0", 64)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{suiteCold, daemonMix} {
		var out, log bytes.Buffer
		cfg := runConfig{workload: w, seed: 1, scale: s, golden: g, work: t.TempDir(), exe: exe, deadd: deaddPath, log: &log}
		code := runOne(context.Background(), spec, cfg, &out)
		line := resultOf(t, out.String())
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s with a wrong golden digest: exit %d, %+v", w, code, line)
		}
	}
}

func resultOf(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last output line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

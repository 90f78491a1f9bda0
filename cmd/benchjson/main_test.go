package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkEmulator-8   	     100	  11860 ns/op	  44.27 Minst/s	  1024 B/op	   3 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if e.Name != "Emulator" || e.Iterations != 100 {
		t.Fatalf("got %+v", e)
	}
	want := map[string]float64{"ns/op": 11860, "Minst/s": 44.27, "B/op": 1024, "allocs/op": 3}
	for unit, v := range want {
		if e.Metrics[unit] != v {
			t.Errorf("%s = %g, want %g", unit, e.Metrics[unit], v)
		}
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	repro	12.3s",
		"BenchmarkBroken notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("accepted non-benchmark line %q", line)
		}
	}
	// Sub-benchmark names keep their slash path, only the -P suffix drops.
	e, ok = parseLine("BenchmarkClusteredPipeline/live/single-2 10 5 ns/op")
	if !ok || e.Name != "ClusteredPipeline/live/single" {
		t.Fatalf("sub-benchmark name: %+v ok=%v", e, ok)
	}
}

func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"ns/op": -1, "B/op": -1, "allocs/op": -1,
		"Minst/s": +1, "MB/s": +1,
		"chunks": 0, "ratio": 0,
	}
	for unit, want := range cases {
		if got := metricDirection(unit); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", unit, got, want)
		}
	}
}

// writeBaseline marshals a report into a temp file and returns its path.
func writeBaseline(t *testing.T, base report) string {
	t.Helper()
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCompare(t *testing.T, base report, rep report, tol float64) (string, bool) {
	t.Helper()
	var sb strings.Builder
	regressed, err := compareReports(&sb, writeBaseline(t, base), rep, tol)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The headline guarantee: no metric combination may ever surface as
	// Inf/NaN in the human-facing table.
	for _, bad := range []string{"Inf", "NaN", "inf", "nan"} {
		if strings.Contains(out, bad) {
			t.Fatalf("output contains %q:\n%s", bad, out)
		}
	}
	return out, regressed
}

func bench(name string, metrics map[string]float64) entry {
	return entry{Name: name, Iterations: 1, Metrics: metrics}
}

// Zero-valued baseline metrics must not produce a bogus relative delta,
// and must not silently skip the regression verdict: climbing off a zero
// allocs/op baseline is a regression, a rate appearing from zero is not.
func TestCompareZeroBaseline(t *testing.T) {
	base := report{Benchmarks: []entry{
		bench("Alloc", map[string]float64{"allocs/op": 0}),
		bench("Rate", map[string]float64{"Minst/s": 0}),
		bench("Flat", map[string]float64{"allocs/op": 0}),
	}}
	rep := report{Benchmarks: []entry{
		bench("Alloc", map[string]float64{"allocs/op": 7}),
		bench("Rate", map[string]float64{"Minst/s": 42}),
		bench("Flat", map[string]float64{"allocs/op": 0}),
	}}
	out, regressed := runCompare(t, base, rep, 0.25)
	if !regressed {
		t.Errorf("allocs/op 0 -> 7 not flagged as regression:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero baseline missing n/a marker:\n%s", out)
	}
	if strings.Contains(out, "+0.0%") {
		t.Errorf("zero baseline rendered as misleading +0.0%%:\n%s", out)
	}
	// The rate appearing from zero is an improvement, so only the Alloc
	// row may carry the REGRESSION note.
	if got := strings.Count(out, "REGRESSION"); got != 1 {
		t.Errorf("want exactly 1 REGRESSION note, got %d:\n%s", got, out)
	}
}

// One-sided sets: benchmarks present in only one report must be listed,
// never dropped or compared as zeros.
func TestCompareOneSidedSets(t *testing.T) {
	base := report{Benchmarks: []entry{
		bench("Shared", map[string]float64{"ns/op": 100, "B/op": 64}),
		bench("OnlyOld", map[string]float64{"ns/op": 50}),
	}}
	rep := report{Benchmarks: []entry{
		bench("Shared", map[string]float64{"ns/op": 110}),
		bench("OnlyNew", map[string]float64{"ns/op": 80}),
	}}
	out, regressed := runCompare(t, base, rep, 0.25)
	if regressed {
		t.Errorf("+10%% within 25%% tolerance flagged as regression:\n%s", out)
	}
	if !strings.Contains(out, "OnlyNew") || !strings.Contains(out, "(no baseline)") {
		t.Errorf("new-only benchmark not reported:\n%s", out)
	}
	if !strings.Contains(out, "OnlyOld") || !strings.Contains(out, "(missing from new run)") {
		t.Errorf("baseline-only benchmark dropped silently:\n%s", out)
	}
	// Shared lost its B/op column: the row must surface as gone.
	if !strings.Contains(out, "gone") {
		t.Errorf("dropped metric column not reported:\n%s", out)
	}
}

func TestCompareRegressionDirections(t *testing.T) {
	base := report{Benchmarks: []entry{
		bench("Time", map[string]float64{"ns/op": 100}),
		bench("Rate", map[string]float64{"Minst/s": 100}),
		bench("Aux", map[string]float64{"chunks": 100}),
	}}
	// Time +50% (regression), rate -50% (regression), info -90% (no
	// direction, never flagged).
	rep := report{Benchmarks: []entry{
		bench("Time", map[string]float64{"ns/op": 150}),
		bench("Rate", map[string]float64{"Minst/s": 50}),
		bench("Aux", map[string]float64{"chunks": 10}),
	}}
	out, regressed := runCompare(t, base, rep, 0.25)
	if !regressed {
		t.Errorf("regressions not flagged:\n%s", out)
	}
	if got := strings.Count(out, "REGRESSION"); got != 2 {
		t.Errorf("want 2 REGRESSION notes, got %d:\n%s", got, out)
	}

	// Improvements beyond tolerance stay quiet.
	rep = report{Benchmarks: []entry{
		bench("Time", map[string]float64{"ns/op": 40}),
		bench("Rate", map[string]float64{"Minst/s": 300}),
		bench("Aux", map[string]float64{"chunks": 10}),
	}}
	out, regressed = runCompare(t, base, rep, 0.25)
	if regressed {
		t.Errorf("improvement flagged as regression:\n%s", out)
	}
}

func TestFmtDelta(t *testing.T) {
	cases := []struct {
		oldV, newV float64
		dir        int
		wantCol    string
		wantNote   bool
	}{
		{0, 0, -1, "=", false},
		{0, 5, -1, "n/a", true},
		{0, 5, +1, "n/a", false},
		{0, 5, 0, "n/a", false},
		{100, 150, -1, "   +50.0%", true},
		{100, 110, -1, "   +10.0%", false},
		{100, 50, +1, "   -50.0%", true},
	}
	for _, c := range cases {
		col, note := fmtDelta(c.oldV, c.newV, c.dir, 0.25)
		if col != c.wantCol || (note != "") != c.wantNote {
			t.Errorf("fmtDelta(%g, %g, %d) = (%q, %q), want (%q, note=%v)",
				c.oldV, c.newV, c.dir, col, note, c.wantCol, c.wantNote)
		}
	}
}

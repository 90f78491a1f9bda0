package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
)

// canaryBudget is the instruction budget of the canary run that
// ModelFingerprint hashes: small enough for tier-1, large enough that
// every experiment simulates and evaluates real work.
const canaryBudget = 4_000

// canaryRun runs E1-E21 cold at the canary budget with the given number
// of workers, over a fresh disk tier, and returns each experiment's
// rendering in ID order and every entry the run wrote, keyed by
// "<kind>/<file name>".
func canaryRun(t *testing.T, workers int) ([]string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	w := NewWorkspaceWorkers(canaryBudget, workers)
	if err := w.OpenDiskCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	exps, err := w.RunExperiments(context.Background(), ExperimentIDs())
	if err != nil {
		t.Fatalf("canary run: %v", err)
	}
	renders := make([]string, len(exps))
	for i, e := range exps {
		renders[i] = e.Render()
	}
	entries := make(map[string][]byte)
	kinds, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		files, err := os.ReadDir(filepath.Join(dir, k.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, k.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			entries[k.Name()+"/"+f.Name()] = b
		}
	}
	return renders, entries
}

// modelHash hashes a canary run: each rendering in ID order, then every
// entry as sorted (kind, SHA-256 of its bytes) pairs. File names are
// keys, which carry ModelFingerprint, so they stay out of the hash.
func modelHash(renders []string, entries map[string][]byte) string {
	h := sha256.New()
	for _, r := range renders {
		fmt.Fprintf(h, "%d\n%s", len(r), r)
	}
	pairs := make([]string, 0, len(entries))
	for name, b := range entries {
		kind, _, _ := strings.Cut(name, "/")
		sum := sha256.Sum256(b)
		pairs = append(pairs, kind+" "+hex.EncodeToString(sum[:]))
	}
	sort.Strings(pairs)
	for _, p := range pairs {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:len(ModelFingerprint)]
}

// TestModelFingerprint recomputes ModelFingerprint from a canary run. A
// change to what any layer computes, to a driver's rendering or to a
// codec's bytes fails it until the constant is updated, and the update
// re-keys every artifact, so no cache answers with the old model's
// values.
func TestModelFingerprint(t *testing.T) {
	got := modelHash(canaryRun(t, 2))
	if got != ModelFingerprint {
		t.Fatalf("the canary run hashes to %s, but ModelFingerprint is %s.\n"+
			"What E1-E21 render or persist has changed. If the change is intended, set\n"+
			"\tconst ModelFingerprint = %q\n"+
			"in internal/core/workspace.go. Updating it invalidates every disk and remote cache.",
			got, ModelFingerprint, got)
	}
}

// TestExperimentTierDeterministic runs a cold E1-E21 at one and at four
// workers, each over a fresh tier: both write the same file names, every
// entry of every kind byte for byte, and one entry per experiment.
func TestExperimentTierDeterministic(t *testing.T) {
	r1, e1 := canaryRun(t, 1)
	r4, e4 := canaryRun(t, 4)
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Errorf("%s renders differently at 1 and 4 workers", ExperimentIDs()[i])
		}
	}
	if len(e1) != len(e4) {
		t.Errorf("1 worker wrote %d entries, 4 workers %d", len(e1), len(e4))
	}
	perKind := map[string]int{}
	for name, b := range e1 {
		perKind[strings.Split(name, "/")[0]]++
		if b4, ok := e4[name]; !ok {
			t.Errorf("4 workers did not write %s", name)
		} else if !bytes.Equal(b, b4) {
			t.Errorf("%s differs between 1 and 4 workers", name)
		}
	}
	if n := perKind[string(KindExperiment)]; n != len(ExperimentIDs()) {
		t.Errorf("cold run wrote %d experiment entries, want %d", n, len(ExperimentIDs()))
	}
}

// TestWorkspaceRebuildsCorruptExperimentEntry flips a byte in a persisted
// experiment entry and warm-starts: the workspace must detect the
// corruption, rebuild the experiment from the lower tiers, re-persist it
// and render what the cold run did.
func TestWorkspaceRebuildsCorruptExperimentEntry(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	open := func() *Workspace {
		w := NewWorkspaceWorkers(canaryBudget, 2)
		if err := w.OpenDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
		return w
	}
	ids := []string{"e5"}
	cold, err := open().RunExperiments(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	expDir := filepath.Join(dir, string(KindExperiment))
	files, err := os.ReadDir(expDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("experiment dir: %v (%d files)", err, len(files))
	}
	path := filepath.Join(expDir, files[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	w := open()
	warm, err := w.RunExperiments(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm[0].Render(), cold[0].Render(); got != want {
		t.Errorf("rebuilt experiment differs:\n--- cold\n%s\n--- warm\n%s", want, got)
	}
	ks := w.ArtifactStats().Kinds
	if st := ks[KindExperiment]; st.VerifyFailures != 1 || st.Misses != 1 || st.DiskWrites != 1 {
		t.Errorf("corrupt-entry stats = %+v, want verify failure + rebuild + re-persist", st)
	}
	if st := ks[KindPredEval]; st.Misses != 0 || st.DiskHits != int64(len(SuiteNames())) {
		t.Errorf("predeval stats = %+v, want the rebuild to read %d disk entries and build none", st, len(SuiteNames()))
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("rebuilt experiment was not re-persisted: %v", err)
	}
}

// sampleExperiment is a small experiment with every persisted part.
func sampleExperiment() *Experiment {
	tb := stats.NewTable("bench", "dead")
	tb.AddRow("gzip", "10.0%")
	tb.AddRow("mcf", "3.5%")
	return &Experiment{
		ID: "e0", Title: "sample", Claim: "3-16% <dead>",
		Table: tb,
		Figure: &stats.Chart{Title: "fig", XLabel: "x", YLabel: "y",
			Series: []stats.Series{{Name: "s", Points: []stats.Point{{X: 1, Y: 0.5}, {X: 3, Y: 0.25}}}}},
		Metrics: map[string]float64{"b": 2, "a": 1},
	}
}

// TestExperimentCodecRoundTrip checks what the codec stores: a decoded
// experiment renders as the original, reports no Wall, and re-encodes to
// the same bytes; an experiment Render could not draw is not encoded.
func TestExperimentCodecRoundTrip(t *testing.T) {
	e := sampleExperiment()
	e.Wall = 5e9
	b := encode(t, experimentCodec{}, e)
	if !bytes.Contains(b, []byte(`"Metrics":{"a":1,"b":2}`)) {
		t.Errorf("metrics not in sorted key order: %s", b)
	}
	v, err := experimentCodec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*Experiment)
	if got.Render() != e.Render() {
		t.Errorf("round trip changed the rendering:\n%s\nvs\n%s", got.Render(), e.Render())
	}
	if got.Wall != 0 || got.Err != nil {
		t.Errorf("decoded Wall %v, Err %v; want neither stored", got.Wall, got.Err)
	}
	if again := encode(t, experimentCodec{}, got); !bytes.Equal(again, b) {
		t.Errorf("re-encoding differs:\n%s\nvs\n%s", again, b)
	}
	for name, bad := range map[string]func(*Experiment){
		"nan metric":      func(e *Experiment) { e.Metrics["a"] = math.NaN() },
		"nan point":       func(e *Experiment) { e.Figure.Series[0].Points[0].Y = math.NaN() },
		"huge point":      func(e *Experiment) { e.Figure.Series[0].Points[0].X = 1e300 },
		"wide chart":      func(e *Experiment) { e.Figure.Width = maxChartSide + 1 },
		"negative height": func(e *Experiment) { e.Figure.Height = -1 },
	} {
		e := sampleExperiment()
		bad(e)
		if _, err := (experimentCodec{}).Encode(e); err == nil {
			t.Errorf("%s: encoded an experiment Render cannot draw", name)
		}
	}
}

// TestExperimentCodecRejects holds the decoder to strict, canonical
// input: each near miss of a valid payload is refused.
func TestExperimentCodecRejects(t *testing.T) {
	valid := encode(t, experimentCodec{}, sampleExperiment())
	for name, payload := range experimentNearMisses(valid) {
		if _, err := (experimentCodec{}).Decode(payload); err == nil {
			t.Errorf("%s: accepted %s", name, payload)
		}
	}
	// A table whose padded rows would render past the bound.
	wide := experimentRecord{ID: "e0", Table: &tableRecord{
		Headers: []string{"a"},
		Rows:    [][]string{{strings.Repeat("x", maxTableRender/4)}, {""}, {""}},
	}}
	b, err := experimentJSON.Encode(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (experimentCodec{}).Decode(b); err == nil {
		t.Error("accepted a table that renders past maxTableRender")
	}
}

// experimentNearMisses derives invalid payloads from a valid encoding of
// sampleExperiment.
func experimentNearMisses(valid []byte) map[string][]byte {
	edit := func(old, new string) []byte {
		if !bytes.Contains(valid, []byte(old)) {
			panic("sample encoding lacks " + old)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	return map[string][]byte{
		"truncated":          valid[:len(valid)/2],
		"trailing data":      append(bytes.Clone(valid), `{}`...),
		"no newline":         valid[:len(valid)-1],
		"unknown field":      edit(`"Claim"`, `"Claim2"`),
		"key case":           edit(`"ID"`, `"id"`),
		"duplicate key":      edit(`"Title":"sample"`, `"Title":"x","Title":"sample"`),
		"space":              edit(`,"Claim"`, `, "Claim"`),
		"key order":          edit(`"Metrics":{"a":1,"b":2}`, `"Metrics":{"b":2,"a":1}`),
		"number form":        edit(`"a":1`, `"a":1.0`),
		"escape form":        edit(`"gzip"`, `"\u0067zip"`),
		"unescaped html":     edit(`\u003cdead\u003e`, `<dead>`),
		"extra cell":         edit(`["gzip","10.0%"]`, `["gzip","10.0%","x"]`),
		"missing cell":       edit(`["gzip","10.0%"]`, `["gzip"]`),
		"wide chart":         edit(`"Width":0`, `"Width":257`),
		"negative height":    edit(`"Height":0`, `"Height":-1`),
		"point beyond range": edit(`"X":3`, `"X":1e300`),
		"point out of float": edit(`"X":3`, `"X":1e999`),
	}
}

// renderAllocBound is the most Render may allocate for an experiment
// decoded from n payload bytes: linear in the payload, plus the largest
// table and chart grid the decoder admits.
func renderAllocBound(n int) uint64 {
	return 64*uint64(n) + 8*maxTableRender
}

// FuzzExperimentDecode throws arbitrary bytes at the experiment codec,
// which reads disk and remote payloads. The properties: no panic; a
// payload it accepts is exactly the bytes Encode writes for the decoded
// value; and Render of that value neither panics nor allocates past a
// bound set by the payload size. Seeds are every experiment's encoding at
// the canary budget and the near misses the decoder must refuse.
func FuzzExperimentDecode(f *testing.F) {
	w := NewWorkspaceWorkers(canaryBudget, 2)
	exps, err := w.RunExperiments(context.Background(), ExperimentIDs())
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range exps {
		f.Add(encode(f, experimentCodec{}, e))
	}
	valid := encode(f, experimentCodec{}, sampleExperiment())
	f.Add(valid)
	for _, b := range experimentNearMisses(valid) {
		f.Add(b)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := experimentCodec{}.Decode(payload)
		if err != nil {
			return
		}
		b, err := experimentCodec{}.Encode(v)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(b, payload) {
			t.Fatalf("accepted payload is not what Encode writes:\nin  %q\nout %q", payload, b)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v.(*Experiment).Render()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > renderAllocBound(len(payload)) {
			t.Fatalf("Render of a %d-byte payload allocated %d bytes, past %d", len(payload), n, renderAllocBound(len(payload)))
		}
	})
}

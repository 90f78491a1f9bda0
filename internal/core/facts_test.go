package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/deadness"
	"repro/internal/metrics"
)

// TestFactsMatchProfile checks that every field of a benchmark's facts
// is what its readers used to compute from the profile itself.
func TestFactsMatchProfile(t *testing.T) {
	w := NewWorkspace(testBudget)
	f, err := w.Facts(context.Background(), "gzip", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.ProfileOf("gzip")
	if err != nil {
		t.Fatal(err)
	}
	want := ProfileFacts{
		Summary:     p.Summary,
		Locality:    p.Locality,
		PassStats:   p.PassStats,
		DeadResolve: p.Analysis.ResolveDistances(true),
		Mix:         deadness.ComputeMix(p.Trace),
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("facts differ from the profile:\ngot  %+v\nwant %+v", f, want)
	}
}

// TestWarmSuiteReadsNoTrace pins the warm path: a cold suite stores one
// profile and four facts entries per benchmark and one entry per
// experiment, and over that disk tier E1-E21 read their 21 experiment
// entries and nothing else. With the experiment entries removed, they
// answer from facts, predictor evaluations and machine runs alone, so
// no profile is opened, no trace decoded and nothing compiled; and the
// machine-only experiments touch neither profiles nor facts.
func TestWarmSuiteReadsNoTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times")
	}
	const budget = 20_000
	ctx := context.Background()
	dir := t.TempDir()
	open := func() *Workspace {
		w := NewWorkspaceWorkers(budget, 2)
		if err := w.OpenDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
		return w
	}
	ids := ExperimentIDs()
	coldRes, err := open().RunExperiments(ctx, ids)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	want := make(map[string]string, len(ids))
	for _, e := range coldRes {
		want[e.ID] = e.Render()
	}
	// Only default profiles are artifacts; the no-hoist and with-DCE
	// variants live inside their facts builds.
	for _, c := range []struct {
		kind artifact.Kind
		want int
	}{
		{KindProfile, len(SuiteNames())},
		{KindFacts, 4 * len(SuiteNames())},
		{KindExperiment, len(ids)},
	} {
		files, err := os.ReadDir(filepath.Join(dir, string(c.kind)))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != c.want {
			t.Errorf("cold suite stored %d %s entries, want %d", len(files), c.kind, c.want)
		}
	}
	same := func(run string, res []*Experiment) {
		t.Helper()
		for _, e := range res {
			if got := e.Render(); got != want[e.ID] {
				t.Errorf("%s %s differs from the cold run:\n--- cold\n%s\n--- %s\n%s", run, e.ID, want[e.ID], run, got)
			}
		}
	}

	full := open()
	fullRes, err := full.RunExperiments(ctx, ids)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	same("warm", fullRes)
	want21 := map[artifact.Kind]artifact.KindStats{KindExperiment: {DiskHits: int64(len(ids))}}
	if ks := full.ArtifactStats().Kinds; !reflect.DeepEqual(ks, want21) {
		t.Errorf("warm suite artifact stats = %+v, want only %d experiment disk hits", ks, len(ids))
	}

	// The halves below count lower-tier reads, so each runs over the
	// tier without its experiment entries (the one before rewrites them).
	dropExperiments := func() {
		if err := os.RemoveAll(filepath.Join(dir, string(KindExperiment))); err != nil {
			t.Fatal(err)
		}
	}
	dropExperiments()
	warm := open()
	warm.Metrics = metrics.New()
	warmRes, err := warm.RunExperiments(ctx, ids)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	same("warm", warmRes)
	ks := warm.ArtifactStats().Kinds
	if p := ks[KindProfile]; p.Hits != 0 || p.Misses != 0 || p.DiskHits != 0 {
		t.Errorf("warm suite opened profiles: %+v", p)
	}
	if n := warm.Metrics.Summary().Phases[metrics.PhaseCompile].Count; n != 0 {
		t.Errorf("warm suite opened %d compile spans, want 0", n)
	}
	if f := ks[KindFacts]; f.Misses != 0 || f.DiskHits != int64(4*len(SuiteNames())) {
		t.Errorf("warm facts stats = %+v, want %d disk hits (default, no-hoist, DCE and E18's windows per benchmark) and no builds",
			f, 4*len(SuiteNames()))
	}
	for k, n := range map[artifact.Kind]int64{KindPredEval: 264, KindMachine: 209} {
		if st := ks[k]; st.Misses != 0 || st.DiskHits != n {
			t.Errorf("warm %s stats = %+v, want %d disk hits and no builds", k, st, n)
		}
	}

	dropExperiments()
	machines := open()
	sub := []string{"e9", "e10", "e13"}
	subRes, err := machines.RunExperiments(ctx, sub)
	if err != nil {
		t.Fatalf("warm %v: %v", sub, err)
	}
	same("machine-only", subRes)
	ks = machines.ArtifactStats().Kinds
	for _, k := range []artifact.Kind{KindProfile, KindFacts} {
		if s := ks[k]; s != (artifact.KindStats{}) {
			t.Errorf("warm %v touched %s artifacts: %+v", sub, k, s)
		}
	}
}

// TestWorkspaceRebuildsCorruptFactsEntry flips a byte in a persisted
// facts entry and warm-starts: the workspace must detect the corruption,
// rebuild the facts, re-persist them, and return what the cold run did.
func TestWorkspaceRebuildsCorruptFactsEntry(t *testing.T) {
	dir := t.TempDir()
	bench := "gzip"
	ctx := context.Background()
	coldFacts, err := diskWorkspace(t, dir).Facts(ctx, bench, nil)
	if err != nil {
		t.Fatal(err)
	}

	factsDir := filepath.Join(dir, string(KindFacts))
	files, err := os.ReadDir(factsDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("facts dir: %v (%d files)", err, len(files))
	}
	path := filepath.Join(factsDir, files[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	warm := diskWorkspace(t, dir)
	warmFacts, err := warm.Facts(ctx, bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmFacts, coldFacts) {
		t.Errorf("rebuilt facts differ:\ncold %+v\nwarm %+v", coldFacts, warmFacts)
	}
	ws := warm.ArtifactStats().Kinds[KindFacts]
	if ws.VerifyFailures != 1 || ws.Misses != 1 || ws.DiskWrites != 1 {
		t.Errorf("corrupt-entry stats = %+v, want verify failure + rebuild + re-persist", ws)
	}
}

// FuzzFactsDecode throws arbitrary bytes at the facts codec, which reads
// disk and remote payloads. The property: no panic, and a payload it
// accepts re-encodes to bytes that decode to an equal value. Seeds are
// real facts (with and without E18's windows) and the near-misses the
// strict decoder must refuse.
func FuzzFactsDecode(f *testing.F) {
	w := NewWorkspaceWorkers(5_000, 1)
	for _, windows := range [][]int{nil, {1_000, 4_000}} {
		facts, err := w.facts(context.Background(), "gzip", nil, windows)
		if err != nil {
			f.Fatal(err)
		}
		valid := encode(f, factsCodec, facts)
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(append(bytes.Clone(valid), `{}`...))
		f.Add(bytes.Replace(valid, []byte(`"Mix"`), []byte(`"Mix2"`), 1))
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := factsCodec.Decode(payload)
		if err != nil {
			return
		}
		b, err := factsCodec.Encode(v)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		again, err := factsCodec.Decode(b)
		if err != nil {
			t.Fatalf("re-encoded payload is refused: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip changed the value:\nfirst  %+v\nsecond %+v", v, again)
		}
	})
}

package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dip"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// diskWorkspace creates a workspace whose artifact store persists to dir.
func diskWorkspace(t *testing.T, dir string) *Workspace {
	t.Helper()
	w := NewWorkspaceWorkers(testBudget, 2)
	if err := w.OpenDiskCache(dir, 0); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkspaceWarmStartBitIdentical is the persistent tier's acceptance
// check at the workspace level: a fresh workspace over a populated cache
// directory must produce bit-identical profiles, predictor evaluations,
// and machine runs with zero profile builds — the disk-hit counters prove
// every profile came from disk — and compile nothing: a profile's pass
// stats come back from its header.
func TestWorkspaceWarmStartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	bench := "gzip"
	cfg := pipeline.ContendedConfig()
	spec := dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()}

	cold := diskWorkspace(t, dir)
	coldProf, err := cold.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	coldRecords := coldProf.Trace.Records()
	coldEval, err := cold.EvalPredictor(bench, spec)
	if err != nil {
		t.Fatal(err)
	}
	coldSim, err := cold.RunMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.ArtifactStats().Kinds
	if cs[KindProfile].Misses != 1 || cs[KindProfile].DiskWrites != 1 {
		t.Errorf("cold profile stats = %+v", cs[KindProfile])
	}

	warm := diskWorkspace(t, dir)
	warm.Metrics = metrics.New()
	warmProf, err := warm.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmProf.Summary, coldProf.Summary) {
		t.Errorf("summaries differ:\ncold %+v\nwarm %+v", coldProf.Summary, warmProf.Summary)
	}
	if !reflect.DeepEqual(warmProf.Locality, coldProf.Locality) {
		t.Error("localities differ")
	}
	if !reflect.DeepEqual(warmProf.PassStats, coldProf.PassStats) {
		t.Error("pass stats differ")
	}
	if warmProf.Analysis.Candidates() != coldProf.Analysis.Candidates() {
		t.Error("candidate counts differ")
	}
	for _, cmp := range []struct {
		name       string
		cold, warm any
	}{
		{"Kind", coldProf.Analysis.Kind, warmProf.Analysis.Kind},
		{"Candidate", coldProf.Analysis.Candidate, warmProf.Analysis.Candidate},
		{"EverRead", coldProf.Analysis.EverRead, warmProf.Analysis.EverRead},
		{"Resolve", coldProf.Analysis.Resolve, warmProf.Analysis.Resolve},
	} {
		if !reflect.DeepEqual(cmp.cold, cmp.warm) {
			t.Errorf("analysis %s column differs after disk round trip", cmp.name)
		}
	}
	if !reflect.DeepEqual(warmProf.Trace.Records(), coldRecords) {
		t.Error("trace records differ after disk round trip")
	}

	warmEval, err := warm.EvalPredictor(bench, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warmEval != coldEval {
		t.Errorf("predictor evaluations differ:\ncold %+v\nwarm %+v", coldEval, warmEval)
	}
	warmSim, err := warm.RunMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmSim != coldSim {
		t.Errorf("machine runs differ:\ncold %+v\nwarm %+v", coldSim, warmSim)
	}

	ws := warm.ArtifactStats().Kinds
	if ws[KindProfile].Misses != 0 {
		t.Errorf("warm run built %d profiles, want 0 (stats %+v)", ws[KindProfile].Misses, ws[KindProfile])
	}
	if ws[KindProfile].DiskHits != 1 {
		t.Errorf("warm profile disk hits = %d, want 1", ws[KindProfile].DiskHits)
	}
	if ws[KindPredEval].Misses != 0 || ws[KindPredEval].DiskHits != 1 {
		t.Errorf("warm predeval stats = %+v, want pure disk hit", ws[KindPredEval])
	}
	if ws[KindMachine].Misses != 0 || ws[KindMachine].DiskHits != 1 {
		t.Errorf("warm machine stats = %+v, want pure disk hit", ws[KindMachine])
	}
	if n := warm.Metrics.Summary().Phases[metrics.PhaseCompile].Count; n != 0 {
		t.Errorf("warm start opened %d compile spans, want 0", n)
	}
}

// TestWorkspaceRebuildsCorruptProfileEntry flips a byte in the persisted
// profile and warm-starts: the workspace must detect the corruption,
// rebuild the profile from scratch, and still match the original.
func TestWorkspaceRebuildsCorruptProfileEntry(t *testing.T) {
	dir := t.TempDir()
	bench := "gzip"
	cold := diskWorkspace(t, dir)
	coldProf, err := cold.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}

	profDir := filepath.Join(dir, string(KindProfile))
	files, err := os.ReadDir(profDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("profile dir: %v (%d files)", err, len(files))
	}
	path := filepath.Join(profDir, files[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	warm := diskWorkspace(t, dir)
	warmProf, err := warm.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmProf.Summary, coldProf.Summary) {
		t.Error("rebuilt profile differs from original")
	}
	ws := warm.ArtifactStats().Kinds[KindProfile]
	if ws.VerifyFailures != 1 || ws.Misses != 1 || ws.DiskWrites != 1 {
		t.Errorf("corrupt-entry stats = %+v, want verify failure + rebuild + re-persist", ws)
	}
}

// TestOptionVariantsPersistOnlyAsFacts checks that a compile-option
// variant (E3/E12-style override) reaches the disk tier as its own facts
// entry and never as a profile: a cold workspace stores the default
// profile and two distinct facts entries, and a warm one reads the
// variant facts as a pure disk hit without opening or compiling a
// profile. TestWarmSuiteReadsNoTrace counts a cold suite's entries.
func TestOptionVariantsPersistOnlyAsFacts(t *testing.T) {
	dir := t.TempDir()
	bench := "gzip"
	ctx := context.Background()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opts := p.Opts
	opts.MaxHoist = 0

	cold := diskWorkspace(t, dir)
	base, err := cold.Facts(ctx, bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := cold.Facts(ctx, bench, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, variant) {
		t.Error("no-hoist facts equal the default facts; the override had no effect")
	}
	cs := cold.ArtifactStats().Kinds
	if cs[KindProfile].DiskWrites != 1 || cs[KindFacts].DiskWrites != 2 {
		t.Fatalf("cold run persisted %d profile and %d facts entries, want 1 and 2",
			cs[KindProfile].DiskWrites, cs[KindFacts].DiskWrites)
	}

	warm := diskWorkspace(t, dir)
	warm.Metrics = metrics.New()
	warmVariant, err := warm.Facts(ctx, bench, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVariant, variant) {
		t.Errorf("variant facts differ after disk round trip:\ncold %+v\nwarm %+v", variant, warmVariant)
	}
	ws := warm.ArtifactStats().Kinds
	if f := ws[KindFacts]; f.Misses != 0 || f.DiskHits != 1 {
		t.Errorf("warm variant facts stats = %+v, want pure disk hit", f)
	}
	if p := ws[KindProfile]; p.Hits != 0 || p.Misses != 0 || p.DiskHits != 0 {
		t.Errorf("warm variant facts opened a profile: %+v", p)
	}
	if n := warm.Metrics.Summary().Phases[metrics.PhaseCompile].Count; n != 0 {
		t.Errorf("warm variant facts opened %d compile spans, want 0", n)
	}
}

// TestDefaultProfileKeyPinned pins the disk key of one default profile to
// the digest it had when profileSpec also carried an omitempty
// compile-options pointer, nil for every default profile. Disk tiers and
// remote daemons populated under that spec keep serving default profiles.
func TestDefaultProfileKeyPinned(t *testing.T) {
	const want = "8a768280103d6cb5d8e5b9be14b74c7c97a64c811ab77948e605e9a852ee4505"
	dir := t.TempDir()
	if _, err := diskWorkspace(t, dir).ProfileOf("gzip"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, string(KindProfile), want)); err != nil {
		files, _ := os.ReadDir(filepath.Join(dir, string(KindProfile)))
		t.Errorf("gzip's profile at budget %d is not stored under %s: %v (entries %v)", testBudget, want, err, files)
	}
}

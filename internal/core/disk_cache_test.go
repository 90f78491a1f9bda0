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
	err = warm.WithProfile(bench, func(res *ProfileResult) error {
		if !reflect.DeepEqual(res.Trace.Records(), coldRecords) {
			t.Error("trace records differ after disk round trip")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// TestProfileOptionVariantsArePersistedDistinctly checks the disk tier
// keys compile-option variants separately (E3/E12-style overrides), and
// that a warm start with the same override hits its own entry.
func TestProfileOptionVariantsArePersistedDistinctly(t *testing.T) {
	dir := t.TempDir()
	bench := "gzip"
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	opts := p.Opts
	opts.MaxHoist = 0

	// variantOf fetches the variant profile the way a facts build does.
	variantOf := func(w *Workspace) (*ProfileResult, error) {
		res, release, err := w.profileFor(context.Background(), bench, &opts)
		release()
		return res, err
	}

	cold := diskWorkspace(t, dir)
	base, err := cold.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := variantOf(cold)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Summary, variant.Summary) {
		t.Log("variant summary equals base; override had no effect on this benchmark")
	}
	if got := cold.ArtifactStats().Kinds[KindProfile].DiskWrites; got != 2 {
		t.Fatalf("cold run persisted %d profile entries, want 2", got)
	}

	warm := diskWorkspace(t, dir)
	warmVariant, err := variantOf(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmVariant.Summary, variant.Summary) {
		t.Error("variant profile differs after disk round trip")
	}
	if !reflect.DeepEqual(warmVariant.PassStats, variant.PassStats) {
		t.Error("variant pass stats differ after disk round trip")
	}
	ws := warm.ArtifactStats().Kinds[KindProfile]
	if ws.Misses != 0 || ws.DiskHits != 1 {
		t.Errorf("warm variant stats = %+v, want pure disk hit", ws)
	}
}

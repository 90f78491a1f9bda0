package core

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/dip"
	"repro/internal/faults"
)

// TestPredEvalArtifactSharedAcrossSpecs checks that canonicalization
// makes equivalent predictor requests share one evaluation artifact:
// E5's implicit-default-dir request and E11's explicit gshare-4k row are
// the same computation.
func TestPredEvalArtifactSharedAcrossSpecs(t *testing.T) {
	w := NewWorkspace(testBudget)
	predEval := func() artifact.KindStats { return w.ArtifactStats().Kinds[KindPredEval] }

	cfg := dip.DefaultConfig()
	a, err := w.EvalPredictor("gzip", dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.EvalPredictor("gzip", dip.Spec{Flavor: dip.FlavorCFI, Config: cfg, Dir: dip.DefaultDirName})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equivalent specs returned different results")
	}
	if st := predEval(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("predeval hits/misses = %d/%d, want 1/1 (second request served from the store)", st.Hits, st.Misses)
	}

	// A genuinely different spec is a different artifact.
	if _, err := w.EvalPredictor("gzip", dip.Spec{Flavor: dip.FlavorOracle, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if misses := predEval().Misses; misses != 2 {
		t.Errorf("predeval misses = %d after an oracle request, want 2", misses)
	}

	// An invalid spec is rejected before touching the store.
	before := predEval()
	for _, bad := range []dip.Spec{{Flavor: "nope"}, {Flavor: dip.FlavorCFI, Config: cfg, Dir: "no-such-dir"}} {
		if _, err := w.EvalPredictor("gzip", bad); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
	if predEval() != before {
		t.Error("an invalid spec reached the store")
	}
}

// TestTransientFaultEvictsOnlyPoisonedArtifact is the focused version of
// the chaos soak's eviction contract: a transient workspace.memo fault
// poisons exactly the artifact being built — survivors stay resident,
// identical, and served from the store.
func TestTransientFaultEvictsOnlyPoisonedArtifact(t *testing.T) {
	w := NewWorkspace(testBudget)
	a1, err := w.ProfileOf("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := w.ProfileOf("gcc")
	if err != nil {
		t.Fatal(err)
	}

	in := faults.NewInjector(7).
		Arm(faults.SiteWorkspaceMemo, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 1})
	faults.Set(in)
	defer faults.Set(nil)

	if _, err := w.ProfileOf("mcf"); !faults.IsTransient(err) {
		t.Fatalf("poisoned build returned %v, want the injected transient", err)
	}

	// Count from here: the first two requests above built the survivors.
	before := w.ArtifactStats().Kinds[KindProfile]
	a2, err := w.ProfileOf("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w.ProfileOf("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 || b2 != b1 {
		t.Error("survivor artifacts were rebuilt; the fault must evict only the poisoned one")
	}
	if hits := w.ArtifactStats().Kinds[KindProfile].Hits - before.Hits; hits != 2 {
		t.Errorf("survivor hits = %d, want 2", hits)
	}

	// The poisoned artifact was forgotten, not memoized: the next request
	// (the injector's Max is exhausted) rebuilds it successfully.
	c, err := w.ProfileOf("mcf")
	if err != nil || c == nil {
		t.Fatalf("post-fault rebuild: res=%v err=%v", c, err)
	}
	if builds := w.ArtifactStats().Kinds[KindProfile].Misses - before.Misses; builds != 1 {
		t.Errorf("rebuild count = %d, want 1 (only the poisoned artifact)", builds)
	}
}

// Golden guard for trace-level predictor evaluation. Every dip.Spec that
// E5-E7, E11, E14, E17 and E20 evaluate is run over all eleven suite
// benchmarks at a reduced budget. Each result is pinned by a SHA-256 of
// its JSON encoding, so a change in internal/dip or internal/bpred (a
// shared branch lookahead, a fused sweep walk) must reproduce every
// counter bit for bit.
package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dip"
)

const (
	predEvalGoldenBudget = 20_000
	predEvalGoldenPath   = "testdata/predeval_golden.json"
)

// updatePredEvalGolden rewrites the golden file from the current
// predictors: only for a deliberate model change, never to make a
// refactor pass.
var updatePredEvalGolden = flag.Bool("update-predeval-golden", false,
	"rewrite "+predEvalGoldenPath+" from the current predictors")

// predEvalGolden is one pinned evaluation.
type predEvalGolden struct {
	Bench  string `json:"bench"`
	Label  string `json:"label"`  // Spec.Label(), to make a diff readable
	Digest string `json:"digest"` // Spec.Digest()
	Result string `json:"result_sha256"`
}

// predEvalGoldenExperiments are the experiments whose evaluations the
// golden pins.
var predEvalGoldenExperiments = []string{"e5", "e6", "e7", "e11", "e14", "e17", "e20"}

// predEvalGoldenSpecs lists the specs those experiments evaluate, one
// per canonical digest.
func predEvalGoldenSpecs() []dip.Spec {
	def := dip.DefaultConfig()
	noCFI := def
	noCFI.PathLen = 0
	specs := []dip.Spec{
		{Flavor: dip.FlavorCFI, Config: def},                               // E5, E6, E11's gshare-4k row, E17
		{Flavor: dip.FlavorCounter, Config: noCFI},                         // E6
		{Flavor: dip.FlavorOracle, Config: def},                            // E6, E11
		{Flavor: dip.FlavorStaticHint, TrainFrac: 0.5, HintThreshold: 0.9}, // E17
		{Flavor: dip.FlavorStaticHint, TrainFrac: 0.5, HintThreshold: 0.5}, // E17
	}
	for _, cfg := range dip.SweepConfigs() { // E7
		specs = append(specs, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
	}
	for _, pt := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {2, 3}, {3, 4}, {3, 7}} { // E14
		cfg := def
		cfg.CounterBits, cfg.Threshold = pt[0], pt[1]
		specs = append(specs, dip.Spec{Flavor: dip.FlavorCFI, Config: cfg})
	}
	for _, dir := range []string{"static-taken", "bimodal-4k", "twolevel-4k", "gshare-4k", "tournament-4k"} {
		specs = append(specs,
			dip.Spec{Flavor: dip.FlavorCFI, Config: def, Dir: dir}, // E11
			dip.Spec{Flavor: dip.FlavorSteer, Dir: dir})            // E20
	}
	seen := map[string]bool{}
	var out []dip.Spec
	for _, s := range specs {
		if d := s.Digest(); !seen[d] {
			seen[d] = true
			out = append(out, s)
		}
	}
	return out
}

// evaluatePredEvalGolden runs the experiments, then evaluates the spec
// list on the same workspace. The list must be exactly the experiments'
// set: the experiments build one evaluation per (benchmark, spec), and
// the list's requests must all be served from those.
func evaluatePredEvalGolden(t *testing.T) []predEvalGolden {
	t.Helper()
	w := core.NewWorkspace(predEvalGoldenBudget)
	if _, err := w.RunExperiments(context.Background(), predEvalGoldenExperiments); err != nil {
		t.Fatal(err)
	}
	built := w.ArtifactStats().Kinds[core.KindPredEval].Misses
	specs := predEvalGoldenSpecs()
	names := core.SuiteNames()
	if want := int64(len(specs) * len(names)); built != want {
		t.Errorf("the experiments built %d evaluations, the spec list covers %d", built, want)
	}
	var out []predEvalGolden
	for _, name := range names {
		for _, spec := range specs {
			r, err := w.EvalPredictor(name, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec.Label(), err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			out = append(out, predEvalGolden{
				Bench:  name,
				Label:  spec.Label(),
				Digest: spec.Digest(),
				Result: hex.EncodeToString(sum[:]),
			})
		}
	}
	if n := w.ArtifactStats().Kinds[core.KindPredEval].Misses; n != built {
		t.Errorf("the spec list evaluated %d specs the experiments do not", n-built)
	}
	return out
}

func TestPredEvalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates 11 benchmarks x every experiment predictor")
	}
	got := evaluatePredEvalGolden(t)
	if *updatePredEvalGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(predEvalGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), predEvalGoldenPath)
		return
	}
	b, err := os.ReadFile(predEvalGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []predEvalGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	type key struct{ bench, digest string }
	byKey := make(map[key]predEvalGolden, len(want))
	for _, g := range want {
		byKey[key{g.Bench, g.Digest}] = g
	}
	if len(got) != len(want) {
		t.Errorf("%d evaluations, golden file has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := byKey[key{g.Bench, g.Digest}]
		switch {
		case !ok:
			t.Errorf("%s %s: no golden entry", g.Bench, g.Label)
		case g.Result != w.Result:
			t.Errorf("%s %s: result %.12s, golden %.12s", g.Bench, g.Label, g.Result, w.Result)
		}
	}
}

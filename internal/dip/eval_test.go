package dip

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/emu"
)

// pathDeadProgram builds a loop where one static instruction's deadness is
// perfectly correlated with the direction of the next branch: r3 is
// consumed only when the inner condition (i%4 == 0) holds. The pattern is
// periodic, so a history-based branch predictor learns it, and the CFI
// dead predictor should approach oracle behaviour while the counter
// variant is stuck: the same static slli is dead 3/4 of the time.
const pathDeadSrc = `
main:
    addi r1, r0, 400      # i = 400
    addi r5, r0, 0        # acc
loop:
    slli r3, r1, 2        # candidate: dead unless the branch below falls through
    andi r2, r1, 3
    bne  r2, r0, skip     # taken 3 of 4 iterations
    add  r5, r5, r3       # consumes r3
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r5
    halt
`

func evalSrc(t *testing.T, src string, spec Spec) Result {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pred.Evaluate(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvaluateCFIOnPathCorrelatedDeadness(t *testing.T) {
	res := evalSrc(t, pathDeadSrc, Spec{Flavor: FlavorCFI, Config: DefaultConfig()})
	if res.Dead == 0 {
		t.Fatal("no dead instances in workload")
	}
	if cov := res.Coverage(); cov < 0.85 {
		t.Errorf("CFI coverage = %.3f, want >= 0.85 (%+v)", cov, res)
	}
	if acc := res.Accuracy(); acc < 0.9 {
		t.Errorf("CFI accuracy = %.3f, want >= 0.9 (%+v)", acc, res)
	}
	if res.BranchAccuracy < 0.9 {
		t.Errorf("branch accuracy = %.3f, want >= 0.9", res.BranchAccuracy)
	}
}

func TestCFIOutperformsCounterOnPathDeadness(t *testing.T) {
	cfi := evalSrc(t, pathDeadSrc, Spec{Flavor: FlavorCFI, Config: DefaultConfig()})

	noCfi := evalSrc(t, pathDeadSrc, Spec{Flavor: FlavorCounter, Config: DefaultConfig()})

	// The counter predictor must either miss coverage (stays below
	// threshold) or mispredict the useful instances (above threshold);
	// either way its accuracy*coverage product is far below CFI's.
	cfiScore := cfi.Accuracy() * cfi.Coverage()
	ctrScore := noCfi.Accuracy() * noCfi.Coverage()
	if cfiScore <= ctrScore {
		t.Errorf("CFI score %.3f not better than counter score %.3f\ncfi: %v\nctr: %v",
			cfiScore, ctrScore, cfi, noCfi)
	}
}

func TestActualPathIsUpperBound(t *testing.T) {
	pred := evalSrc(t, pathDeadSrc, Spec{Flavor: FlavorCFI, Config: DefaultConfig()})
	oracle := evalSrc(t, pathDeadSrc, Spec{Flavor: FlavorOracle, Config: DefaultConfig()})
	if oracle.Coverage() < pred.Coverage()-0.02 {
		t.Errorf("actual-path coverage %.3f unexpectedly below predicted-path %.3f",
			oracle.Coverage(), pred.Coverage())
	}
	if oracle.Accuracy() < 0.95 {
		t.Errorf("oracle-path accuracy = %.3f, want >= 0.95", oracle.Accuracy())
	}
}

func TestEvaluateAlwaysLiveProgram(t *testing.T) {
	res := evalSrc(t, `
main:
    addi r1, r0, 50
loop:
    addi r2, r1, 1
    out  r2
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`, Spec{Flavor: FlavorCFI, Config: DefaultConfig()})
	if res.Dead != 0 {
		t.Fatalf("expected no dead instances, got %d", res.Dead)
	}
	if res.FalsePositives() != 0 {
		t.Errorf("false positives on all-live program: %d", res.FalsePositives())
	}
	if res.Accuracy() != 1 {
		t.Errorf("accuracy with no predictions = %v, want 1", res.Accuracy())
	}
}

func TestEvaluateDelayedTraining(t *testing.T) {
	// A single always-dead instruction in a tight loop: training is
	// delayed to the overwrite in the next iteration, so the predictor
	// needs a few iterations before covering instances; after warmup,
	// coverage should be high but strictly below 1 in a short run.
	res := evalSrc(t, `
main:
    addi r1, r0, 50
loop:
    slli r3, r1, 1     # dead every iteration
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r1
    halt
`, Spec{Flavor: FlavorCFI, Config: DefaultConfig()})
	if res.Dead != 50 {
		t.Fatalf("dead = %d, want 50", res.Dead)
	}
	if res.TruePos < 40 || res.TruePos >= 50 {
		t.Errorf("true positives = %d, want warmup-limited high coverage", res.TruePos)
	}
}

func TestEvaluateWithExplicitDirPredictor(t *testing.T) {
	p, err := asm.Assemble("t", pathDeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// A static not-taken predictor produces constant signatures, so CFI
	// degenerates; evaluation must still run and report sane totals.
	res, err := evaluate(tr, a, DefaultConfig(), bpred.Predict(tr, bpred.Static{}, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates == 0 || res.Dead == 0 {
		t.Fatalf("bad totals: %+v", res)
	}
	if res.TruePos > res.Predicted || res.TruePos > res.Dead {
		t.Errorf("inconsistent tallies: %+v", res)
	}
}

// TestEvaluateWithSharedColumn checks which flavors read a caller's
// prediction column: the cfi and counter flavors under DefaultDirName
// read it and agree with their private path, a column by another
// predictor is refused, and the oracle and other predictors never ask.
func TestEvaluateWithSharedColumn(t *testing.T) {
	p, err := asm.Assemble("t", pathDeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	gshare := bpred.Predict(tr, bpred.NewGshare(12, 10), false)
	bimodal := bpred.Predict(tr, bpred.NewBimodal(12), false)
	for _, tc := range []struct {
		spec   Spec
		shared *bpred.Predictions
		reads  bool
		fails  bool
	}{
		{Spec{Flavor: FlavorCFI, Config: DefaultConfig()}, gshare, true, false},
		{Spec{Flavor: FlavorCounter, Config: DefaultConfig()}, gshare, true, false},
		{Spec{Flavor: FlavorCFI, Config: DefaultConfig()}, bimodal, true, true},
		{Spec{Flavor: FlavorOracle, Config: DefaultConfig()}, gshare, false, false},
		{Spec{Flavor: FlavorCFI, Config: DefaultConfig(), Dir: "bimodal-4k"}, gshare, false, false},
		{Spec{Flavor: FlavorSteer}, gshare, false, false},
	} {
		pred, err := tc.spec.New()
		if err != nil {
			t.Fatal(err)
		}
		read := false
		got, err := pred.EvaluateWith(tr, a, func() *bpred.Predictions {
			read = true
			return tc.shared
		})
		if read != tc.reads {
			t.Errorf("%s: read the shared column %t, want %t", tc.spec.Label(), read, tc.reads)
		}
		if tc.fails {
			if err == nil {
				t.Errorf("%s: a %s column was accepted", tc.spec.Label(), tc.shared.Dir)
			}
			continue
		}
		want, werr := pred.Evaluate(tr, a)
		if err != nil || werr != nil || got != want {
			t.Errorf("%s: shared %+v (%v), private %+v (%v)", tc.spec.Label(), got, err, want, werr)
		}
	}
}

func TestResultStringAndMetrics(t *testing.T) {
	r := Result{Name: "x", Candidates: 100, Dead: 10, Predicted: 9, TruePos: 8, StateBits: 8192}
	if r.Coverage() != 0.8 {
		t.Errorf("coverage = %v", r.Coverage())
	}
	if r.FalsePositives() != 1 {
		t.Errorf("false+ = %d", r.FalsePositives())
	}
	if s := r.String(); s == "" {
		t.Error("empty string")
	}
	zero := Result{}
	if zero.Coverage() != 0 || zero.Accuracy() != 1 {
		t.Error("zero-value metrics wrong")
	}
}

// sanity check: the evaluation does not mutate the trace.
func TestEvaluateLeavesTraceIntact(t *testing.T) {
	p, err := asm.Assemble("t", pathDeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Records()
	if _, err := evaluate(tr, a, DefaultConfig(), bpred.Predict(tr, bpred.NewGshare(12, 10), false)); err != nil {
		t.Fatal(err)
	}
	after := tr.Records()
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("record %d mutated", i)
		}
	}
}

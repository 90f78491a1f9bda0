package dip

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/emu"
)

func TestStaticHintOnFullyDeadInstruction(t *testing.T) {
	// One always-dead static: a strict hint covers it perfectly.
	p, err := asm.Assemble("t", `
main:
    addi r1, r0, 400
loop:
    slli r3, r1, 2     # dead every iteration
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	res := StaticHintResult(tr, a, 0.5, 0.9)
	if res.Coverage() < 0.95 {
		t.Errorf("coverage = %v on an always-dead static", res.Coverage())
	}
	if res.Accuracy() < 0.99 {
		t.Errorf("accuracy = %v", res.Accuracy())
	}
}

func TestStaticHintCappedByDeadnessRatio(t *testing.T) {
	// The slli is dead on 3 of 4 iterations: a loose hint (threshold 0.5)
	// marks it dead always, capping accuracy near 75%; a strict hint
	// (threshold 0.9) never marks it, giving zero coverage.
	p, err := asm.Assemble("t", pathDeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	loose := StaticHintResult(tr, a, 0.5, 0.5)
	if loose.Coverage() < 0.9 {
		t.Errorf("loose coverage = %v, want high", loose.Coverage())
	}
	if loose.Accuracy() < 0.70 || loose.Accuracy() > 0.80 {
		t.Errorf("loose accuracy = %v, want ~0.75 (the deadness ratio)", loose.Accuracy())
	}
	strict := StaticHintResult(tr, a, 0.5, 0.9)
	if strict.Predicted != 0 {
		t.Errorf("strict hint predicted %d on a 75%%-dead static", strict.Predicted)
	}
	if strict.Accuracy() != 1 {
		t.Errorf("no predictions should report accuracy 1, got %v", strict.Accuracy())
	}
	// The dynamic CFI predictor beats both horns of the dilemma.
	dyn, err := evaluate(tr, a, DefaultConfig(), bpred.Predict(tr, bpred.NewGshare(12, 10), false))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Coverage() < loose.Coverage()-0.1 || dyn.Accuracy() < loose.Accuracy()+0.1 {
		t.Errorf("dynamic predictor (%v) not clearly better than hints (%v)", dyn, loose)
	}
}

func TestStaticHintDegenerateSplits(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n addi r1, r0, 1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.5, 1, 2} {
		res := StaticHintResult(tr, a, frac, 0.5)
		if res.TruePos > res.Predicted || res.TruePos > res.Dead {
			t.Errorf("frac %v: inconsistent tallies %+v", frac, res)
		}
	}
}

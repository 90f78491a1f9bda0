package dip

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
)

// steadyIneffSrc loops over one always-trivial op (x+0 with a live
// consumer, so it is ineffectual but NOT dead) and one always-silent
// store, plus effectual work. A per-PC predictor should learn the two
// ineffectual PCs after a brief warmup.
const steadyIneffSrc = `
main:
    addi r1, r0, 200
    addi r2, r0, 0
    addi r4, r0, 4096
    addi r5, r0, 7
    sd   r5, 0(r4)        # first store to fresh memory: not silent (7 != 0)
loop:
    add  r3, r5, r2       # x+0: trivial every iteration
    sd   r5, 0(r4)        # rewrites the same bytes: silent every iteration
    out  r3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`

func TestSteerLearnsSteadyIneffectuality(t *testing.T) {
	p, err := asm.Assemble("t", steadyIneffSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Flavor: FlavorSteer, Dir: "bimodal-4k"}
	pred, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pred.Evaluate(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	// The positive class is ineffectuality, so Dead must agree with the
	// analysis' own per-class counts.
	sum := a.Summarize(tr, p)
	if want := sum.SilentStores + sum.TrivialOps; res.Dead != want {
		t.Errorf("steer saw %d ineffectual instances, analysis counted %d", res.Dead, want)
	}
	if res.Dead < 300 {
		t.Fatalf("workload produced only %d ineffectual instances", res.Dead)
	}
	if cov := res.Coverage(); cov < 0.9 {
		t.Errorf("steer coverage %.3f, want >= 0.9 on a steady pattern", cov)
	}
	if acc := res.Accuracy(); acc < 0.9 {
		t.Errorf("steer accuracy %.3f, want >= 0.9 on a steady pattern", acc)
	}
	if res.StateBits <= 0 {
		t.Error("steer result carries no state budget")
	}
}

// TestSteerSpecCanonicalization pins the digest behaviour the artifact
// cache keys on: table geometry is irrelevant to a steer spec, the
// direction predictor is not, and steer never collides with the
// table-based flavors.
func TestSteerSpecCanonicalization(t *testing.T) {
	base := Spec{Flavor: FlavorSteer}
	withCfg := Spec{Flavor: FlavorSteer, Config: DefaultConfig(), TrainFrac: 0.5}
	if base.Digest() != withCfg.Digest() {
		t.Error("steer digest depends on the ignored table geometry")
	}
	otherDir := Spec{Flavor: FlavorSteer, Dir: "bimodal-4k"}
	if base.Digest() == otherDir.Digest() {
		t.Error("steer digest ignores the direction predictor")
	}
	cfi := Spec{Flavor: FlavorCFI, Config: DefaultConfig()}
	if base.Digest() == cfi.Digest() {
		t.Error("steer digest collides with cfi")
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default steer spec invalid: %v", err)
	}
	if err := (Spec{Flavor: FlavorSteer, Dir: "no-such-dir"}).Validate(); err == nil {
		t.Error("steer spec with unknown direction predictor accepted")
	}
}

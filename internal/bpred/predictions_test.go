package bpred

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
)

func collectTrace(t *testing.T, src string) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := emu.CollectAnalyzed(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func loopTrace(t *testing.T) *trace.Trace {
	// 5-iteration countdown loop: bne taken 4 times, then not taken.
	// Dynamic stream: addi(0), then per iteration addi(pc1), bne(pc2),
	// branches at seqs 2, 4, 6, 8, 10.
	return collectTrace(t, `
main:
    addi r1, r0, 5
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r1
    halt
`)
}

func TestActualSigAfter(t *testing.T) {
	tr := loopTrace(t)
	p := Predict(tr, Static{TakenAlways: true}, true)
	// From the very start, the next 5 branches are T,T,T,T,N.
	if sig := p.SigAfter(-1, 8); sig != 0b01111 {
		t.Errorf("sig = %05b, want 01111", sig)
	}
	// After the second branch (seq 4): T,T,N remain.
	if sig := p.SigAfter(4, 8); sig != 0b011 {
		t.Errorf("sig after seq 4 = %03b, want 011", sig)
	}
	// After the last record: empty.
	if sig := p.SigAfter(tr.Len()-1, 8); sig != 0 {
		t.Errorf("sig at the end = %b, want 0", sig)
	}
	// The counts are the predictor's, not the outcomes'.
	if p.Branches != 5 || p.Mispredicts != 1 {
		t.Errorf("branches=%d mispredicts=%d, want 5,1", p.Branches, p.Mispredicts)
	}
}

func TestSigAfterWithStaticPredictor(t *testing.T) {
	tr := loopTrace(t)
	p := Predict(tr, Static{TakenAlways: true}, false)
	if sig := p.SigAfter(-1, 4); sig != 0b1111 {
		t.Errorf("sig = %04b, want 1111", sig)
	}
	// Only one branch beyond seq 8.
	if sig := p.SigAfter(8, 4); sig != 0b0001 {
		t.Errorf("sig after 8 = %04b, want 0001", sig)
	}
}

func TestPredictionsAreCachedAndCounted(t *testing.T) {
	tr := loopTrace(t)
	b := NewBimodal(4)
	b.Update(2, false)
	b.Update(2, false) // strongly not-taken at the loop branch PC
	p := Predict(tr, b, false)
	// The 5 branches are predicted in order, each trained with its actual
	// outcome: NT,NT,T,T,T vs outcomes T,T,T,T,NT.
	if sig := p.SigAfter(-1, 8); sig != 0b11100 {
		t.Errorf("sig = %05b, want 11100", sig)
	}
	if p.Branches != 5 || p.Mispredicts != 3 {
		t.Errorf("branches=%d mispredicts=%d, want 5,3", p.Branches, p.Mispredicts)
	}
	// Reading the column predicts nothing again.
	_ = p.SigAfter(-1, 8)
	_ = p.SigAfter(4, 8)
	if p.Branches != 5 || p.Mispredicts != 3 {
		t.Errorf("reads changed the counts: branches=%d mispredicts=%d", p.Branches, p.Mispredicts)
	}
}

func TestPredAt(t *testing.T) {
	tr := loopTrace(t)
	p := Predict(tr, Static{TakenAlways: true}, false)
	if !p.PredAt(2) {
		t.Error("static-taken should predict taken")
	}
	if p := Predict(tr, Static{}, false); p.PredAt(2) {
		t.Error("static-nottaken should predict not taken")
	}
}

func TestCountsCoverEveryBranch(t *testing.T) {
	tr := loopTrace(t)
	p := Predict(tr, Static{TakenAlways: true}, false)
	if p.Branches != 5 {
		t.Errorf("branches = %d, want 5", p.Branches)
	}
	if p.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1 (the final not-taken)", p.Mispredicts)
	}
	if acc := p.Accuracy(); acc != 0.8 {
		t.Errorf("accuracy = %v, want 0.8", acc)
	}
}

// TestDepthClamping pins SigAfter's depth bounds: depth 0 reads no
// control flow, and a depth past 16 reads the whole 16-bit signature.
func TestDepthClamping(t *testing.T) {
	tr := loopTrace(t)
	p := Predict(tr, Static{TakenAlways: true}, false)
	if sig := p.SigAfter(-1, 0); sig != 0 {
		t.Errorf("depth 0 read %b, want 0", sig)
	}
	if a, b := p.SigAfter(-1, 99), p.SigAfter(-1, 16); a != b {
		t.Errorf("depth 99 read %b, depth 16 %b", a, b)
	}
}

func TestGsharePredictionsOnNestedLoop(t *testing.T) {
	tr := collectTrace(t, `
main:
    addi r2, r0, 200   # outer counter
outer:
    addi r1, r0, 3     # inner counter
inner:
    addi r1, r1, -1
    bne  r1, r0, inner
    addi r2, r2, -1
    bne  r2, r0, outer
    out  r2
    halt
`)
	p := Predict(tr, NewGshare(12, 10), false)
	if p.Branches != 200*3+200 {
		t.Fatalf("branches = %d", p.Branches)
	}
	if p.Accuracy() < 0.9 {
		t.Errorf("gshare accuracy on nested loop = %v, want >= 0.9", p.Accuracy())
	}
}

func TestEmptyTracePredictions(t *testing.T) {
	p := Predict(&trace.Trace{}, Static{}, false)
	if sig := p.SigAfter(-1, 16); sig != 0 {
		t.Errorf("sig on empty trace = %b", sig)
	}
	if p.Accuracy() != 0 {
		t.Error("accuracy on empty trace should be 0")
	}
}

func TestCheckRejectsAnotherColumn(t *testing.T) {
	tr := loopTrace(t)
	g := NewGshare(12, 10)
	p := Predict(tr, g, false)
	if err := p.Check(tr, g.Name()); err != nil {
		t.Errorf("own column refused: %v", err)
	}
	for _, c := range []struct {
		name string
		p    *Predictions
		t    *trace.Trace
		dir  string
	}{
		{"other predictor", p, tr, NewGshare(10, 10).Name()},
		{"actual outcomes", Predict(tr, NewGshare(12, 10), true), tr, g.Name()},
		{"other trace", p, &trace.Trace{}, g.Name()},
	} {
		if err := c.p.Check(c.t, c.dir); err == nil || !strings.HasPrefix(err.Error(), "bpred: ") {
			t.Errorf("%s: Check = %v, want a bpred error", c.name, err)
		}
	}
}

// randomTrace draws n records: each is a conditional branch with
// probability branchPct/100 (at one of a few PCs, so predictors learn
// something), else an ALU op. Branches need no targets here: Predict
// reads only Op, PC and Taken.
func randomTrace(rng *rand.Rand, n, branchPct int, firstBranch bool) *trace.Trace {
	recs := make([]trace.Record, n)
	for i := range recs {
		r := &recs[i]
		r.PC = int32(rng.Intn(64))
		r.Op = isa.ADDI
		if rng.Intn(100) < branchPct || (i == 0 && firstBranch) {
			r.Op = isa.BNE
			r.Taken = rng.Intn(4) != 0 || r.PC%3 == 0
		}
	}
	return trace.FromRecords(recs)
}

// bruteSig recomputes one signature from scratch: the first depth
// conditional branches after seq, each with its direction from dirs.
func bruteSig(tr *trace.Trace, dirs []bool, seq, depth int) uint16 {
	var sig uint16
	bit := 0
	for s := seq + 1; s < tr.Len() && bit < depth; s++ {
		if tr.OpAt(s).IsCondBranch() {
			if dirs[s] {
				sig |= 1 << bit
			}
			bit++
		}
	}
	return sig
}

// TestPredictionsMatchBruteForce holds the column to a per-query
// recomputation on random traces, under every registered direction
// predictor, at every depth from 1 to 16, and for actual outcomes too:
// every position from before the first record to the last, PredAt at
// every branch, and both counts. The traces cover a branch at seq 0, a
// trace with no branch, an empty one, and lengths across chunk
// boundaries.
func TestPredictionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	traces := []*trace.Trace{
		{},
		randomTrace(rng, 1, 100, true),
		randomTrace(rng, 300, 0, false),
		randomTrace(rng, 400, 30, true),
		randomTrace(rng, 500, 90, false),
		randomTrace(rng, trace.ChunkSize+700, 15, true),
	}
	for ti, tr := range traces {
		for _, name := range DirNames() {
			// Reference directions: one fresh predictor walked over
			// per-record reads.
			ref, err := NewDirByName(name)
			if err != nil {
				t.Fatal(err)
			}
			preds, outcomes := make([]bool, tr.Len()), make([]bool, tr.Len())
			branches, misses := 0, 0
			for s := 0; s < tr.Len(); s++ {
				r := tr.Ref(s)
				if !r.Op().IsCondBranch() {
					continue
				}
				pred := ref.Predict(int(r.PC()))
				ref.Update(int(r.PC()), r.Taken())
				preds[s], outcomes[s] = pred, r.Taken()
				branches++
				if pred != r.Taken() {
					misses++
				}
			}
			for _, actual := range []bool{false, true} {
				dir, _ := NewDirByName(name)
				p := Predict(tr, dir, actual)
				dirs := preds
				if actual {
					dirs = outcomes
				}
				if p.Branches != branches || p.Mispredicts != misses {
					t.Fatalf("trace %d %s actual=%t: counts %d/%d, want %d/%d",
						ti, name, actual, p.Branches, p.Mispredicts, branches, misses)
				}
				for seq := -1; seq < tr.Len(); seq++ {
					for depth := 1; depth <= 16; depth++ {
						if got, want := p.SigAfter(seq, depth), bruteSig(tr, dirs, seq, depth); got != want {
							t.Fatalf("trace %d %s actual=%t: SigAfter(%d, %d) = %b, want %b",
								ti, name, actual, seq, depth, got, want)
						}
					}
					if seq >= 0 && tr.OpAt(seq).IsCondBranch() && p.PredAt(seq) != dirs[seq] {
						t.Fatalf("trace %d %s actual=%t: PredAt(%d) = %t, want %t",
							ti, name, actual, seq, p.PredAt(seq), dirs[seq])
					}
				}
			}
		}
	}
}

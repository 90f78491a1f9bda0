package bpred

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
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
	l := NewLookahead(Static{TakenAlways: true}, tr, 8)
	// From the very start, the next 5 branches are T,T,T,T,N.
	if sig := l.ActualSigAfter(-1); sig != 0b01111 {
		t.Errorf("sig = %05b, want 01111", sig)
	}
	// After the second branch (seq 4): T,T,N remain.
	if sig := l.ActualSigAfter(4); sig != 0b011 {
		t.Errorf("sig after seq 4 = %03b, want 011", sig)
	}
	// Past the last branch: empty.
	if sig := l.ActualSigAfter(tr.Len()); sig != 0 {
		t.Errorf("sig past end = %b, want 0", sig)
	}
}

func TestSigAfterWithStaticPredictor(t *testing.T) {
	tr := loopTrace(t)
	l := NewLookahead(Static{TakenAlways: true}, tr, 4)
	if sig := l.SigAfter(-1); sig != 0b1111 {
		t.Errorf("sig = %04b, want 1111", sig)
	}
	// Only one branch beyond seq 8.
	if sig := l.SigAfter(8); sig != 0b0001 {
		t.Errorf("sig after 8 = %04b, want 0001", sig)
	}
}

func TestPredictionsAreCachedAndCounted(t *testing.T) {
	tr := loopTrace(t)
	b := NewBimodal(4)
	b.Update(2, false)
	b.Update(2, false) // strongly not-taken at the loop branch PC
	l := NewLookahead(b, tr, 8)
	// First signature predicts all 5 branches in order, training each with
	// its actual outcome: NT,NT,T,T,T vs outcomes T,T,T,T,NT.
	if sig := l.SigAfter(-1); sig != 0b11100 {
		t.Errorf("sig = %05b, want 11100", sig)
	}
	if l.Branches != 5 || l.Mispredicts != 3 {
		t.Errorf("branches=%d mispredicts=%d, want 5,3", l.Branches, l.Mispredicts)
	}
	// Re-requesting signatures does not re-predict or re-train.
	_ = l.SigAfter(-1)
	_ = l.SigAfter(4)
	if l.Branches != 5 || l.Mispredicts != 3 {
		t.Errorf("caching broken: branches=%d mispredicts=%d", l.Branches, l.Mispredicts)
	}
}

func TestPredAt(t *testing.T) {
	tr := loopTrace(t)
	l := NewLookahead(Static{TakenAlways: true}, tr, 4)
	pred, err := l.PredAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if !pred {
		t.Error("static-taken should predict taken")
	}
	if l.Branches != 1 {
		t.Errorf("branches = %d, want 1", l.Branches)
	}
	var nbe *NotBranchError
	if _, err := l.PredAt(0); !errors.As(err, &nbe) || nbe.Pos != 0 {
		t.Errorf("PredAt on a non-branch returned %v, want *NotBranchError", err)
	}
}

func TestEnsureThroughTrainsAll(t *testing.T) {
	tr := loopTrace(t)
	l := NewLookahead(Static{TakenAlways: true}, tr, 4)
	l.EnsureThrough(tr.Len() - 1)
	if l.Branches != 5 {
		t.Errorf("branches = %d, want 5", l.Branches)
	}
	if l.Mispredicts != 1 {
		t.Errorf("mispredicts = %d, want 1 (the final not-taken)", l.Mispredicts)
	}
	if acc := l.Accuracy(); acc != 0.8 {
		t.Errorf("accuracy = %v, want 0.8", acc)
	}
}

func TestDepthClamping(t *testing.T) {
	tr := loopTrace(t)
	if l := NewLookahead(Static{}, tr, 0); l.depth != 1 {
		t.Errorf("depth 0 clamped to %d, want 1", l.depth)
	}
	if l := NewLookahead(Static{}, tr, 99); l.depth != 16 {
		t.Errorf("depth 99 clamped to %d, want 16", l.depth)
	}
}

func TestGshareLookaheadOnNestedLoop(t *testing.T) {
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
	l := NewLookahead(NewGshare(12, 10), tr, 8)
	for seq := 0; seq < tr.Len(); seq++ {
		_ = l.SigAfter(seq)
	}
	l.EnsureThrough(tr.Len() - 1)
	if l.Branches != 200*3+200 {
		t.Fatalf("branches = %d", l.Branches)
	}
	if l.Accuracy() < 0.9 {
		t.Errorf("gshare accuracy on nested loop = %v, want >= 0.9", l.Accuracy())
	}
}

func TestEmptyTraceLookahead(t *testing.T) {
	l := NewLookahead(Static{}, &trace.Trace{}, 4)
	if sig := l.SigAfter(0); sig != 0 {
		t.Errorf("sig on empty trace = %b", sig)
	}
	if l.Accuracy() != 0 {
		t.Error("accuracy on empty trace should be 0")
	}
}

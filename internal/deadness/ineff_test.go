package deadness_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/trace"
)

// ineffAtPC returns the IneffKind of the n-th dynamic instance of static
// pc (n is zero-based).
func ineffAtPC(t *testing.T, tr *trace.Trace, a *deadness.Analysis, pc, n int) deadness.IneffKind {
	t.Helper()
	for seq := 0; seq < tr.Len(); seq++ {
		if int(tr.PCAt(seq)) == pc {
			if n == 0 {
				return a.Facts[seq].Ineff()
			}
			n--
		}
	}
	t.Fatalf("instance %d of pc %d not in trace", n, pc)
	return deadness.IneffNone
}

func TestSilentStoreDetected(t *testing.T) {
	tr, a, p := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    la   r1, buf
    addi r2, r0, 7
    sd   r2, 0(r1)    # 2: memory held 0, writes 7 -> not silent
    sd   r2, 0(r1)    # 3: rewrites 7 over 7 -> silent
    sd   r0, 8(r1)    # 4: writes 0 over fresh zeroed memory -> silent
    ld   r3, 0(r1)
    out  r3
    halt
`)
	if got := ineffAtPC(t, tr, a, 2, 0); got != deadness.IneffNone {
		t.Errorf("first store = %v, want none", got)
	}
	if got := ineffAtPC(t, tr, a, 3, 0); got != deadness.SilentStore {
		t.Errorf("same-value store = %v, want silent-store", got)
	}
	if got := ineffAtPC(t, tr, a, 4, 0); got != deadness.SilentStore {
		t.Errorf("zero-over-zero store = %v, want silent-store", got)
	}
	s := a.Summarize(tr, p)
	if s.SilentStores != 2 || s.Stores != 3 {
		t.Errorf("summary silent/stores = %d/%d, want 2/3", s.SilentStores, s.Stores)
	}
}

func TestTrivialOpsDetected(t *testing.T) {
	tr, a, p := analyzeSrc(t, `
main:
    addi r1, r0, 5    # 0: result 5 != rs1 value 0 -> none
    add  r2, r1, r0   # 1: x+0 -> trivial
    or   r3, r1, r0   # 2: x|0 -> trivial
    and  r4, r1, r1   # 3: x&x -> trivial
    addi r5, r0, 1    # 4: none
    mul  r6, r1, r5   # 5: x*1 -> trivial
    mul  r7, r1, r0   # 6: x*0 == r0's value -> trivial
    add  r7, r1, r5   # 7: 5+1 -> none
    out  r7
    halt
`)
	want := map[int]deadness.IneffKind{
		0: deadness.IneffNone,
		1: deadness.TrivialOp,
		2: deadness.TrivialOp,
		3: deadness.TrivialOp,
		4: deadness.IneffNone,
		5: deadness.TrivialOp,
		6: deadness.TrivialOp,
		7: deadness.IneffNone,
	}
	for pc, w := range want {
		if got := ineffAtPC(t, tr, a, pc, 0); got != w {
			t.Errorf("pc %d = %v, want %v", pc, got, w)
		}
	}
	if s := a.Summarize(tr, p); s.TrivialOps != 5 {
		t.Errorf("summary trivial ops = %d, want 5", s.TrivialOps)
	}
}

func TestTrivialOpIsValueDriven(t *testing.T) {
	// The same static x+r2 instruction flips between trivial and
	// effectual as r2's runtime value changes — ineffectuality is a
	// dynamic fact, not a static pattern match.
	tr, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 9
    addi r2, r0, 0
    add  r3, r1, r2   # 2, instance 0: r2 == 0 -> trivial
    addi r2, r0, 4
    add  r3, r1, r2   # 4 (same shape, different pc): r2 == 4 -> none
    out  r3
    halt
`)
	if got := ineffAtPC(t, tr, a, 2, 0); got != deadness.TrivialOp {
		t.Errorf("x+0 instance = %v, want trivial-op", got)
	}
	if got := ineffAtPC(t, tr, a, 4, 0); got != deadness.IneffNone {
		t.Errorf("x+4 instance = %v, want none", got)
	}
}

// TestIneffOrthogonalToDeadness pins that the two fact columns are
// independent: a silent store can be live (its value is later loaded) and
// a trivial op can be dead (its result is never read).
func TestIneffOrthogonalToDeadness(t *testing.T) {
	tr, a, _ := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    la   r1, buf
    addi r2, r0, 3
    sd   r2, 0(r1)    # 2: live store, not silent
    sd   r2, 0(r1)    # 3: silent AND live (load below reads it)
    ld   r4, 0(r1)    # 4
    add  r5, r4, r0   # 5: trivial AND dead (r5 never read)
    out  r4
    halt
`)
	if k, in := kindAtPC(t, tr, a, 3), ineffAtPC(t, tr, a, 3, 0); k != deadness.Live || in != deadness.SilentStore {
		t.Errorf("silent live store: kind=%v ineff=%v, want live/silent-store", k, in)
	}
	if k, in := kindAtPC(t, tr, a, 5), ineffAtPC(t, tr, a, 5, 0); !k.Dead() || in != deadness.TrivialOp {
		t.Errorf("dead trivial op: kind=%v ineff=%v, want dead/trivial-op", k, in)
	}
}

// TestIneffChainAcrossChunkBoundary runs a loop long enough that its
// silent stores and x+0 trivial chains span multiple trace chunks, and
// requires every per-instance fact to classify, and the pass streamed one
// chunk behind the emulator to agree with the pass run after collection
// — the chunk seam must be invisible to the ineffectuality column.
func TestIneffChainAcrossChunkBoundary(t *testing.T) {
	// 7 instructions per iteration; 1400 iterations ≈ 9800 records,
	// crossing the 8192-record chunk boundary mid-loop.
	const iters = 1400
	src := `
.data
buf: .space 8
.text
main:
    la   r1, buf
    addi r2, r0, 9
    sd   r2, 0(r1)       # prime memory: loop stores rewrite 9 over 9
    addi r4, r0, ` + itoa(iters) + `
loop:
    sd   r2, 0(r1)       # 4: silent every iteration
    add  r5, r2, r0      # 5: x+0 chain head
    add  r6, r5, r0      # 6: chain link, also trivial
    add  r7, r6, r0      # 7: chain tail, also trivial
    addi r4, r4, -1
    bne  r4, r0, loop
    out  r7
    halt
`
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := emu.New(p)
	fusedTr := &trace.Trace{}
	if err := m.Run(20_000, fusedTr.Push); err != nil && !errors.Is(err, emu.ErrBudget) {
		t.Fatalf("run: %v", err)
	}
	if fusedTr.NumChunks() < 2 {
		t.Fatalf("trace has %d chunks; loop too short to cross a boundary", fusedTr.NumChunks())
	}
	fused, err := deadness.LinkAndAnalyze(fusedTr)
	if err != nil {
		t.Fatal(err)
	}

	// Every dynamic instance of the loop body classifies, on both sides
	// of the chunk seam.
	silent, trivial := 0, 0
	for seq := 0; seq < fusedTr.Len(); seq++ {
		switch pc := fusedTr.PCAt(seq); pc {
		case 4:
			if fused.Facts[seq].Ineff() != deadness.SilentStore {
				t.Fatalf("seq %d (loop store): %v, want silent-store", seq, fused.Facts[seq].Ineff())
			}
			silent++
		case 5, 6, 7:
			if fused.Facts[seq].Ineff() != deadness.TrivialOp {
				t.Fatalf("seq %d (chain pc %d): %v, want trivial-op", seq, pc, fused.Facts[seq].Ineff())
			}
			trivial++
		}
	}
	if silent != iters || trivial != 3*iters {
		t.Errorf("instances: silent=%d trivial=%d, want %d/%d", silent, trivial, iters, 3*iters)
	}

	_, stream, _, err := emu.CollectAnalyzed(p, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	// The Facts column holds Kind and Ineff, among the rest.
	if !reflect.DeepEqual(stream.Facts, fused.Facts) {
		t.Error("streamed Facts column diverges from the after-collection pass")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

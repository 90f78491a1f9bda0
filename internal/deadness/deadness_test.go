package deadness_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/trace"
)

// analyzeSrc assembles and runs src, then runs the oracle.
func analyzeSrc(t *testing.T, src string) (*trace.Trace, *deadness.Analysis, *program.Program) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr, a, p
}

// kindAtPC returns the deadness.Kind of the single dynamic instance of static pc.
func kindAtPC(t *testing.T, tr *trace.Trace, a *deadness.Analysis, pc int) deadness.Kind {
	t.Helper()
	for seq := 0; seq < tr.Len(); seq++ {
		if int(tr.PCAt(seq)) == pc {
			return a.Facts[seq].Kind()
		}
	}
	t.Fatalf("pc %d not in trace", pc)
	return deadness.Live
}

func TestFirstLevelDeadOverwrite(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 1    # 0: dead, overwritten unread
    addi r1, r0, 2    # 1: live via out
    out  r1           # 2
    halt              # 3
`)
	if a.Facts[0].Kind() != deadness.FirstLevel {
		t.Errorf("inst 0 kind = %v, want first-level", a.Facts[0].Kind())
	}
	if a.Facts[1].Kind() != deadness.Live {
		t.Errorf("inst 1 kind = %v, want live", a.Facts[1].Kind())
	}
	if a.Resolve[0] != 1 {
		t.Errorf("resolve of dead write = %d, want 1 (overwrite)", a.Resolve[0])
	}
}

func TestFirstLevelDeadAtTraceEnd(t *testing.T) {
	tr, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 1    # 0: never read, trace ends
    halt
`)
	if a.Facts[0].Kind() != deadness.FirstLevel {
		t.Errorf("kind = %v, want first-level", a.Facts[0].Kind())
	}
	if a.Resolve[0] != int32(tr.Len()) {
		t.Errorf("resolve = %d, want trace length %d", a.Resolve[0], tr.Len())
	}
}

func TestTransitiveDeadChain(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 3    # 0: read only by dead inst 1 -> transitive
    add  r2, r1, r1   # 1: overwritten unread -> first-level
    addi r2, r0, 9    # 2: live
    out  r2
    halt
`)
	if a.Facts[0].Kind() != deadness.Transitive {
		t.Errorf("inst 0 = %v, want transitive", a.Facts[0].Kind())
	}
	if a.Facts[1].Kind() != deadness.FirstLevel {
		t.Errorf("inst 1 = %v, want first-level", a.Facts[1].Kind())
	}
	if !a.Facts[0].EverRead() || a.Facts[1].EverRead() {
		t.Errorf("everRead = %v,%v; want true,false", a.Facts[0].EverRead(), a.Facts[1].EverRead())
	}
}

func TestDeepTransitiveChain(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 1    # 0: transitive (via 1,2)
    add  r2, r1, r0   # 1: transitive (via 2)
    add  r3, r2, r0   # 2: first-level
    halt
`)
	for pc, want := range map[int]deadness.Kind{0: deadness.Transitive, 1: deadness.Transitive, 2: deadness.FirstLevel} {
		if a.Facts[pc].Kind() != want {
			t.Errorf("inst %d = %v, want %v", pc, a.Facts[pc].Kind(), want)
		}
	}
}

func TestBranchOperandsAreLive(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 1    # 0: live, feeds branch
    bne  r1, r0, done # 1
    nop
done:
    halt
`)
	if a.Facts[0].Kind() != deadness.Live {
		t.Errorf("branch operand producer = %v, want live", a.Facts[0].Kind())
	}
}

func TestOutOperandIsLive(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 7
    out  r1
    halt
`)
	if a.Facts[0].Kind() != deadness.Live {
		t.Errorf("out operand = %v, want live", a.Facts[0].Kind())
	}
}

func TestDeadStoreOverwritten(t *testing.T) {
	_, a, p := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    la  r1, buf       # 0 live (feeds stores)
    addi r2, r0, 5    # 1 live (stored then loaded)
    sd  r2, 0(r1)     # 2 dead store: fully overwritten
    sd  r2, 0(r1)     # 3 live store: loaded
    ld  r3, 0(r1)     # 4 live load
    out r3            # 5
    halt
`)
	_ = p
	if a.Facts[2].Kind() != deadness.FirstLevel {
		t.Errorf("overwritten store = %v, want first-level", a.Facts[2].Kind())
	}
	if a.Facts[3].Kind() != deadness.Live {
		t.Errorf("loaded store = %v, want live", a.Facts[3].Kind())
	}
	if a.Facts[4].Kind() != deadness.Live {
		t.Errorf("load feeding out = %v, want live", a.Facts[4].Kind())
	}
}

func TestStoreNeverLoadedIsDead(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    la r1, buf
    sd r1, 0(r1)      # 1: never loaded
    halt
`)
	if a.Facts[1].Kind() != deadness.FirstLevel {
		t.Errorf("unloaded store = %v, want first-level", a.Facts[1].Kind())
	}
}

func TestPartialOverwriteKeepsStoreLive(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
.data
buf: .space 16
.text
main:
    la  r1, buf
    addi r2, r0, 0x7f
    sd  r2, 0(r1)     # 2: low byte overwritten, byte 1 still read
    sb  r0, 0(r1)     # 3: overwrites byte 0 only; never itself read...
    lb  r3, 1(r1)     # 4: reads byte 1 of store 2
    out r3
    halt
`)
	if a.Facts[2].Kind() != deadness.Live {
		t.Errorf("partially overwritten store = %v, want live", a.Facts[2].Kind())
	}
	// Store 3's byte is never loaded.
	if a.Facts[3].Kind() != deadness.FirstLevel {
		t.Errorf("covering store = %v, want first-level", a.Facts[3].Kind())
	}
}

func TestStoreReadOnlyByDeadLoadIsTransitive(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    la  r1, buf
    sd  r1, 0(r1)     # 1: read only by dead load -> transitive
    ld  r2, 0(r1)     # 2: result unread -> first-level
    halt
`)
	if a.Facts[1].Kind() != deadness.Transitive {
		t.Errorf("store = %v, want transitive", a.Facts[1].Kind())
	}
	if a.Facts[2].Kind() != deadness.FirstLevel {
		t.Errorf("dead load = %v, want first-level", a.Facts[2].Kind())
	}
}

func TestControlInstructionsNeverDead(t *testing.T) {
	tr, a, _ := analyzeSrc(t, `
main:
    call f            # link register never used by ret path below
    halt
f:
    addi r1, r0, 1    # dead
    ret
`)
	for seq := 0; seq < tr.Len(); seq++ {
		op := tr.OpAt(seq)
		if op.IsControl() && a.Facts[seq].Kind().Dead() {
			t.Errorf("control inst %v at seq %d classified dead", op, seq)
		}
		if op.IsControl() && a.Facts[seq].Candidate() {
			t.Errorf("control inst %v at seq %d is a candidate", op, seq)
		}
	}
}

func TestLoopDeadness(t *testing.T) {
	// The shifted value r3 is only used on the taken path (never taken
	// here), so every instance is dead.
	tr, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 8    # counter
loop:
    slli r3, r1, 4    # dead every iteration (r4 path never taken)
    beq  r1, r0, use
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r1
    halt
use:
    out r3
    halt
`)
	deadShifts := 0
	for seq := 0; seq < tr.Len(); seq++ {
		if tr.PCAt(seq) == 1 && a.Facts[seq].Kind().Dead() {
			deadShifts++
		}
	}
	// 8 iterations: the slli result is overwritten next iteration or at
	// trace end without a read (branch to use never taken).
	if deadShifts != 8 {
		t.Errorf("dead shifts = %d, want 8", deadShifts)
	}
}

func TestSummarize(t *testing.T) {
	// The whole memory subgraph here is dead: the load's result is unread,
	// so the store it reads is transitively dead, and the address
	// computation feeding only dead memory operations is transitively dead
	// as well.
	tr, a, p := analyzeSrc(t, `
.data
buf: .space 8
.text
main:
    addi r1, r0, 1    # 0: dead ALU (overwritten), first-level
    addi r1, r0, 2    # 1: live via out
    la   r2, buf      # 2: transitively dead (feeds only dead mem ops)
    sd   r1, 0(r2)    # 3: transitively dead (read only by dead load)
    ld   r3, 0(r2)    # 4: first-level dead load (r3 unread)
    sd   r1, 0(r2)    # 5: first-level dead store (never loaded)
    out  r1
    halt
`)
	s := a.Summarize(tr, p)
	if s.Total != tr.Len() {
		t.Errorf("total = %d, want %d", s.Total, tr.Len())
	}
	if s.Dead != 5 {
		t.Errorf("dead = %d, want 5", s.Dead)
	}
	if s.DeadALU != 2 || s.DeadLoads != 1 || s.DeadStores != 2 {
		t.Errorf("breakdown = alu %d, loads %d, stores %d; want 2,1,2",
			s.DeadALU, s.DeadLoads, s.DeadStores)
	}
	if s.FirstLevel != 3 || s.Transitive != 2 {
		t.Errorf("levels = %d,%d; want 3,2", s.FirstLevel, s.Transitive)
	}
	if got := s.DeadFraction(); got <= 0 || got >= 1 {
		t.Errorf("dead fraction = %v", got)
	}
	if s.ByProv[program.ProvNormal].Dead != 5 {
		t.Errorf("normal-provenance dead = %d, want 5", s.ByProv[program.ProvNormal].Dead)
	}
}

func TestSummarizeProvenance(t *testing.T) {
	p, err := asm.Assemble("t", `
main:
    addi r1, r0, 1
    addi r1, r0, 2
    out  r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	p.Prov = make([]program.Provenance, len(p.Insts))
	p.Prov[0] = program.ProvHoisted
	tr, a, _, err := emu.CollectAnalyzed(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summarize(tr, p)
	if s.ByProv[program.ProvHoisted].Dead != 1 {
		t.Errorf("hoisted dead = %d, want 1", s.ByProv[program.ProvHoisted].Dead)
	}
	if s.ByProv[program.ProvHoisted].Dyn != 1 {
		t.Errorf("hoisted dyn = %d, want 1", s.ByProv[program.ProvHoisted].Dyn)
	}
}

// TestLinkAndAnalyzeLinksRawTrace pins the one analysis entry point for a
// raw trace: the fused pass links it in place while analyzing.
func TestLinkAndAnalyzeLinksRawTrace(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n addi r1, r0, 1\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	tr := &trace.Trace{}
	if err := m.Run(100, tr.Push); err != nil {
		t.Fatal(err)
	}
	if tr.Linked {
		t.Fatal("trace unexpectedly linked")
	}
	a, err := deadness.LinkAndAnalyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Linked {
		t.Error("LinkAndAnalyze did not mark the trace linked")
	}
	if a.Candidates() == 0 {
		t.Error("no candidates after LinkAndAnalyze")
	}
}

func TestResolveOfReadValue(t *testing.T) {
	_, a, _ := analyzeSrc(t, `
main:
    addi r1, r0, 1    # 0
    add  r2, r1, r1   # 1 reads r1 -> resolve of 0 is 1
    out  r2
    halt
`)
	if a.Resolve[0] != 1 {
		t.Errorf("resolve = %d, want 1 (first read)", a.Resolve[0])
	}
}

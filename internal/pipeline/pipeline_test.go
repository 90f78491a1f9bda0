package pipeline

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/trace"
)

// prep assembles, runs, and analyzes a program.
func prep(t *testing.T, src string, budget int) (*trace.Trace, *deadness.Analysis) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	return tr, a
}

const loopSrc = `
main:
    addi r1, r0, 500
    addi r2, r0, 0
loop:
    add  r2, r2, r1
    slli r3, r1, 2     # dead every iteration
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r2
    halt
`

func TestBaselineCompletes(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	st, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != int64(tr.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tr.Len())
	}
	if st.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	ipc := st.IPC()
	if ipc <= 0 || ipc > float64(BaselineConfig().CommitWidth) {
		t.Errorf("IPC = %v out of range", ipc)
	}
	if st.Eliminated != 0 || st.DeadPredictions != 0 {
		t.Error("elimination active in baseline")
	}
}

// TestRunWithReadsOnlyItsGshare runs a machine over prediction columns:
// its own gshare's column gives Run's statistics, and any other column
// (another predictor, actual outcomes, another trace) is refused.
func TestRunWithReadsOnlyItsGshare(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	cfg := ContendedConfig()
	cfg.Elim = true
	want, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	own := bpred.NewGshare(cfg.GshareLogEntries, cfg.GshareHistBits)
	if got, err := RunWith(tr, a, cfg, bpred.Predict(tr, own, false)); err != nil || got != want {
		t.Errorf("RunWith = %+v, %v; Run = %+v", got, err, want)
	}
	short, _ := prep(t, loopSrc, 100)
	for name, preds := range map[string]*bpred.Predictions{
		"bimodal":         bpred.Predict(tr, bpred.NewBimodal(12), false),
		"actual outcomes": bpred.Predict(tr, bpred.NewGshare(cfg.GshareLogEntries, cfg.GshareHistBits), true),
		"another trace":   bpred.Predict(short, bpred.NewGshare(cfg.GshareLogEntries, cfg.GshareHistBits), false),
	} {
		if _, err := RunWith(tr, a, cfg, preds); err == nil {
			t.Errorf("%s: column accepted", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	s1, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("two runs differ:\n%+v\n%+v", s1, s2)
	}
}

func TestResourceAccountingConsistency(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	st, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every committed register writer allocates exactly one register and
	// frees exactly one.
	writers := int64(0)
	for i := 0; i < tr.Len(); i++ {
		r := tr.At(i)
		if r.HasResult() {
			writers++
		}
	}
	if st.PhysAllocs != writers {
		t.Errorf("allocs = %d, want %d", st.PhysAllocs, writers)
	}
	if st.PhysFrees != st.PhysAllocs {
		t.Errorf("frees = %d, allocs = %d", st.PhysFrees, st.PhysAllocs)
	}
	if st.RFWrites != writers {
		t.Errorf("RF writes = %d, want %d", st.RFWrites, writers)
	}
	if st.RFReads == 0 {
		t.Error("no RF reads counted")
	}
}

func TestCacheCounters(t *testing.T) {
	tr, a := prep(t, `
.data
buf: .space 256
.text
main:
    la   r1, buf
    addi r2, r0, 20
loop:
    sd   r2, 0(r1)
    ld   r3, 0(r1)
    out  r3
    addi r2, r2, -1
    bne  r2, r0, loop
    halt
`, 100000)
	st, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 20 stores commit; loads may forward from in-flight stores and skip
	// the cache, so accesses lie between 20 (stores only) and 40.
	if st.Cache.Accesses < 20 || st.Cache.Accesses > 40 {
		t.Errorf("cache accesses = %d, want within [20,40]", st.Cache.Accesses)
	}
}

func TestEliminationOnAlwaysDeadLoop(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	cfg := BaselineConfig()
	cfg.Elim = true
	st, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != int64(tr.Len()) {
		t.Fatalf("committed %d of %d", st.Committed, tr.Len())
	}
	// The slli is dead on all 500 iterations; after predictor warmup the
	// vast majority are eliminated.
	if st.Eliminated < 400 {
		t.Errorf("eliminated = %d, want >= 400", st.Eliminated)
	}
	if st.DeadMispredicts != 0 {
		t.Errorf("recoveries = %d on an always-dead instruction", st.DeadMispredicts)
	}

	base, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.PhysAllocs >= base.PhysAllocs {
		t.Errorf("elimination did not reduce allocations: %d vs %d",
			st.PhysAllocs, base.PhysAllocs)
	}
	if st.RFWrites >= base.RFWrites {
		t.Errorf("elimination did not reduce RF writes: %d vs %d",
			st.RFWrites, base.RFWrites)
	}
}

func TestEliminatedDeadLoadSkipsCache(t *testing.T) {
	tr, a := prep(t, `
.data
buf: .space 64
.text
main:
    la   r1, buf
    addi r2, r0, 200
loop:
    ld   r3, 0(r1)     # dead load: r3 never used
    addi r2, r2, -1
    bne  r2, r0, loop
    out  r2
    halt
`, 100000)
	base, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineConfig()
	cfg.Elim = true
	st, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Accesses >= base.Cache.Accesses {
		t.Errorf("eliminated loads still access the cache: %d vs %d",
			st.Cache.Accesses, base.Cache.Accesses)
	}
}

func TestDeadMispredictRecovery(t *testing.T) {
	// r3 is dead for 300 warm-up iterations, then suddenly becomes used
	// every iteration: the predictor's learned dead prediction must
	// trigger recoveries (not wrong results) until it decays.
	tr, a := prep(t, `
main:
    addi r1, r0, 300
    addi r5, r0, 0
warm:
    slli r3, r1, 2     # dead here
    addi r1, r1, -1
    bne  r1, r0, warm
    addi r1, r0, 50
use:
    slli r3, r1, 2     # same static instruction? no - different pc
    add  r5, r5, r3    # used here
    addi r1, r1, -1
    bne  r1, r0, use
    out  r5
    halt
`, 100000)
	_ = tr
	_ = a
	// The two slli instructions have different PCs, so instead exercise
	// recovery with one static instruction whose deadness flips by phase.
	tr2, a2 := prep(t, `
main:
    addi r1, r0, 400
    addi r5, r0, 0
loop:
    slli r3, r1, 2
    andi r2, r1, 255   # used only when i >= 256 (phase flip)
    blt  r1, r2, skip  # never true; keeps r2 live
    andi r2, r1, 256
    beq  r2, r0, skip
    add  r5, r5, r3    # consumes r3 during the first phase (i>=256)
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r5
    halt
`, 100000)
	cfg := BaselineConfig()
	cfg.Elim = true
	st, err := Run(tr2, a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != int64(tr2.Len()) {
		t.Fatalf("committed %d of %d", st.Committed, tr2.Len())
	}
	// Correctness invariant: every recovery was counted and stalled.
	if st.DeadMispredicts > 0 && st.StallRecovery == 0 {
		t.Error("recoveries charged no stall cycles")
	}
}

func TestFreeListContention(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	cfg := BaselineConfig()
	cfg.PhysRegs = 36 // 4 rename registers
	st, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.StallFreeList == 0 {
		t.Error("no free-list stalls with a tiny register file")
	}
	big, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= big.Cycles {
		t.Errorf("tiny register file not slower: %d vs %d cycles", st.Cycles, big.Cycles)
	}
}

func TestEliminationRelievesFreeListPressure(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	cfg := BaselineConfig()
	cfg.PhysRegs = 36
	base, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Elim = true
	elim, err := Run(tr, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elim.Cycles >= base.Cycles {
		t.Errorf("elimination did not speed up a register-starved machine: %d vs %d",
			elim.Cycles, base.Cycles)
	}
}

func TestBranchMispredictsSlowTheMachine(t *testing.T) {
	// A data-dependent, pseudo-random branch stream mispredicts often.
	randomSrc := `
.data
vals: .quad 7, 2, 9, 4, 1, 8, 3, 6, 0, 5, 11, 14, 13, 12, 10, 15
.text
main:
    addi r1, r0, 400
    la   r2, vals
    addi r5, r0, 0
loop:
    andi r3, r1, 15
    slli r3, r3, 3
    add  r3, r2, r3
    ld   r4, 0(r3)
    andi r4, r4, 1
    beq  r4, r0, even
    addi r5, r5, 1
even:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r5
    halt
`
	tr, a := prep(t, randomSrc, 100000)
	st, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.BranchMispredicts == 0 {
		t.Error("no branch mispredicts on data-dependent branches")
	}
	// Predictable loop of comparable length for contrast.
	tr2, a2 := prep(t, loopSrc, 100000)
	st2, err := Run(tr2, a2, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() >= st2.IPC() {
		t.Errorf("unpredictable branches not slower: IPC %v vs %v", st.IPC(), st2.IPC())
	}
}

func TestConfigValidation(t *testing.T) {
	tr, a := prep(t, loopSrc, 1000)
	bad := BaselineConfig()
	bad.PhysRegs = 32
	if _, err := Run(tr, a, bad); err == nil {
		t.Error("invalid config accepted")
	}
	bad = BaselineConfig()
	bad.IssueWidth = 0
	if _, err := Run(tr, a, bad); err == nil {
		t.Error("zero issue width accepted")
	}
}

func TestUnlinkedTraceRejected(t *testing.T) {
	tr, a := prep(t, loopSrc, 1000)
	tr.Linked = false
	if _, err := Run(tr, a, BaselineConfig()); err == nil {
		t.Error("unlinked trace accepted")
	}
	tr.Linked = true
	short := &deadness.Analysis{Candidate: make([]bool, 1)}
	if _, err := Run(tr, short, BaselineConfig()); err == nil {
		t.Error("mismatched analysis accepted")
	}
}

func TestContendedSlowerThanBaseline(t *testing.T) {
	tr, a := prep(t, loopSrc, 100000)
	base, err := Run(tr, a, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Run(tr, a, ContendedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cont.Cycles < base.Cycles {
		t.Errorf("contended machine faster than baseline: %d vs %d", cont.Cycles, base.Cycles)
	}
}

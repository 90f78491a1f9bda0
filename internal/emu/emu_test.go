package emu

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

func run(t *testing.T, src string, budget int) (*Machine, *trace.Trace) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	tr, _, m, err := CollectAnalyzed(p, budget)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, tr
}

func TestArithmetic(t *testing.T) {
	m, _ := run(t, `
main:
    addi r1, r0, 100
    addi r2, r0, 7
    add  r3, r1, r2    # 107
    sub  r4, r1, r2    # 93
    mul  r5, r1, r2    # 700
    divu r6, r1, r2    # 14
    remu r7, r1, r2    # 2
    out r3
    out r4
    out r5
    out r6
    out r7
    halt
`, 1000)
	want := []uint64{107, 93, 700, 14, 2}
	for i, w := range want {
		if m.Outputs[i] != w {
			t.Errorf("output %d = %d, want %d", i, m.Outputs[i], w)
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	m, _ := run(t, `
main:
    addi r1, r0, 0xf0
    addi r2, r0, 0x0f
    and  r3, r1, r2
    or   r4, r1, r2
    xor  r5, r1, r2
    slli r6, r2, 4
    srli r7, r1, 4
    addi r8, r0, -16
    srai r9, r8, 2
    out r3
    out r4
    out r5
    out r6
    out r7
    out r9
    halt
`, 1000)
	negFour := int64(-4)
	want := []uint64{0, 0xff, 0xff, 0xf0, 0x0f, uint64(negFour)}
	for i, w := range want {
		if m.Outputs[i] != w {
			t.Errorf("output %d = %#x, want %#x", i, m.Outputs[i], w)
		}
	}
}

func TestComparisons(t *testing.T) {
	m, _ := run(t, `
main:
    addi r1, r0, -5
    addi r2, r0, 3
    slt  r3, r1, r2    # signed: -5 < 3 -> 1
    sltu r4, r1, r2    # unsigned: huge > 3 -> 0
    slti r5, r2, 10    # 3 < 10 -> 1
    out r3
    out r4
    out r5
    halt
`, 1000)
	want := []uint64{1, 0, 1}
	for i, w := range want {
		if m.Outputs[i] != w {
			t.Errorf("output %d = %d, want %d", i, m.Outputs[i], w)
		}
	}
}

func TestDivideByZero(t *testing.T) {
	m, _ := run(t, `
main:
    addi r1, r0, 9
    divu r2, r1, r0
    remu r3, r1, r0
    out r2
    out r3
    halt
`, 1000)
	if m.Outputs[0] != ^uint64(0) {
		t.Errorf("divu by zero = %#x, want all-ones", m.Outputs[0])
	}
	if m.Outputs[1] != 9 {
		t.Errorf("remu by zero = %d, want 9", m.Outputs[1])
	}
}

func TestLuiAndLi(t *testing.T) {
	m, _ := run(t, `
main:
    lui r1, 2          # 2<<16
    li  r2, 0x123456789
    out r1
    out r2
    halt
`, 1000)
	if m.Outputs[0] != 2<<16 {
		t.Errorf("lui = %#x", m.Outputs[0])
	}
	if m.Outputs[1] != 0x123456789 {
		t.Errorf("li large = %#x", m.Outputs[1])
	}
}

func TestMemoryWidths(t *testing.T) {
	m, _ := run(t, `
.data
buf: .space 32
.text
main:
    la  r1, buf
    li  r2, 0x1122334455667788
    sd  r2, 0(r1)
    ld  r3, 0(r1)
    lw  r4, 0(r1)      # 0x55667788
    lh  r5, 0(r1)      # 0x7788
    lb  r6, 0(r1)      # 0x88
    lb  r7, 7(r1)      # 0x11
    sb  r2, 16(r1)
    lb  r8, 16(r1)     # 0x88
    out r3
    out r4
    out r5
    out r6
    out r7
    out r8
    halt
`, 1000)
	want := []uint64{0x1122334455667788, 0x55667788, 0x7788, 0x88, 0x11, 0x88}
	for i, w := range want {
		if m.Outputs[i] != w {
			t.Errorf("output %d = %#x, want %#x", i, m.Outputs[i], w)
		}
	}
}

func TestDataSegmentLoaded(t *testing.T) {
	m, _ := run(t, `
.data
tbl: .quad 41, 42, 43
.text
main:
    la  r1, tbl
    ld  r2, 8(r1)
    out r2
    halt
`, 1000)
	if m.Outputs[0] != 42 {
		t.Errorf("data load = %d, want 42", m.Outputs[0])
	}
}

func TestGlobalAndStackRegisters(t *testing.T) {
	m, _ := run(t, `
main:
    out gp
    out sp
    halt
`, 1000)
	if m.Outputs[0] != program.DataBase {
		t.Errorf("gp = %#x, want %#x", m.Outputs[0], program.DataBase)
	}
	if m.Outputs[1] != program.StackBase {
		t.Errorf("sp = %#x, want %#x", m.Outputs[1], program.StackBase)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	m, tr := run(t, `
main:
    addi r1, r0, 10
    addi r2, r0, 0
loop:
    add  r2, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r2
    halt
`, 1000)
	if m.Outputs[0] != 55 {
		t.Errorf("sum = %d, want 55", m.Outputs[0])
	}
	// Branch taken 9 times, not taken once.
	taken := 0
	for _, r := range tr.Records() {
		if r.Op == isa.BNE && r.Taken {
			taken++
		}
	}
	if taken != 9 {
		t.Errorf("taken branches = %d, want 9", taken)
	}
}

func TestCallReturn(t *testing.T) {
	m, _ := run(t, `
main:
    addi r1, r0, 20
    call double
    out  r1
    halt
double:
    add r1, r1, r1
    ret
`, 1000)
	if m.Outputs[0] != 40 {
		t.Errorf("call/ret result = %d, want 40", m.Outputs[0])
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	m, _ := run(t, `
main:
    addi r0, r0, 99
    out  r0
    halt
`, 1000)
	if m.Outputs[0] != 0 {
		t.Errorf("r0 = %d, want 0", m.Outputs[0])
	}
}

func TestBudgetExhaustion(t *testing.T) {
	p, err := asm.Assemble("spin", `
main:
    beq r0, r0, main
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	err = m.Run(100, nil)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if m.Steps != 100 {
		t.Errorf("steps = %d, want 100", m.Steps)
	}
	// CollectAnalyzed tolerates budget exhaustion.
	tr, _, _, err := CollectAnalyzed(p, 50)
	if err != nil {
		t.Fatalf("CollectAnalyzed: %v", err)
	}
	if tr.Len() != 50 {
		t.Errorf("trace len = %d, want 50", tr.Len())
	}
}

func TestStepAfterHalt(t *testing.T) {
	p, _ := asm.Assemble("h", "main:\n halt\n")
	m := New(p)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("not halted")
	}
	if _, err := m.Step(); err == nil {
		t.Error("step after halt succeeded")
	}
}

func TestPCOutOfRange(t *testing.T) {
	p, _ := asm.Assemble("j", `
main:
    jalr r0, r0, 999
    halt
`)
	m := New(p)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("wild jump not caught")
	}
}

func TestUnmappedMemoryReadsZero(t *testing.T) {
	m, _ := run(t, `
main:
    li  r1, 0x500000
    ld  r2, 0(r1)
    out r2
    halt
`, 1000)
	if m.Outputs[0] != 0 {
		t.Errorf("unmapped read = %d, want 0", m.Outputs[0])
	}
}

func TestTraceRecordsControlFlow(t *testing.T) {
	_, tr := run(t, `
main:
    beq r0, r0, skip
    nop
skip:
    halt
`, 100)
	if tr.Len() != 2 {
		t.Fatalf("trace len = %d, want 2", tr.Len())
	}
	br := tr.At(0)
	if !br.Taken || br.NextPC != 2 {
		t.Errorf("branch record = %+v", br)
	}
}

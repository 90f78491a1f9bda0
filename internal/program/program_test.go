package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// buildProg constructs a small program with a diamond and a loop:
//
//	0: addi r1, r0, 3      (B0)
//	1: beq  r1, r0, +2  -> 4
//	2: addi r2, r0, 1      (B1)
//	3: jal  r0, +1      -> 5
//	4: addi r2, r0, 2      (B2)
//	5: addi r1, r1, -1     (B3, loop body)
//	6: bne  r1, r0, -2  -> 5
//	7: halt                (B4)
func buildProg() *Program {
	return &Program{
		Name: "diamond",
		Insts: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Imm: 3},
			{Op: isa.BEQ, Rs1: 1, Imm: 2},
			{Op: isa.ADDI, Rd: 2, Imm: 1},
			{Op: isa.JAL, Rd: 0, Imm: 1},
			{Op: isa.ADDI, Rd: 2, Imm: 2},
			{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: -1},
			{Op: isa.BNE, Rs1: 1, Imm: -2},
			{Op: isa.HALT},
		},
		Labels: map[string]int{"main": 0, "loop": 5},
	}
}

func TestValidateOK(t *testing.T) {
	if err := buildProg().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	p := buildProg()
	p.Insts[1].Imm = 100 // branch out of range
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range branch not caught: %v", err)
	}

	p = buildProg()
	p.Insts[7] = isa.Inst{Op: isa.NOP} // no halt
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "HALT") {
		t.Errorf("missing HALT not caught: %v", err)
	}

	p = buildProg()
	p.Prov = make([]Provenance, 3)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("provenance mismatch not caught: %v", err)
	}

	p = &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Error("empty program not caught")
	}

	p = buildProg()
	p.Entry = 99
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("bad entry not caught: %v", err)
	}
}

func TestProvenanceOf(t *testing.T) {
	p := buildProg()
	if got := p.ProvenanceOf(0); got != ProvNormal {
		t.Errorf("nil Prov: got %v", got)
	}
	p.Prov = make([]Provenance, len(p.Insts))
	p.Prov[2] = ProvHoisted
	if got := p.ProvenanceOf(2); got != ProvHoisted {
		t.Errorf("got %v, want hoisted", got)
	}
	if got := p.ProvenanceOf(-1); got != ProvNormal {
		t.Errorf("out of range: got %v", got)
	}
}

func TestProvenanceNames(t *testing.T) {
	for p := Provenance(0); p < numProv; p++ {
		if s := p.String(); strings.HasPrefix(s, "prov(") {
			t.Errorf("provenance %d has no name", uint8(p))
		}
	}
}

func TestLabelAtAndDisassemble(t *testing.T) {
	p := buildProg()
	if name, ok := p.LabelAt(5); !ok || name != "loop" {
		t.Errorf("LabelAt(5) = %q,%v", name, ok)
	}
	if _, ok := p.LabelAt(3); ok {
		t.Error("LabelAt(3) should be empty")
	}
	dis := p.Disassemble()
	if !strings.Contains(dis, "loop:") || !strings.Contains(dis, "halt") {
		t.Errorf("disassembly missing content:\n%s", dis)
	}
}

func TestBranchTarget(t *testing.T) {
	p := buildProg()
	if tgt, ok := p.BranchTarget(1); !ok || tgt != 4 {
		t.Errorf("BranchTarget(1) = %d,%v; want 4,true", tgt, ok)
	}
	if _, ok := p.BranchTarget(0); ok {
		t.Error("ADDI has no branch target")
	}
}

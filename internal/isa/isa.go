// Package isa defines r64, the RISC instruction set used throughout this
// repository. r64 is a 64-bit load/store architecture with 32 integer
// registers, fixed-width instruction words, and the minimal feature set
// needed to reproduce the dead-instruction study: ALU operations, immediate
// forms, loads and stores of several widths, conditional branches, jumps,
// an OUT instruction that roots program outputs, and HALT.
//
// Program counters are expressed in instruction units (PC+1 is the next
// instruction), which keeps every other package free of byte arithmetic.
package isa

import "fmt"

// Reg names one of the 32 architectural integer registers. R0 is hardwired
// to zero: writes to it are discarded and reads always return 0.
type Reg uint8

// NumRegs is the architectural integer register count.
const NumRegs = 32

// Register aliases used by the compiler and the assembler. They are plain
// conventions; the hardware treats all registers except R0 identically.
const (
	RZero Reg = 0  // hardwired zero
	RTmp0 Reg = 27 // reserved spill/reload temporary
	RTmp1 Reg = 28 // reserved spill/reload temporary
	RGbl  Reg = 29 // global data base pointer
	RSP   Reg = 30 // stack (spill area) pointer
	RLink Reg = 31 // link register written by JAL/JALR
)

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op enumerates the r64 opcodes.
type Op uint8

// Opcode space. The groupings (ALU, immediate, memory, control) are
// contiguous so the classification helpers below stay branch-free.
const (
	NOP Op = iota

	// Register-register ALU.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT  // set if signed less-than
	SLTU // set if unsigned less-than
	MUL
	DIVU // unsigned divide; division by zero yields all-ones
	REMU // unsigned remainder; remainder by zero yields rs1

	// Register-immediate ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLLI
	SRLI
	SRAI
	LUI // rd = imm << 16

	// Memory. Loads are zero-extending except the signed variants.
	LB
	LH
	LW
	LD
	SB
	SH
	SW
	SD

	// Control transfer. Branch and jump displacements are in instruction
	// units relative to the next instruction (PC+1+imm).
	BEQ
	BNE
	BLT // signed
	BGE // signed
	JAL
	JALR

	// OUT reports rs1 as a program output; it is the usefulness root that
	// keeps final results of a workload alive for the deadness oracle.
	OUT
	// HALT stops execution.
	HALT

	numOps // sentinel; keep last
)

// NumOps is the number of defined opcodes (for table sizing).
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	MUL: "mul", DIVU: "divu", REMU: "remu",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLTI: "slti",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", LUI: "lui",
	LB: "lb", LH: "lh", LW: "lw", LD: "ld",
	SB: "sb", SH: "sh", SW: "sw", SD: "sd",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JAL: "jal", JALR: "jalr",
	OUT: "out", HALT: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsALUReg reports register-register ALU operations.
func (o Op) IsALUReg() bool { return o >= ADD && o <= REMU }

// IsALUImm reports register-immediate ALU operations (including LUI).
func (o Op) IsALUImm() bool { return o >= ADDI && o <= LUI }

// IsLoad reports memory loads.
func (o Op) IsLoad() bool { return o >= LB && o <= LD }

// IsStore reports memory stores.
func (o Op) IsStore() bool { return o >= SB && o <= SD }

// IsMem reports loads and stores.
func (o Op) IsMem() bool { return o >= LB && o <= SD }

// IsCondBranch reports conditional branches.
func (o Op) IsCondBranch() bool { return o >= BEQ && o <= BGE }

// IsJump reports unconditional control transfers.
func (o Op) IsJump() bool { return o == JAL || o == JALR }

// IsControl reports every instruction that can redirect the PC.
func (o Op) IsControl() bool { return o >= BEQ && o <= JALR }

// MemWidth returns the access size in bytes for memory operations and 0
// otherwise.
func (o Op) MemWidth() int {
	switch o {
	case LB, SB:
		return 1
	case LH, SH:
		return 2
	case LW, SW:
		return 4
	case LD, SD:
		return 8
	}
	return 0
}

// HasDest reports whether the instruction writes a destination register.
// Writes to R0 are still "writes" architecturally but have no effect; the
// emulator and pipeline treat rd==R0 as no destination.
func (o Op) HasDest() bool {
	return o.IsALUReg() || o.IsALUImm() || o.IsLoad() || o.IsJump()
}

// ReadsRs1 reports whether the instruction reads its first source register.
func (o Op) ReadsRs1() bool {
	switch {
	case o.IsALUReg():
		return true
	case o.IsALUImm():
		return o != LUI
	case o.IsMem():
		return true // base address
	case o.IsCondBranch():
		return true
	case o == JALR:
		return true
	case o == OUT:
		return true
	}
	return false
}

// ReadsRs2 reports whether the instruction reads its second source
// register. For stores, rs2 holds the data being stored.
func (o Op) ReadsRs2() bool {
	return o.IsALUReg() || o.IsStore() || o.IsCondBranch()
}

// Inst is one decoded r64 instruction. The zero value is a NOP.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// Dest returns the destination register and whether the instruction has an
// effective destination (writes to R0 are ineffective and reported false).
func (in Inst) Dest() (Reg, bool) {
	if in.Op.HasDest() && in.Rd != RZero {
		return in.Rd, true
	}
	return RZero, false
}

// Sources appends the architectural source registers that the instruction
// actually reads (excluding R0, which has no producer) to dst and returns
// the extended slice. dst may be nil.
func (in Inst) Sources(dst []Reg) []Reg {
	if in.Op.ReadsRs1() && in.Rs1 != RZero {
		dst = append(dst, in.Rs1)
	}
	if in.Op.ReadsRs2() && in.Rs2 != RZero {
		dst = append(dst, in.Rs2)
	}
	return dst
}

// Validate reports a descriptive error when the instruction is malformed
// (unknown opcode or out-of-range register).
func (in Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if !in.Rd.Valid() || !in.Rs1.Valid() || !in.Rs2.Valid() {
		return fmt.Errorf("isa: register out of range in %v", in)
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	o := in.Op
	switch {
	case o == NOP:
		return "nop"
	case o == HALT:
		return "halt"
	case o == OUT:
		return fmt.Sprintf("out %v", in.Rs1)
	case o.IsALUReg():
		return fmt.Sprintf("%v %v, %v, %v", o, in.Rd, in.Rs1, in.Rs2)
	case o == LUI:
		return fmt.Sprintf("lui %v, %d", in.Rd, in.Imm)
	case o.IsALUImm():
		return fmt.Sprintf("%v %v, %v, %d", o, in.Rd, in.Rs1, in.Imm)
	case o.IsLoad():
		return fmt.Sprintf("%v %v, %d(%v)", o, in.Rd, in.Imm, in.Rs1)
	case o.IsStore():
		return fmt.Sprintf("%v %v, %d(%v)", o, in.Rs2, in.Imm, in.Rs1)
	case o.IsCondBranch():
		return fmt.Sprintf("%v %v, %v, %d", o, in.Rs1, in.Rs2, in.Imm)
	case o == JAL:
		return fmt.Sprintf("jal %v, %d", in.Rd, in.Imm)
	case o == JALR:
		return fmt.Sprintf("jalr %v, %v, %d", in.Rd, in.Rs1, in.Imm)
	}
	return fmt.Sprintf("%v rd=%v rs1=%v rs2=%v imm=%d", o, in.Rd, in.Rs1, in.Rs2, in.Imm)
}

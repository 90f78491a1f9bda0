// Package emu is the architectural (functional) emulator for r64. It
// executes a program.Program instruction by instruction, maintaining the
// register file and a sparse paged memory, and can stream a dynamic trace
// of committed instructions to a sink.
//
// The emulator is the reference semantics for the whole repository: the
// compiler's correctness tests compare emulator outputs across optimization
// levels, and the pipeline timing model consumes the emulator's trace.
package emu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/deadness"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/trace"
)

// ErrBudget is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrBudget = errors.New("emu: instruction budget exhausted")

const pageBits = 12
const pageSize = 1 << pageBits

type page [pageSize]byte

// Machine is one r64 hardware context. Create it with New.
type Machine struct {
	prog *program.Program

	PC    int
	Regs  [isa.NumRegs]uint64
	mem   map[uint64]*page
	Steps int
	// Outputs accumulates the values reported by OUT, in order.
	Outputs []uint64
	Halted  bool
}

// New creates a machine with the program's data segment loaded at
// program.DataBase, RGbl pointing at it, RSP at program.StackBase, and the
// PC at the program entry.
func New(p *program.Program) *Machine {
	m := &Machine{
		prog: p,
		PC:   p.Entry,
		mem:  make(map[uint64]*page),
	}
	for i, b := range p.Data {
		m.StoreByte(program.DataBase+uint64(i), b)
	}
	m.Regs[isa.RGbl] = program.DataBase
	m.Regs[isa.RSP] = program.StackBase
	return m
}

// LoadByte reads one byte of memory (unmapped memory reads as zero).
func (m *Machine) LoadByte(addr uint64) byte {
	pg, ok := m.mem[addr>>pageBits]
	if !ok {
		return 0
	}
	return pg[addr&(pageSize-1)]
}

// StoreByte writes one byte of memory, allocating the page on demand.
func (m *Machine) StoreByte(addr uint64, b byte) {
	key := addr >> pageBits
	pg, ok := m.mem[key]
	if !ok {
		pg = new(page)
		m.mem[key] = pg
	}
	pg[addr&(pageSize-1)] = b
}

// Load reads width bytes little-endian, zero-extended to 64 bits.
func (m *Machine) Load(addr uint64, width int) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(width) <= pageSize {
		// Fast path: the access stays within one page.
		pg, ok := m.mem[addr>>pageBits]
		if !ok {
			return 0
		}
		var v uint64
		for i := 0; i < width; i++ {
			v |= uint64(pg[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Store writes the low width bytes of v little-endian.
func (m *Machine) Store(addr uint64, width int, v uint64) {
	off := addr & (pageSize - 1)
	if off+uint64(width) <= pageSize {
		key := addr >> pageBits
		pg, ok := m.mem[key]
		if !ok {
			pg = new(page)
			m.mem[key] = pg
		}
		for i := 0; i < width; i++ {
			pg[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < width; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

func (m *Machine) reg(r isa.Reg) uint64 {
	if r == isa.RZero {
		return 0
	}
	return m.Regs[r]
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r != isa.RZero {
		m.Regs[r] = v
	}
}

// Step executes one instruction and returns its trace record. Stepping a
// halted machine or running off the end of the text is an error.
func (m *Machine) Step() (trace.Record, error) {
	var rec trace.Record
	if err := m.step(&rec); err != nil {
		return trace.Record{}, err
	}
	return rec, nil
}

// step executes one instruction, writing its trace record in place (the
// hot path: Run reuses one record value across the whole run rather than
// zeroing and copying an 80-byte struct per committed instruction). Every
// field a consumer reads is (re)assigned; the producer-link fields are
// reset to their raw-trace zero values.
func (m *Machine) step(rec *trace.Record) error {
	if m.Halted {
		return fmt.Errorf("emu: step after halt at pc=%d", m.PC)
	}
	if m.PC < 0 || m.PC >= len(m.prog.Insts) {
		return fmt.Errorf("emu: pc %d out of range [0,%d)", m.PC, len(m.prog.Insts))
	}
	in := m.prog.Insts[m.PC]
	rec.PC, rec.Op, rec.Rd, rec.Rs1, rec.Rs2 = int32(m.PC), in.Op, in.Rd, in.Rs1, in.Rs2
	rec.Taken = false
	rec.Addr, rec.Width = 0, 0
	rec.Src1, rec.Src2, rec.NumMemSrcs = 0, 0, 0
	rec.Ineff = 0
	a, b := m.reg(in.Rs1), m.reg(in.Rs2)
	imm := uint64(int64(in.Imm)) // sign-extended
	next := m.PC + 1

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.setReg(in.Rd, a+b)
	case isa.SUB:
		m.setReg(in.Rd, a-b)
	case isa.AND:
		m.setReg(in.Rd, a&b)
	case isa.OR:
		m.setReg(in.Rd, a|b)
	case isa.XOR:
		m.setReg(in.Rd, a^b)
	case isa.SLL:
		m.setReg(in.Rd, a<<(b&63))
	case isa.SRL:
		m.setReg(in.Rd, a>>(b&63))
	case isa.SRA:
		m.setReg(in.Rd, uint64(int64(a)>>(b&63)))
	case isa.SLT:
		m.setReg(in.Rd, boolTo64(int64(a) < int64(b)))
	case isa.SLTU:
		m.setReg(in.Rd, boolTo64(a < b))
	case isa.MUL:
		m.setReg(in.Rd, a*b)
	case isa.DIVU:
		if b == 0 {
			m.setReg(in.Rd, ^uint64(0))
		} else {
			m.setReg(in.Rd, a/b)
		}
	case isa.REMU:
		if b == 0 {
			m.setReg(in.Rd, a)
		} else {
			m.setReg(in.Rd, a%b)
		}
	case isa.ADDI:
		m.setReg(in.Rd, a+imm)
	case isa.ANDI:
		m.setReg(in.Rd, a&imm)
	case isa.ORI:
		m.setReg(in.Rd, a|imm)
	case isa.XORI:
		m.setReg(in.Rd, a^imm)
	case isa.SLTI:
		m.setReg(in.Rd, boolTo64(int64(a) < int64(imm)))
	case isa.SLLI:
		m.setReg(in.Rd, a<<(imm&63))
	case isa.SRLI:
		m.setReg(in.Rd, a>>(imm&63))
	case isa.SRAI:
		m.setReg(in.Rd, uint64(int64(a)>>(imm&63)))
	case isa.LUI:
		m.setReg(in.Rd, uint64(int64(in.Imm))<<16)
	case isa.LB, isa.LH, isa.LW, isa.LD:
		w := in.Op.MemWidth()
		addr := a + imm
		m.setReg(in.Rd, m.Load(addr, w))
		rec.Addr, rec.Width = addr, uint8(w)
	case isa.SB, isa.SH, isa.SW, isa.SD:
		w := in.Op.MemWidth()
		addr := a + imm
		// Silent-store observation: the emulator is the only component
		// that sees memory values, so it records here whether the store
		// wrote the bytes already in place. Load zero-extends the low w
		// bytes, so masking b to the access width makes the comparison
		// exact for every width.
		if m.Load(addr, w) == b&widthMask(w) {
			rec.Ineff = trace.HintSilentStore
		}
		m.Store(addr, w, b)
		rec.Addr, rec.Width = addr, uint8(w)
	case isa.BEQ:
		if a == b {
			next = m.PC + 1 + int(in.Imm)
			rec.Taken = true
		}
	case isa.BNE:
		if a != b {
			next = m.PC + 1 + int(in.Imm)
			rec.Taken = true
		}
	case isa.BLT:
		if int64(a) < int64(b) {
			next = m.PC + 1 + int(in.Imm)
			rec.Taken = true
		}
	case isa.BGE:
		if int64(a) >= int64(b) {
			next = m.PC + 1 + int(in.Imm)
			rec.Taken = true
		}
	case isa.JAL:
		m.setReg(in.Rd, uint64(m.PC+1))
		next = m.PC + 1 + int(in.Imm)
	case isa.JALR:
		t := a + imm
		m.setReg(in.Rd, uint64(m.PC+1))
		next = int(t)
	case isa.OUT:
		m.Outputs = append(m.Outputs, a)
	case isa.HALT:
		m.Halted = true
		next = m.PC
	default:
		return fmt.Errorf("emu: pc=%d: unimplemented opcode %v", m.PC, in.Op)
	}

	// Trivial-op observation: a non-control, non-load result that equals
	// the pre-instruction value of a register source could have been
	// satisfied by a rename-table remap (x+0, x|0, x&x, mul-by-1, and the
	// 0*x family all land here). a and b hold the operand values read
	// before the destination write, so rd==rs cases compare correctly.
	if f := in.Op.Flags(); f&(isa.FlagHasDest|isa.FlagControl|isa.FlagLoad) == isa.FlagHasDest &&
		in.Rd != isa.RZero {
		v := m.Regs[in.Rd]
		if f&isa.FlagReadsRs1 != 0 && v == a {
			rec.Ineff |= trace.HintResultEqRs1
		}
		if f&isa.FlagReadsRs2 != 0 && v == b {
			rec.Ineff |= trace.HintResultEqRs2
		}
	}

	rec.NextPC = int32(next)
	m.PC = next
	m.Steps++
	return nil
}

// widthMask returns the value mask of a width-byte access.
func widthMask(w int) uint64 {
	if w >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*w) - 1
}

// Run executes until HALT or until budget instructions have committed,
// passing each record to sink (which may be nil; the record is only valid
// for the duration of the call). It returns ErrBudget when the budget
// expires first. It is RunCtx under a context that never ends.
func (m *Machine) Run(budget int, sink func(*trace.Record)) error {
	return m.RunCtx(context.Background(), budget, sink)
}

// CtxCheckInterval is the cancellation poll interval of RunCtx: the
// context is consulted once per this many committed instructions, so an
// emulation aborts within microseconds of cancellation while the hot
// loop stays free of per-step channel reads. It is deliberately at most
// half a trace chunk (trace.ChunkSize), so a cancelled collection never
// commits a full chunk past the poll that observes the cancellation —
// the bound the service tier's drain and request-timeout paths rely on
// (DESIGN.md §10). It must be a power of two; RunCtx masks with it.
const CtxCheckInterval = 1 << 12

const ctxCheckMask = CtxCheckInterval - 1

// RunCtx is Run with cooperative cancellation: it polls ctx every few
// thousand committed instructions and returns ctx.Err() when the context
// ends mid-run. It is the emulator's one loop. When a fault injector is
// installed, every committed instruction is a firing opportunity at
// faults.SiteEmuStep; the injector is sampled once at entry.
func (m *Machine) RunCtx(ctx context.Context, budget int, sink func(*trace.Record)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	inj := faults.Active()
	var rec trace.Record
	for !m.Halted {
		if m.Steps >= budget {
			return ErrBudget
		}
		if m.Steps&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if inj != nil {
			if err := inj.Fire(faults.SiteEmuStep); err != nil {
				return fmt.Errorf("emu: step %d: %w", m.Steps, err)
			}
		}
		if err := m.step(&rec); err != nil {
			return err
		}
		if sink != nil {
			sink(&rec)
		}
	}
	return nil
}

// collectCap bounds how much storage the budget hint pre-sizes (the same
// cap the pre-columnar substrate used for its record slice).
const collectCap = 1 << 20

// CollectAnalyzed runs the program to completion (or budget) and returns
// the linked trace, its oracle analysis, and the final machine state.
// Completed trace chunks feed the fused link+analyze pass in-line as the
// emulator fills them, so the analysis runs one chunk behind emulation
// rather than after it. A budget overrun is not an error here: the partial
// trace is still analyzable, mirroring how architecture studies simulate a
// fixed instruction window of a longer-running benchmark. Hard execution
// faults still return an error.
func CollectAnalyzed(p *program.Program, budget int) (*trace.Trace, *deadness.Analysis, *Machine, error) {
	return CollectAnalyzedCtx(context.Background(), p, budget, nil, "")
}

// CollectAnalyzedCtx is CollectAnalyzed with cooperative cancellation and
// phase observability through the (nil-safe) collector: PhaseEmulate spans
// the emulator run with the forward pass fused in-line, and PhaseAnalyze
// spans the tail — the last partial chunk plus the reverse usefulness
// pass. When ctx ends mid-collection the emulation aborts within a few
// thousand instructions and ctx.Err() is returned with nil results. A run
// that completes is bit-identical to an uncancellable one.
//
// The trace's first chunk and the stream's two fact columns are sized from
// the budget, capped at collectCap, so a run that reaches its budget never
// regrows them. One that halts short of it leaves capacity it never
// touches, so never makes resident (16.5 MB over the suite at 1M). Copying
// the columns down to length in Finish raised the peak RSS of building
// the 11 suite profiles at 1M from 252 to 277 MiB: the copies are
// touched, and the old columns stay resident until the next collection.
func CollectAnalyzedCtx(ctx context.Context, p *program.Program, budget int, mc *metrics.Collector, name string) (*trace.Trace, *deadness.Analysis, *Machine, error) {
	m := New(p)
	t := trace.NewWithCapacity(min(budget, collectCap))
	st := deadness.NewStream(min(budget, collectCap))
	sent := 0
	sp := mc.Start(metrics.PhaseEmulate, name)
	err := m.RunCtx(ctx, budget, func(r *trace.Record) {
		t.Push(r)
		if t.Len()>>trace.ChunkBits > sent {
			st.Chunk(t.Chunk(sent))
			sent++
		}
	})
	sp.End(int64(t.Len()))

	sp = mc.Start(metrics.PhaseAnalyze, name)
	if err != nil && !errors.Is(err, ErrBudget) {
		sp.End(0)
		return nil, nil, nil, err
	}
	if sent < t.NumChunks() {
		st.Chunk(t.Chunk(sent))
	}
	a := st.Finish(t)
	sp.End(int64(t.Len()))
	return t, a, m, nil
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

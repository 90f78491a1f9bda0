// Package trace defines the dynamic instruction record produced by the
// functional emulator and the columnar store that holds it, including the
// producer links that connect every dynamic operand to its producing
// dynamic instruction. The links are derived by the deadness oracle's
// fused walk (deadness.LinkAndAnalyze); the linked trace is the substrate
// for the oracle and the timing model (internal/pipeline).
//
// Storage is chunked and columnar (structure-of-arrays): the hot fields
// that every trace walk touches (PC, Op, registers, the branch outcome,
// and the register producer links) live in dense per-chunk parallel
// arrays, while memory addresses and load producer links live in side
// tables indexed only by the records that need them. Nothing the trace
// can derive is stored: a record's NextPC is the next record's PC (a
// chunk keeps only its last record's), an access width is its opcode's,
// and the side-table indices are chunk-local 16-bit values. A record
// costs 20 bytes and a memory record 11 more; with the producer lists and
// spare capacity the suite's 1M traces hold 28.7 bytes per record against
// the ~80 of an array-of-structs layout, and sequential scans (the fused
// oracle, predictor evaluation, the pipeline) stream through
// cache-friendly columns. Chunk storage belongs to the garbage collector:
// a trace nobody references is reclaimed like any other value.
package trace

import "repro/internal/isa"

// NoProducer marks an operand with no dynamic producer in the trace: the
// register or memory byte still held its initial (pre-trace) value.
const NoProducer int32 = -1

// Ineffectuality hint bits, set per record by the emulator — the only
// component that observes architectural values — and consumed by the
// deadness pass, which owns the policy of turning raw value-equality
// observations into ineffectuality classes. The bits are mechanism, not
// classification: HintSilentStore records that a store wrote bytes equal
// to the bytes already in memory, and HintResultEqRs1/HintResultEqRs2
// record that a result-producing instruction computed a value equal to
// the (pre-instruction) value of that register source. Unlike producer
// links the hints are NOT derivable from the trace (the trace carries no
// data values), so the wire format persists them — the warm-start
// invariant is bit-identical records, hints included.
const (
	HintSilentStore uint8 = 1 << iota
	HintResultEqRs1
	HintResultEqRs2
)

// MaxMemProducers bounds the producer stores of one load: a load reads at
// most 8 bytes, each with one most-recent writer.
const MaxMemProducers = 8

// Chunk geometry. ChunkSize records per chunk keeps one chunk's hot
// columns around 160 KiB — large enough that chunk bookkeeping is noise,
// small enough that a producer/consumer pair streaming one chunk apart
// (see emu.CollectAnalyzed) stays cache-warm.
const (
	ChunkBits = 13
	ChunkSize = 1 << ChunkBits
	chunkMask = ChunkSize - 1
)

// The side-table indices are chunk-local, so these compile only while
// they fit: MemIdx holds one of at most ChunkSize memory slots in an
// int16, and srcOff one of at most MaxMemProducers*ChunkSize producer
// entries in a uint16.
const (
	_ = uint(1<<15 - ChunkSize)
	_ = uint(1<<16 - MaxMemProducers*ChunkSize)
)

// Record is one committed dynamic instruction, materialized. The columnar
// store assembles a Record on demand (At) and splits one on Append; use
// Ref or the per-chunk columns to walk a trace without materializing.
type Record struct {
	PC  int32 // static instruction index
	Op  isa.Op
	Rd  isa.Reg
	Rs1 isa.Reg
	Rs2 isa.Reg

	// Control-flow outcome. A trace returns the next record's PC as NextPC
	// for every record but its chunk's last.
	Taken  bool  // conditional branches only
	NextPC int32 // PC of the next committed instruction

	// Memory access (loads and stores only); a trace returns the opcode's
	// width.
	Addr  uint64
	Width uint8

	// Producer links, filled by the linker. Src1/Src2 are the dynamic
	// sequence numbers of the instructions that produced the register
	// operands, or NoProducer.
	Src1, Src2 int32
	// MemSrcs[:NumMemSrcs] are the distinct producer stores of a load.
	MemSrcs    [MaxMemProducers]int32
	NumMemSrcs uint8

	// Ineff carries the emulator's ineffectuality hint bits (Hint*).
	Ineff uint8
}

// HasResult reports whether the record produces a register value that a
// later instruction could read (destination exists and is not R0).
func (r *Record) HasResult() bool {
	return r.Op.HasDest() && r.Rd != isa.RZero
}

func (r *Record) addMemSrc(w int32) {
	if w == NoProducer {
		return
	}
	for i := uint8(0); i < r.NumMemSrcs; i++ {
		if r.MemSrcs[i] == w {
			return
		}
	}
	if int(r.NumMemSrcs) < MaxMemProducers {
		r.MemSrcs[r.NumMemSrcs] = w
		r.NumMemSrcs++
	}
}

// MemProducers returns the slice view of a load's producer stores.
func (r *Record) MemProducers() []int32 {
	return r.MemSrcs[:r.NumMemSrcs]
}

// Chunk holds up to ChunkSize records in parallel column arrays. Every
// exported column slice has the same length (the number of records in the
// chunk); local index i within a chunk addresses record chunkIndex<<
// ChunkBits + i of the trace. Consumers may read columns freely and the
// linker writes Src1/Src2 through them, but only the trace may append.
type Chunk struct {
	// Hot columns, one entry per record: 20 bytes.
	PC    []int32
	Op    []isa.Op
	Rd    []isa.Reg
	Rs1   []isa.Reg
	Rs2   []isa.Reg
	Taken []bool
	Src1  []int32
	Src2  []int32
	// MemIdx[i] is record i's slot in the memory side tables, or -1 when
	// the record is not a memory access.
	MemIdx []int16
	// Ineff holds the emulator's per-record ineffectuality hint bits
	// (HintSilentStore & co.). Derived facts live in deadness.Analysis;
	// this column is the raw observation stream.
	Ineff []uint8

	// lastNext is the NextPC of the chunk's last record; every other
	// record's NextPC is the PC of the record after it.
	lastNext int32

	// Memory side tables, indexed by MemIdx slot: 11 bytes per memory
	// record with the producer spans below.
	Addr []uint64

	// Load producer links: slot mi of a linked load covers
	// memSrcs[srcOff[mi] : srcOff[mi]+srcLen[mi]]. Store slots keep
	// srcLen 0. The flat array is rebuilt by each link pass.
	srcOff  []uint16
	srcLen  []uint8
	memSrcs []int32
}

// Len returns the number of records in the chunk.
func (c *Chunk) Len() int { return len(c.PC) }

// nextPC returns the PC of the instruction committed after the record at
// local index i.
func (c *Chunk) nextPC(i int) int32 {
	if i+1 < len(c.PC) {
		return c.PC[i+1]
	}
	return c.lastNext
}

// MemProducers returns the producer stores of the load at local index i
// (empty for non-loads and unlinked records).
func (c *Chunk) MemProducers(i int) []int32 {
	mi := c.MemIdx[i]
	if mi < 0 || c.srcLen[mi] == 0 {
		return nil
	}
	off := int(c.srcOff[mi])
	return c.memSrcs[off : off+int(c.srcLen[mi])]
}

// BeginLink resets the chunk's load-producer storage ahead of a link pass
// over the chunk. Each load's span is rewritten by LinkLoadProducers, so
// only the flat array needs truncating.
func (c *Chunk) BeginLink() {
	c.memSrcs = c.memSrcs[:0]
}

// LinkLoadProducers computes and records the distinct producer stores of
// the load at local index i from the writer map, returning the producer
// span (valid until the next BeginLink). The caller must have called
// BeginLink on this chunk and must link loads in trace order.
func (c *Chunk) LinkLoadProducers(i int, w *WriterMap) []int32 {
	mi := c.MemIdx[i]
	start := len(c.memSrcs)
	c.memSrcs = w.AppendLoadProducers(c.Addr[mi], int(c.Op[i].MemWidthFast()), c.memSrcs)
	c.srcOff[mi] = uint16(start)
	c.srcLen[mi] = uint8(len(c.memSrcs) - start)
	return c.memSrcs[start:]
}

// push appends one record's fields to the columns. Non-memory records
// canonicalize Addr to zero (they have no side-table slot). The record's
// Width, its NextPC unless it is the chunk's last, and its MemSrcs are
// never taken from the input: the first two are derived from the opcode
// and the next record, and producer links are recomputed by the linker.
func (c *Chunk) push(r *Record) {
	c.PC = append(c.PC, r.PC)
	c.Op = append(c.Op, r.Op)
	c.Rd = append(c.Rd, r.Rd)
	c.Rs1 = append(c.Rs1, r.Rs1)
	c.Rs2 = append(c.Rs2, r.Rs2)
	c.Taken = append(c.Taken, r.Taken)
	c.Src1 = append(c.Src1, r.Src1)
	c.Src2 = append(c.Src2, r.Src2)
	c.Ineff = append(c.Ineff, r.Ineff)
	c.lastNext = r.NextPC
	mi := int16(-1)
	if r.Op.IsMem() {
		mi = int16(len(c.Addr))
		c.Addr = append(c.Addr, r.Addr)
		c.srcOff = append(c.srcOff, 0)
		c.srcLen = append(c.srcLen, 0)
	}
	c.MemIdx = append(c.MemIdx, mi)
}

// reset truncates every column, keeping capacity.
func (c *Chunk) reset() {
	c.PC = c.PC[:0]
	c.Op = c.Op[:0]
	c.Rd = c.Rd[:0]
	c.Rs1 = c.Rs1[:0]
	c.Rs2 = c.Rs2[:0]
	c.Taken = c.Taken[:0]
	c.Src1 = c.Src1[:0]
	c.Src2 = c.Src2[:0]
	c.Ineff = c.Ineff[:0]
	c.lastNext = 0
	c.MemIdx = c.MemIdx[:0]
	c.Addr = c.Addr[:0]
	c.srcOff = c.srcOff[:0]
	c.srcLen = c.srcLen[:0]
	c.memSrcs = c.memSrcs[:0]
}

// Trace is a chunked columnar dynamic instruction trace.
type Trace struct {
	chunks []*Chunk
	n      int
	// Linked records whether the producer links are current.
	Linked bool
}

// NewWithCapacity returns an empty trace pre-sized for hint records: the
// first chunk's columns are allocated up front (clamped to one chunk), so
// collection does not grow from zero. Pass the emulation budget (or a
// validated header count) as the hint.
func NewWithCapacity(hint int) *Trace {
	t := &Trace{}
	if hint > 0 {
		t.addChunk(min(hint, ChunkSize))
	}
	return t
}

// addChunk appends an empty chunk whose hot columns hold capacity
// records without growing. Its memory side tables hold the previous
// chunk's memory-record count plus an eighth of a chunk, and the first
// chunk's hold every record: at 1M the suite's traces run 27-56% memory
// operations, up to 67% in one chunk, and a chunk holds at most 648 more
// of them than the one before it, so no chunk regrows its tables.
func (t *Trace) addChunk(capacity int) *Chunk {
	memCap := capacity
	if k := len(t.chunks); k > 0 {
		memCap = min(capacity, len(t.chunks[k-1].Addr)+ChunkSize/8)
	}
	c := &Chunk{
		PC:     make([]int32, 0, capacity),
		Op:     make([]isa.Op, 0, capacity),
		Rd:     make([]isa.Reg, 0, capacity),
		Rs1:    make([]isa.Reg, 0, capacity),
		Rs2:    make([]isa.Reg, 0, capacity),
		Taken:  make([]bool, 0, capacity),
		Src1:   make([]int32, 0, capacity),
		Src2:   make([]int32, 0, capacity),
		Ineff:  make([]uint8, 0, capacity),
		MemIdx: make([]int16, 0, capacity),
		Addr:   make([]uint64, 0, memCap),
		srcOff: make([]uint16, 0, memCap),
		srcLen: make([]uint8, 0, memCap),
	}
	t.chunks = append(t.chunks, c)
	return c
}

// FromRecords builds a trace from materialized records (primarily a test
// convenience; hot paths append streamingly).
func FromRecords(recs []Record) *Trace {
	t := NewWithCapacity(len(recs))
	for i := range recs {
		t.append(&recs[i])
	}
	return t
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return t.n }

// NumChunks returns the number of chunks holding records. Chunks
// 0..NumChunks-2 are full; the last may be partial.
func (t *Trace) NumChunks() int {
	if t.n == 0 {
		return 0
	}
	return (t.n-1)>>ChunkBits + 1
}

// Chunk returns chunk i for sequential column scans.
func (t *Trace) Chunk(i int) *Chunk { return t.chunks[i] }

// Append adds a record (unlinked).
func (t *Trace) Append(r Record) { t.append(&r) }

// Push adds a record without copying it through the stack (the emulator's
// sink path; the record is read, never retained).
func (t *Trace) Push(r *Record) { t.append(r) }

func (t *Trace) append(r *Record) {
	ci := t.n >> ChunkBits
	var c *Chunk
	switch {
	case ci < len(t.chunks):
		c = t.chunks[ci]
	case t.n == 0:
		// A zero-value trace starts with a growable chunk rather than a
		// full-size one for what is usually a handful of hand-built
		// records.
		c = t.addChunk(0)
	default:
		c = t.addChunk(ChunkSize)
	}
	c.push(r)
	t.n++
	t.Linked = false
}

// At materializes record seq, including its producer links when the trace
// is linked. NextPC is the next record's PC (the pushed value for a
// chunk's last record) and Width the opcode's.
func (t *Trace) At(seq int) Record {
	c := t.chunks[seq>>ChunkBits]
	i := seq & chunkMask
	r := Record{
		PC: c.PC[i], Op: c.Op[i], Rd: c.Rd[i], Rs1: c.Rs1[i], Rs2: c.Rs2[i],
		Taken: c.Taken[i], NextPC: c.nextPC(i),
		Src1: c.Src1[i], Src2: c.Src2[i],
		Ineff: c.Ineff[i],
	}
	if mi := c.MemIdx[i]; mi >= 0 {
		r.Addr, r.Width = c.Addr[mi], c.Op[i].MemWidthFast()
		r.NumMemSrcs = uint8(copy(r.MemSrcs[:], c.MemProducers(i)))
	}
	return r
}

// Records materializes the whole trace (a test convenience).
func (t *Trace) Records() []Record {
	out := make([]Record, t.n)
	for i := range out {
		out[i] = t.At(i)
	}
	return out
}

// Ref is a cheap positioned view of one record: a chunk pointer plus a
// local index, resolved once so repeated field reads cost one array index
// each.
type Ref struct {
	c *Chunk
	i int32
}

// Ref returns the record view at seq.
func (t *Trace) Ref(seq int) Ref {
	return Ref{t.chunks[seq>>ChunkBits], int32(seq & chunkMask)}
}

func (r Ref) PC() int32     { return r.c.PC[r.i] }
func (r Ref) Op() isa.Op    { return r.c.Op[r.i] }
func (r Ref) Rd() isa.Reg   { return r.c.Rd[r.i] }
func (r Ref) Rs1() isa.Reg  { return r.c.Rs1[r.i] }
func (r Ref) Rs2() isa.Reg  { return r.c.Rs2[r.i] }
func (r Ref) Taken() bool   { return r.c.Taken[r.i] }
func (r Ref) NextPC() int32 { return r.c.nextPC(int(r.i)) }
func (r Ref) Src1() int32   { return r.c.Src1[r.i] }
func (r Ref) Src2() int32   { return r.c.Src2[r.i] }

// Addr returns the memory address of a load or store (0 otherwise).
func (r Ref) Addr() uint64 {
	if mi := r.c.MemIdx[r.i]; mi >= 0 {
		return r.c.Addr[mi]
	}
	return 0
}

// Width returns the access width of a load or store (0 otherwise).
func (r Ref) Width() uint8 { return r.c.Op[r.i].MemWidthFast() }

// MemProducers returns the producer stores of a linked load (empty
// otherwise).
func (r Ref) MemProducers() []int32 { return r.c.MemProducers(int(r.i)) }

// OpAt returns the opcode of record seq.
func (t *Trace) OpAt(seq int) isa.Op {
	return t.chunks[seq>>ChunkBits].Op[seq&chunkMask]
}

// PCAt returns the static instruction index of record seq.
func (t *Trace) PCAt(seq int) int32 {
	return t.chunks[seq>>ChunkBits].PC[seq&chunkMask]
}

// Reset truncates the trace to empty, keeping chunk storage for reuse
// (the windowed-analysis pattern: refill, relink, repeat).
func (t *Trace) Reset() {
	for _, c := range t.chunks {
		c.reset()
	}
	t.n = 0
	t.Linked = false
}

// Release empties the trace, dropping its chunks. The trace (and every
// Ref or column view into it) must not be used afterwards.
func (t *Trace) Release() {
	t.chunks = nil
	t.n = 0
	t.Linked = false
}

// AppendRange appends records [start, end) of src, copying hot columns
// chunk-segment-at-a-time. Producer links are not copied (the destination
// is unlinked); relink to derive them for the new sub-trace.
func (t *Trace) AppendRange(src *Trace, start, end int) {
	for start < end {
		sc := src.chunks[start>>ChunkBits]
		si := start & chunkMask
		run := min(end-start, sc.Len()-si)

		// Destination chunk and the room left in it.
		ci := t.n >> ChunkBits
		if ci >= len(t.chunks) {
			if t.n == 0 {
				t.addChunk(min(run, ChunkSize))
			} else {
				t.addChunk(ChunkSize)
			}
		}
		c := t.chunks[ci]
		run = min(run, ChunkSize-c.Len())

		c.PC = append(c.PC, sc.PC[si:si+run]...)
		c.Op = append(c.Op, sc.Op[si:si+run]...)
		c.Rd = append(c.Rd, sc.Rd[si:si+run]...)
		c.Rs1 = append(c.Rs1, sc.Rs1[si:si+run]...)
		c.Rs2 = append(c.Rs2, sc.Rs2[si:si+run]...)
		c.Taken = append(c.Taken, sc.Taken[si:si+run]...)
		c.Ineff = append(c.Ineff, sc.Ineff[si:si+run]...)
		c.lastNext = sc.nextPC(si + run - 1)
		for k := 0; k < run; k++ {
			c.Src1 = append(c.Src1, 0)
			c.Src2 = append(c.Src2, 0)
			mi := int16(-1)
			if smi := sc.MemIdx[si+k]; smi >= 0 {
				mi = int16(len(c.Addr))
				c.Addr = append(c.Addr, sc.Addr[smi])
				c.srcOff = append(c.srcOff, 0)
				c.srcLen = append(c.srcLen, 0)
			}
			c.MemIdx = append(c.MemIdx, mi)
		}
		t.n += run
		start += run
	}
	t.Linked = false
}

// Clone deep-copies the trace, including any producer links.
func (t *Trace) Clone() *Trace {
	out := &Trace{n: t.n, Linked: t.Linked}
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.chunks[ci]
		nc := &Chunk{
			PC:       append([]int32(nil), c.PC...),
			Op:       append([]isa.Op(nil), c.Op...),
			Rd:       append([]isa.Reg(nil), c.Rd...),
			Rs1:      append([]isa.Reg(nil), c.Rs1...),
			Rs2:      append([]isa.Reg(nil), c.Rs2...),
			Taken:    append([]bool(nil), c.Taken...),
			Src1:     append([]int32(nil), c.Src1...),
			Src2:     append([]int32(nil), c.Src2...),
			Ineff:    append([]uint8(nil), c.Ineff...),
			lastNext: c.lastNext,
			MemIdx:   append([]int16(nil), c.MemIdx...),
			Addr:     append([]uint64(nil), c.Addr...),
			srcOff:   append([]uint16(nil), c.srcOff...),
			srcLen:   append([]uint8(nil), c.srcLen...),
			memSrcs:  append([]int32(nil), c.memSrcs...),
		}
		out.chunks = append(out.chunks, nc)
	}
	return out
}

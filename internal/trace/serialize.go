package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/isa"
	"repro/internal/lebytes"
)

// Binary trace format: a fixed 12-byte header (magic, version, record
// count) followed by the trace body.
//
// Version 3 (written by SaveLinked) is laid out for load speed: after the
// header comes a per-chunk byte-size table, then one self-contained
// columnar section per chunk (hot columns back to back, then the memory
// address side table, then each load's producer-store list). Column
// sections decode with bulk reads and tight per-column loops instead of
// per-record scatter, the size table lets chunks decode independently —
// in parallel on multi-core hosts — and loading restores the links
// instead of re-deriving them. Every link is validated against the only
// invariant that matters (a producer strictly precedes its consumer), so
// a corrupt links section is rejected, never trusted. Ineffectuality hints
// travel in their own column: they are value observations the trace
// cannot re-derive. The NextPC column is written in full though the trace
// stores only each chunk's last value, and the loader rejects an image in
// which a record's NextPC is not the next record's PC.
const (
	traceMagic = 0x64746363 // "dtcc"
	// traceVersionLinked is the only readable version. Version 1 (row
	// records, links re-derived on load) and version 2 (columnar without
	// the hint column) are rejected as unsupported; the only persisted
	// images of either lived inside profile artifacts, whose own codec
	// version gate rejects them as stale before the trace section decodes.
	traceVersionLinked = 3

	// hotColumnBytes is the per-record cost of a version-3 section's fixed
	// columns: PC(4) Op(1) Rd(1) Rs1(1) Rs2(1) Taken(1) NextPC(4) Src1(4)
	// Src2(4) Ineff(1).
	hotColumnBytes = 22
	// maxSectionBytesPerRecord bounds a version-3 chunk section per record:
	// fixed columns, an 8-byte address, and a maximal producer list (count
	// byte + 4 bytes per producer). The size table is validated against it
	// so a corrupt table cannot demand an oversized allocation.
	maxSectionBytesPerRecord = hotColumnBytes + 8 + 1 + 4*MaxMemProducers
)

// DefaultLoadLimit caps how many records LoadBytes accepts. The header
// count is untrusted input: without a cap, 4 corrupt bytes could demand a
// multi-hundred-gigabyte allocation before a single record is validated.
// 16M records (~1.5 minutes of emulation at the default budget, ~1 GiB
// in memory) is far beyond any trace this repository produces.
const DefaultLoadLimit = 1 << 24

// writeHeader emits the 12-byte file header.
func writeHeader(bw *bufio.Writer, n int) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersionLinked)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	_, err := bw.Write(hdr[:])
	return err
}

// sectionSize returns the byte length of the chunk's version-3 columnar
// section.
func (c *Chunk) sectionSize() int {
	n := c.Len()*hotColumnBytes + len(c.Addr)*8
	for i := 0; i < c.Len(); i++ {
		if mi := c.MemIdx[i]; mi >= 0 && c.Op[i].IsLoad() {
			n += 1 + 4*int(c.srcLen[mi])
		}
	}
	return n
}

// encodeSection fills b (sized by sectionSize) with the chunk's columnar
// section, which cannot be empty. Access widths are not stored: every
// memory record's width is its opcode's MemWidth, so the loader derives
// them as the trace does. The NextPC column is derived the same way: the
// next record's PC, then the chunk's last NextPC.
func (c *Chunk) encodeSection(b []byte) {
	cn := c.Len()
	lebytes.PutI32s(b[:4*cn], c.PC)
	copy(b[4*cn:5*cn], lebytes.U8(c.Op))
	copy(b[5*cn:6*cn], lebytes.U8(c.Rd))
	copy(b[6*cn:7*cn], lebytes.U8(c.Rs1))
	copy(b[7*cn:8*cn], lebytes.U8(c.Rs2))
	copy(b[8*cn:9*cn], lebytes.Bool(c.Taken))
	copy(b[9*cn:13*cn-4], b[4:4*cn])
	binary.LittleEndian.PutUint32(b[13*cn-4:], uint32(c.lastNext))
	lebytes.PutI32s(b[13*cn:17*cn], c.Src1)
	lebytes.PutI32s(b[17*cn:21*cn], c.Src2)
	copy(b[21*cn:22*cn], c.Ineff)
	lebytes.PutU64s(b[22*cn:], c.Addr)
	off := 22*cn + 8*len(c.Addr)
	// Loads' producer-store lists, in record order: one count byte per
	// load followed by the producers. Stores carry no list.
	for i := 0; i < cn; i++ {
		mi := c.MemIdx[i]
		if mi < 0 || !c.Op[i].IsLoad() {
			continue
		}
		b[off] = c.srcLen[mi]
		off++
		for _, p := range c.MemProducers(i) {
			binary.LittleEndian.PutUint32(b[off:], uint32(p))
			off += 4
		}
	}
}

// SaveLinked writes the trace to w in the version-3 columnar format, which
// carries the producer links alongside the records. Loading it skips the
// link pass, so a persisted profile warm-starts without re-deriving
// def-use state. The trace must be linked.
func (t *Trace) SaveLinked(w io.Writer) error {
	if !t.Linked {
		return errors.New("trace: SaveLinked requires a linked trace (run deadness.LinkAndAnalyze first)")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, t.n); err != nil {
		return err
	}
	nc := t.NumChunks()
	sizes := make([]int, nc)
	tbl := make([]byte, 4*nc)
	maxSize := 0
	for ci := 0; ci < nc; ci++ {
		sizes[ci] = t.chunks[ci].sectionSize()
		binary.LittleEndian.PutUint32(tbl[ci*4:], uint32(sizes[ci]))
		maxSize = max(maxSize, sizes[ci])
	}
	if _, err := bw.Write(tbl); err != nil {
		return err
	}
	buf := make([]byte, maxSize)
	for ci := 0; ci < nc; ci++ {
		b := buf[:sizes[ci]]
		t.chunks[ci].encodeSection(b)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LinkedSize returns the exact number of bytes SaveLinked will write for
// the trace, so callers embedding a trace in a larger stream can length-
// prefix the section without buffering it. The trace must be linked.
func (t *Trace) LinkedSize() int64 {
	nc := t.NumChunks()
	n := int64(12 + 4*nc)
	for ci := 0; ci < nc; ci++ {
		n += int64(t.chunks[ci].sectionSize())
	}
	return n
}

// parseHeader validates the 12-byte file header against limit and returns
// the format version and record count.
func parseHeader(hdr []byte, limit int) (version uint32, n int, err error) {
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != traceMagic {
		return 0, 0, fmt.Errorf("trace: bad magic %#x", m)
	}
	version = binary.LittleEndian.Uint32(hdr[4:])
	cnt := binary.LittleEndian.Uint32(hdr[8:])
	if uint64(cnt) > uint64(limit) {
		return 0, 0, fmt.Errorf("trace: header claims %d records, limit %d", cnt, limit)
	}
	return version, int(cnt), nil
}

// LoadBytes decodes a trace image written by SaveLinked and held entirely
// in memory, rejecting headers that claim more than limit records
// (limit <= 0 means DefaultLoadLimit). The image is untrusted input:
// malformed records, link entries that do not strictly precede their
// consumer, truncation, and trailing garbage are errors. Columnar
// sections decode straight out of data with no intermediate copy — the
// persistent artifact tier's warm start reads a verified payload and
// decodes it in place. LoadBytes is a pure function of data: it never
// writes data and retains no reference to it.
func LoadBytes(data []byte, limit int) (*Trace, error) {
	if limit <= 0 {
		limit = DefaultLoadLimit
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("trace: reading header: %w", io.ErrUnexpectedEOF)
	}
	version, n, err := parseHeader(data, limit)
	if err != nil {
		return nil, err
	}
	if version != traceVersionLinked {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	return loadColumnar(data[12:], n)
}

// loadColumnar decodes the version-3 body: the chunk size table, then one
// columnar section per chunk, each sliced straight out of body with no
// intermediate copy. Sections are independent, so on multi-core hosts they
// decode in parallel — the warm-start path's wall clock is one chunk's
// decode, not the sum over chunks.
func loadColumnar(body []byte, n int) (*Trace, error) {
	t := &Trace{Linked: true}
	if n == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("trace: trailing garbage after 0 records")
		}
		return t, nil
	}
	nc := (n-1)>>ChunkBits + 1
	if len(body) < 4*nc {
		return nil, fmt.Errorf("trace: chunk size table: %w", io.ErrUnexpectedEOF)
	}
	tbl := body[:4*nc]
	sizes := make([]int, nc)
	for k := range sizes {
		cn := min(n-k<<ChunkBits, ChunkSize)
		sz := int(binary.LittleEndian.Uint32(tbl[k*4:]))
		if sz < cn*hotColumnBytes || sz > cn*maxSectionBytesPerRecord {
			return nil, fmt.Errorf("trace: chunk %d: section size %d out of range", k, sz)
		}
		sizes[k] = sz
	}
	parallel := nc > 1 && runtime.GOMAXPROCS(0) > 1
	errs := make([]error, nc)
	var wg sync.WaitGroup
	off := 4 * nc
	for k := 0; k < nc; k++ {
		cn := min(n-k<<ChunkBits, ChunkSize)
		if len(body)-off < sizes[k] {
			wg.Wait()
			return nil, fmt.Errorf("trace: chunk %d: %w", k, io.ErrUnexpectedEOF)
		}
		sec := body[off : off+sizes[k]]
		off += sizes[k]
		c := &Chunk{}
		t.chunks = append(t.chunks, c)
		base := k << ChunkBits
		if parallel {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = c.decodeSection(sec, base, cn)
			}(k)
		} else {
			errs[k] = c.decodeSection(sec, base, cn)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("trace: trailing garbage after %d records", n)
	}
	// decodeSection checked the committed path inside each chunk; this
	// checks it across each chunk boundary.
	for k := 1; k < nc; k++ {
		if prev, pc := t.chunks[k-1].lastNext, t.chunks[k].PC[0]; prev != pc {
			return nil, fmt.Errorf("trace: record %d: next PC %d, but record %d has PC %d",
				k<<ChunkBits-1, prev, k<<ChunkBits, pc)
		}
	}
	t.n = n
	return t, nil
}

// Decoder classification table, 256-wide so an arbitrary opcode byte
// indexes it safely: zero means invalid, otherwise the valid bit, the
// memory/load flags, and the access width in the high nibble. Built from
// the isa predicate methods so they stay the single source of truth
// (mirroring isa's own flag tables).
const (
	opInfoValid = 1 << 0
	opInfoMem   = 1 << 1
	opInfoLoad  = 1 << 2
)

// hintAllowed maps an opcode byte to the hint bits the emulator can
// legally produce for it: silent-store on stores, result-equals-source
// bits on result-producing ops for the sources the op actually reads.
// Anything outside that in a hint byte marks a corrupt image — the
// loader rejects it rather than let forged hints reach the analysis.
var hintAllowed = func() (t [256]uint8) {
	for i := range t {
		op := isa.Op(i)
		if !op.Valid() {
			continue
		}
		f := op.Flags()
		switch {
		case f&isa.FlagStore != 0:
			t[i] = HintSilentStore
		case f&(isa.FlagHasDest|isa.FlagControl|isa.FlagLoad) == isa.FlagHasDest:
			if f&isa.FlagReadsRs1 != 0 {
				t[i] |= HintResultEqRs1
			}
			if f&isa.FlagReadsRs2 != 0 {
				t[i] |= HintResultEqRs2
			}
		}
	}
	return t
}()

// validIneffHint reports whether h is a hint byte the emulator could have
// produced for an op/rd pair: no bits beyond the opcode's allowance, and
// result-equality bits only on instructions with a real destination.
func validIneffHint(op byte, rd isa.Reg, h uint8) bool {
	if h&^hintAllowed[op] != 0 {
		return false
	}
	return h&(HintResultEqRs1|HintResultEqRs2) == 0 || rd != isa.RZero
}

var opInfo = func() (t [256]uint8) {
	for i := range t {
		op := isa.Op(i)
		if !op.Valid() {
			continue
		}
		b := uint8(opInfoValid)
		if op.IsMem() {
			b |= opInfoMem
		}
		if op.IsLoad() {
			b |= opInfoLoad
		}
		t[i] = b | uint8(op.MemWidth())<<4
	}
	return t
}()

// SWAR mask for word-at-a-time register validation: a register byte is
// valid iff it carries no bit outside NumRegs-1 (NumRegs is a power of
// two — enforced at compile time below).
const regHighMask = (0xFF &^ (isa.NumRegs - 1)) * 0x0101010101010101

var _ = [1]struct{}{}[isa.NumRegs&(isa.NumRegs-1)] // NumRegs must be a power of two

// validateRegs checks the three register columns against NumRegs, eight
// records per step; a failing word falls back to a scalar scan to
// attribute the exact record.
func validateRegs(rdb, rs1b, rs2b []byte, base, cn int) error {
	i := 0
	for ; i+8 <= cn; i += 8 {
		w := binary.LittleEndian.Uint64(rdb[i:]) |
			binary.LittleEndian.Uint64(rs1b[i:]) |
			binary.LittleEndian.Uint64(rs2b[i:])
		if w&regHighMask != 0 {
			break
		}
	}
	for ; i < cn; i++ {
		if rdb[i]|rs1b[i]|rs2b[i] >= isa.NumRegs {
			return fmt.Errorf("trace: record %d: register out of range", base+i)
		}
	}
	return nil
}

// decodeSection fills an empty chunk from one version-3 columnar section
// whose first record is trace sequence number base, making each column at
// its decoded length. Every field is validated: opcodes, registers, taken
// flags, each NextPC but the last equal to the next record's PC,
// producer links strictly preceding their consumer, load producer lists
// bounded by the access width and distinct, and the section consumed
// exactly. The byte-sized columns are validated by word-at-a-time scans
// and then copied whole.
func (c *Chunk) decodeSection(b []byte, base, cn int) error {
	// Section size was validated >= cn*hotColumnBytes by the caller.
	pcb := b[:4*cn]
	opb := b[4*cn : 5*cn]
	rdb := b[5*cn : 6*cn]
	rs1b := b[6*cn : 7*cn]
	rs2b := b[7*cn : 8*cn]
	takenb := b[8*cn : 9*cn]
	nextb := b[9*cn : 13*cn]
	src1b := b[13*cn : 17*cn]
	src2b := b[17*cn : 21*cn]
	ineffb := b[21*cn : 22*cn]
	rest := b[22*cn:]

	c.PC = make([]int32, cn)
	c.Op = make([]isa.Op, cn)
	c.Rd = make([]isa.Reg, cn)
	c.Rs1 = make([]isa.Reg, cn)
	c.Rs2 = make([]isa.Reg, cn)
	c.Taken = make([]bool, cn)
	c.Src1 = make([]int32, cn)
	c.Src2 = make([]int32, cn)
	c.MemIdx = make([]int16, cn)
	c.Ineff = make([]uint8, cn)

	memCnt := 0
	for i := 0; i < cn; i++ {
		inf := opInfo[opb[i]]
		if inf&opInfoValid == 0 {
			return fmt.Errorf("trace: record %d: invalid opcode %d", base+i, opb[i])
		}
		if inf&opInfoMem != 0 {
			c.MemIdx[i] = int16(memCnt)
			memCnt++
		} else {
			c.MemIdx[i] = -1
		}
	}
	if err := validateRegs(rdb, rs1b, rs2b, base, cn); err != nil {
		return err
	}
	if i := lebytes.FirstNonBool(takenb); i >= 0 {
		return fmt.Errorf("trace: record %d: invalid taken flag %d", base+i, takenb[i])
	}
	for i, h := range ineffb {
		if h != 0 && !validIneffHint(opb[i], isa.Reg(rdb[i]), h) {
			return fmt.Errorf("trace: record %d: invalid ineffectuality hint %#x for %v",
				base+i, h, isa.Op(opb[i]))
		}
	}
	copy(lebytes.U8(c.Op), opb)
	copy(lebytes.U8(c.Rd), rdb)
	copy(lebytes.U8(c.Rs1), rs1b)
	copy(lebytes.U8(c.Rs2), rs2b)
	copy(lebytes.Bool(c.Taken), takenb) // bytes proved 0/1 above
	lebytes.GetI32s(c.PC, pcb)
	for i, pc := range c.PC[1:] {
		if next := int32(binary.LittleEndian.Uint32(nextb[4*i:])); next != pc {
			return fmt.Errorf("trace: record %d: next PC %d, but record %d has PC %d", base+i, next, base+i+1, pc)
		}
	}
	c.lastNext = int32(binary.LittleEndian.Uint32(nextb[4*cn-4:]))
	lebytes.GetI32s(c.Src1, src1b)
	lebytes.GetI32s(c.Src2, src2b)
	copy(c.Ineff, ineffb)
	for i, v := range c.Src1[:cn] {
		if v != NoProducer && (v < 0 || v >= int32(base+i)) {
			return fmt.Errorf("trace: record %d: src1 producer %d out of range", base+i, v)
		}
	}
	for i, v := range c.Src2[:cn] {
		if v != NoProducer && (v < 0 || v >= int32(base+i)) {
			return fmt.Errorf("trace: record %d: src2 producer %d out of range", base+i, v)
		}
	}

	if len(rest) < 8*memCnt {
		return fmt.Errorf("trace: chunk at %d: truncated address column", base)
	}
	addrb := rest[:8*memCnt]
	prod := rest[8*memCnt:]
	c.Addr = make([]uint64, memCnt)
	c.srcOff = make([]uint16, memCnt)
	c.srcLen = make([]uint8, memCnt)
	lebytes.GetU64s(c.Addr, addrb)
	// One pass over the memory records decodes each load's producer list,
	// bounded by the opcode's access width.
	mi := 0
	for i := 0; i < cn; i++ {
		if c.MemIdx[i] < 0 {
			continue
		}
		inf := opInfo[opb[i]]
		width := inf >> 4
		if inf&opInfoLoad != 0 {
			if len(prod) < 1 {
				return fmt.Errorf("trace: record %d: producer count: unexpected EOF", base+i)
			}
			cnt := int(prod[0])
			prod = prod[1:]
			if cnt > MaxMemProducers || cnt > int(width) {
				return fmt.Errorf("trace: record %d: %d producers exceeds width-%d load",
					base+i, cnt, width)
			}
			if len(prod) < 4*cnt {
				return fmt.Errorf("trace: record %d: truncated producer list", base+i)
			}
			start := len(c.memSrcs)
			for k := 0; k < cnt; k++ {
				p := int32(binary.LittleEndian.Uint32(prod[k*4:]))
				if p < 0 || p >= int32(base+i) {
					return fmt.Errorf("trace: record %d: load producer %d out of range", base+i, p)
				}
				for _, prev := range c.memSrcs[start:] {
					if prev == p {
						return fmt.Errorf("trace: record %d: duplicate load producer %d", base+i, p)
					}
				}
				c.memSrcs = append(c.memSrcs, p)
			}
			prod = prod[4*cnt:]
			c.srcOff[mi] = uint16(start)
			c.srcLen[mi] = uint8(cnt)
		}
		mi++
	}
	if len(prod) != 0 {
		return fmt.Errorf("trace: chunk at %d: %d trailing bytes in section", base, len(prod))
	}
	return nil
}

package trace_test

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sampleTrace returns a small unlinked trace of a committed path. Records
// 0 and 1 carry ineffectuality hints so every round-trip test proves the
// hint column survives the wire format.
func sampleTrace() *trace.Trace {
	return trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.ADDI, Rd: 1, NextPC: 1, Ineff: trace.HintResultEqRs1},
		{PC: 1, Op: isa.SD, Rs1: 1, Rs2: 1, Addr: 0x1234, Width: 8, NextPC: 2, Ineff: trace.HintSilentStore},
		{PC: 2, Op: isa.LD, Rd: 2, Rs1: 1, Addr: 0x1234, Width: 8, NextPC: 3},
		{PC: 3, Op: isa.BNE, Rs1: 2, Rs2: 0, Taken: true, NextPC: 4},
		{PC: 4, Op: isa.HALT, NextPC: 4},
	})
}

// brokenPathImages returns two images whose NextPC column breaks the
// committed path, which the loader must reject: in one, record 1 of the
// sample names a next PC other than record 2's; in the other, the last
// record of a two-chunk trace's first chunk names a next PC other than
// the second chunk's first PC.
func brokenPathImages(t testing.TB) (inChunk, atBoundary []byte) {
	t.Helper()
	// The sample's NextPC column starts 9 bytes per record into its one
	// section, after the header (12) and the size table (4).
	inChunk = linkedImage(t)
	binary.LittleEndian.PutUint32(inChunk[12+4+9*5+4:], 1)

	const cs = trace.ChunkSize
	recs := make([]trace.Record, cs+1)
	for i := range recs {
		recs[i] = trace.Record{PC: int32(i % 50), Op: isa.ADDI, Rd: 1, NextPC: int32((i + 1) % 50)}
	}
	tr := trace.FromRecords(recs)
	link(t, tr)
	var buf bytes.Buffer
	if err := tr.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	atBoundary = buf.Bytes()
	binary.LittleEndian.PutUint32(atBoundary[12+2*4+9*cs+4*(cs-1):], 7)
	return inChunk, atBoundary
}

// TestLoadRejectsBrokenPath requires the loader to reject a NextPC that is
// not the next record's PC, inside a chunk and across a chunk boundary,
// and to load both images once the column is repaired.
func TestLoadRejectsBrokenPath(t *testing.T) {
	inChunk, atBoundary := brokenPathImages(t)
	for name, b := range map[string][]byte{"in chunk": inChunk, "at boundary": atBoundary} {
		if _, err := trace.LoadBytes(b, 0); err == nil || !strings.Contains(err.Error(), "next PC") {
			t.Errorf("%s: error %v, want a next-PC mismatch", name, err)
		}
	}
	binary.LittleEndian.PutUint32(inChunk[12+4+9*5+4:], 2)
	const cs = trace.ChunkSize
	binary.LittleEndian.PutUint32(atBoundary[12+2*4+9*cs+4*(cs-1):], cs%50)
	for name, b := range map[string][]byte{"in chunk": inChunk, "at boundary": atBoundary} {
		if _, err := trace.LoadBytes(b, 0); err != nil {
			t.Errorf("%s: repaired image rejected: %v", name, err)
		}
	}
}

// linkedImage returns the linked sample trace's serialized image.
func linkedImage(t testing.TB) []byte {
	t.Helper()
	tr := sampleTrace()
	link(t, tr)
	var buf bytes.Buffer
	if err := tr.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoChunkTrace emulates gzip for a linked trace that spans two chunks.
func twoChunkTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := p.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	orig, _, _, err := emu.CollectAnalyzed(prog, trace.ChunkSize+300)
	if err != nil {
		t.Fatal(err)
	}
	if orig.NumChunks() != 2 {
		t.Fatalf("trace has %d chunks, want 2", orig.NumChunks())
	}
	return orig
}

// TestSaveLoadRoundTrip round-trips an emulated trace that spans two
// chunks, so the size table and per-chunk sections are exercised beyond
// the single-chunk sample.
func TestSaveLoadRoundTrip(t *testing.T) {
	orig := twoChunkTrace(t)
	var buf bytes.Buffer
	if err := orig.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.LoadBytes(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Records(), orig.Records()) {
		t.Fatal("records differ after a round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := trace.LoadBytes([]byte("not a trace file"), 0); err == nil {
		t.Error("garbage accepted")
	}
	// Correct magic, wrong version.
	b := linkedImage(t)
	b[4] = 99
	if _, err := trace.LoadBytes(b, 0); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated section.
	if _, err := trace.LoadBytes(linkedImage(t)[:20], 0); err == nil {
		t.Error("truncated file accepted")
	}
	// Invalid opcode: the Op column follows the 4-byte PC column of the
	// one section, after the header (12) and the size table (4).
	b = linkedImage(t)
	b[12+4+4*5] = 0xee
	if _, err := trace.LoadBytes(b, 0); err == nil {
		t.Error("invalid opcode accepted")
	}
}

// TestLoadRejectsRetiredVersions pins that images of the retired formats
// fail cleanly as unsupported. The version-1 image is a fuzzer-found
// crasher of the old row-record decoder, kept byte for byte.
func TestLoadRejectsRetiredVersions(t *testing.T) {
	v1 := []byte("cctd\x01\x00\x00\x00\x05\x00\x00\x000000 00000000000000000\x00\x000000 00000000000000000\x00\x000000 00000000000000000\x00\x000000 00000000000000000\x00\x000000 00000000000000000\x00\x00")
	v2 := linkedImage(t)
	v2[4] = 2
	for want, b := range map[string][]byte{"unsupported version 1": v1, "unsupported version 2": v2} {
		if _, err := trace.LoadBytes(b, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v, want %q", err, want)
		}
	}
}

func TestSaveEmptyTrace(t *testing.T) {
	empty := &trace.Trace{}
	link(t, empty)
	var buf bytes.Buffer
	if err := empty.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.LoadBytes(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("loaded %d records from empty trace", back.Len())
	}
}

func TestLoadLimitRejectsOversizedHeader(t *testing.T) {
	b := linkedImage(t)
	if _, err := trace.LoadBytes(b, 3); err == nil {
		t.Error("header count above limit accepted")
	}
	if _, err := trace.LoadBytes(b, 5); err != nil {
		t.Errorf("count at limit rejected: %v", err)
	}
	// A huge claimed count must fail fast on the header, not by attempting
	// the allocation.
	binary.LittleEndian.PutUint32(b[8:], 0xffffffff)
	if _, err := trace.LoadBytes(b, 0); err == nil {
		t.Error("4-billion-record header accepted")
	}
}

// TestLoadRejectsInvalidIneffHint checks that the decoder validates the
// hint column against what the emulator can actually produce: hint bits
// the opcode cannot carry, and undefined bits, are corruption.
func TestLoadRejectsInvalidIneffHint(t *testing.T) {
	// The Ineff column sits after Src2, 21 bytes per record into the
	// section.
	const ineffOff = 12 + 4 + 21*5
	mutate := func(name string, f func(b []byte)) {
		b := linkedImage(t)
		f(b)
		if _, err := trace.LoadBytes(b, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Record 0 is an ADDI: a silent-store hint is impossible there.
	mutate("silent-store hint on ALU op", func(b []byte) { b[ineffOff] = trace.HintSilentStore })
	mutate("undefined hint bits", func(b []byte) { b[ineffOff] = 0x80 })
	// Record 1 is a store: result-equality hints are impossible there.
	mutate("result-eq hint on store", func(b []byte) { b[ineffOff+1] = trace.HintResultEqRs1 })
}

func TestLoadRejectsTrailingGarbage(t *testing.T) {
	b := append(linkedImage(t), 0)
	if _, err := trace.LoadBytes(b, 0); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// loadFlipped flips one bit of image b, loads it and flips the bit back.
// The damaged load must fail cleanly or return want records — never
// panic — and must not write b.
func loadFlipped(t *testing.T, b []byte, i, bit, want int) {
	t.Helper()
	b[i] ^= 1 << bit
	defer func() { b[i] ^= 1 << bit }()
	orig := bytes.Clone(b)
	tr, err := trace.LoadBytes(b, 0)
	if err == nil && tr.Len() != want {
		t.Errorf("byte %d bit %d: damaged load returned %d records, want %d", i, bit, tr.Len(), want)
	}
	if !bytes.Equal(b, orig) {
		t.Fatalf("byte %d bit %d: LoadBytes wrote its input", i, bit)
	}
}

// TestLoadUnderCorruptionInjection flips every bit of the sample image,
// one at a time.
func TestLoadUnderCorruptionInjection(t *testing.T) {
	b := linkedImage(t)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			loadFlipped(t, b, i, bit, 5)
		}
	}
}

func TestSaveLinkedRoundTrip(t *testing.T) {
	orig := sampleTrace()
	link(t, orig)
	var buf bytes.Buffer
	if err := orig.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), orig.LinkedSize(); got != want {
		t.Errorf("SaveLinked wrote %d bytes, LinkedSize says %d", got, want)
	}
	back, err := trace.LoadBytes(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Linked {
		t.Error("loaded linked trace not marked linked")
	}
	// Records() carries Src1/Src2/MemSrcs, so DeepEqual covers the links
	// the format restored without a link pass.
	if got, want := back.Records(), orig.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestSaveLinkedMatchesRelink requires the restored links to agree, record
// for record, with re-deriving them from the loaded records.
func TestSaveLinkedMatchesRelink(t *testing.T) {
	back, err := trace.LoadBytes(linkedImage(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	restored := back.Records()
	link(t, back)
	if !reflect.DeepEqual(back.Records(), restored) {
		t.Fatal("restored links disagree with relinking")
	}
}

func TestSaveLinkedRequiresLink(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().SaveLinked(&buf); err == nil {
		t.Error("SaveLinked accepted an unlinked trace")
	}
}

// linkedSample returns the serialized linked sample trace plus the
// offsets of two of its columnar sections: the Src1 column and the
// load-producer stream. The sample fits one chunk: header (12), a
// one-entry size table (4), then the section — 13 bytes of fixed columns
// per record before Src1, 22 in total, then the address side table (two
// memory records).
func linkedSample(t testing.TB) (b []byte, src1Off, prodOff int) {
	t.Helper()
	const n, sec = 5, 12 + 4
	return linkedImage(t), sec + 13*n, sec + 22*n + 2*8
}

func TestLoadRejectsCorruptLinks(t *testing.T) {
	base, src1Off, prodOff := linkedSample(t)
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(bytes.Clone(base))
		if _, err := trace.LoadBytes(b, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Record 0 has no earlier instruction, so any non-NoProducer Src1 is
	// out of range.
	mutate("src producer not before consumer", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[src1Off:], 3)
		return b
	})
	// The sample's only load (record 2) stores one producer; count 9
	// exceeds both MaxMemProducers and the 8-byte access width.
	mutate("producer count over width", func(b []byte) []byte {
		b[prodOff] = 9
		return b
	})
	// Load producer pointing at the load itself (not strictly earlier).
	mutate("load producer not before load", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[prodOff+1:], 2)
		return b
	})
	mutate("truncated section", func(b []byte) []byte {
		return b[:src1Off+4]
	})
	mutate("undersized size-table entry", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:], 1)
		return b
	})
	mutate("trailing garbage after links", func(b []byte) []byte {
		return append(b, 0)
	})
}

// TestLinkedLoadUnderCorruptionInjection flips seeded random bits of a
// two-chunk image, whose sections decode in parallel on multi-core
// hosts: every bit of the header and size table, then bits anywhere.
func TestLinkedLoadUnderCorruptionInjection(t *testing.T) {
	tr := twoChunkTrace(t)
	var buf bytes.Buffer
	if err := tr.SaveLinked(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for i := 0; i < 12+4*2; i++ {
		for bit := 0; bit < 8; bit++ {
			loadFlipped(t, b, i, bit, tr.Len())
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for k := 0; k < 200; k++ {
		loadFlipped(t, b, rng.IntN(len(b)), rng.IntN(8), tr.Len())
	}
}

package trace_test

import (
	"testing"

	"repro/internal/deadness"
	"repro/internal/isa"
	"repro/internal/trace"
)

// link runs the fused link+analyze pass over tr, the program's only
// def-use linker, and fails the test on a malformed trace.
func link(t testing.TB, tr *trace.Trace) {
	t.Helper()
	if _, err := deadness.LinkAndAnalyze(tr); err != nil {
		t.Fatal(err)
	}
}

func TestLinkRegisterProducers(t *testing.T) {
	tr := trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.ADDI, Rd: 1},                // 0: r1 = ...
		{PC: 1, Op: isa.ADDI, Rd: 2},                // 1: r2 = ...
		{PC: 2, Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2}, // 2: r3 = r1+r2
		{PC: 3, Op: isa.ADD, Rd: 1, Rs1: 3, Rs2: 0}, // 3: r1 = r3 (+r0)
		{PC: 4, Op: isa.BEQ, Rs1: 1, Rs2: 3},        // 4: reads r1, r3
	})
	link(t, tr)
	r := tr.Records()
	if r[2].Src1 != 0 || r[2].Src2 != 1 {
		t.Errorf("add producers = %d,%d; want 0,1", r[2].Src1, r[2].Src2)
	}
	if r[3].Src1 != 2 {
		t.Errorf("r3 producer = %d, want 2", r[3].Src1)
	}
	if r[3].Src2 != trace.NoProducer {
		t.Errorf("r0 should have no producer, got %d", r[3].Src2)
	}
	if r[4].Src1 != 3 || r[4].Src2 != 2 {
		t.Errorf("branch producers = %d,%d; want 3,2", r[4].Src1, r[4].Src2)
	}
}

func TestLinkInitialValuesHaveNoProducer(t *testing.T) {
	tr := trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.ADD, Rd: 3, Rs1: 5, Rs2: 6},
	})
	link(t, tr)
	if r := tr.At(0); r.Src1 != trace.NoProducer || r.Src2 != trace.NoProducer {
		t.Errorf("initial regs have producers: %+v", r)
	}
}

func TestLinkMemoryProducers(t *testing.T) {
	tr := trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.SD, Rs1: 1, Rs2: 2, Addr: 0x100, Width: 8}, // 0
		{PC: 1, Op: isa.SW, Rs1: 1, Rs2: 2, Addr: 0x104, Width: 4}, // 1: overwrites high half
		{PC: 2, Op: isa.LD, Rd: 3, Rs1: 1, Addr: 0x100, Width: 8},  // 2: reads both stores
		{PC: 3, Op: isa.LW, Rd: 4, Rs1: 1, Addr: 0x104, Width: 4},  // 3: reads store 1 only
		{PC: 4, Op: isa.LB, Rd: 5, Rs1: 1, Addr: 0x200, Width: 1},  // 4: untouched memory
	})
	link(t, tr)
	ld := tr.At(2)
	if ld.NumMemSrcs != 2 {
		t.Fatalf("ld producers = %v, want 2", ld.MemProducers())
	}
	got := map[int32]bool{}
	for _, s := range ld.MemProducers() {
		got[s] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("ld producers = %v, want {0,1}", ld.MemProducers())
	}
	lw := tr.At(3)
	if lw.NumMemSrcs != 1 || lw.MemSrcs[0] != 1 {
		t.Errorf("lw producers = %v, want {1}", lw.MemProducers())
	}
	if r := tr.At(4); r.NumMemSrcs != 0 {
		t.Errorf("untouched load has producers: %v", r.MemProducers())
	}
}

// TestPushedRecordReadsOpcodeWidth pins that a trace stores no access
// width: whatever width a record is pushed with, it reads back with its
// opcode's width (0 for a non-memory record), and the linker uses that
// width, so the 8-byte load below reads both 4-byte stores.
func TestPushedRecordReadsOpcodeWidth(t *testing.T) {
	tr := trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.SW, Rs1: 1, Rs2: 2, Addr: 0x100, Width: 8},
		{PC: 1, Op: isa.SW, Rs1: 1, Rs2: 2, Addr: 0x104, Width: 1},
		{PC: 2, Op: isa.LD, Rd: 3, Rs1: 1, Addr: 0x100, Width: 4},
		{PC: 3, Op: isa.ADDI, Rd: 4, Rs1: 3, Width: 2},
	})
	link(t, tr)
	for seq, want := range []uint8{4, 4, 8, 0} {
		if got := tr.At(seq).Width; got != want {
			t.Errorf("At(%d).Width = %d, want %d", seq, got, want)
		}
		if got := tr.Ref(seq).Width(); got != want {
			t.Errorf("Ref(%d).Width() = %d, want %d", seq, got, want)
		}
	}
	if ld := tr.At(2); ld.NumMemSrcs != 2 || ld.MemSrcs[0] != 0 || ld.MemSrcs[1] != 1 {
		t.Errorf("load producers = %v, want [0 1]", ld.MemProducers())
	}
}

// TestNextPCIsTheNextRecordsPC pins that a trace stores only each chunk's
// last NextPC: every other record reads back the next record's PC, across
// a chunk boundary too, and AppendRange and Clone carry the last one.
func TestNextPCIsTheNextRecordsPC(t *testing.T) {
	const n = trace.ChunkSize + 3
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{PC: int32(i * 7 % 101), Op: isa.ADDI, Rd: 1}
	}
	for i := 0; i+1 < n; i++ {
		recs[i].NextPC = recs[i+1].PC
	}
	recs[n-1].NextPC = 99
	tr := trace.FromRecords(recs)
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		off  int
	}{{"pushed", tr, 0}, {"clone", tr.Clone(), 0}, {"range", sub(tr, trace.ChunkSize-2, n), trace.ChunkSize - 2}} {
		for seq := 0; seq < c.tr.Len(); seq++ {
			src := c.off + seq
			want := int32(99)
			if src+1 < n {
				want = recs[src+1].PC
			}
			if got := c.tr.At(seq).NextPC; got != want {
				t.Fatalf("%s: At(%d).NextPC = %d, want %d", c.name, seq, got, want)
			}
			if got := c.tr.Ref(seq).NextPC(); got != want {
				t.Fatalf("%s: Ref(%d).NextPC() = %d, want %d", c.name, seq, got, want)
			}
		}
	}
	// A window that ends inside a chunk ends at the next record's PC.
	if got, want := sub(tr, 3, 9).At(5).NextPC, recs[9].PC; got != want {
		t.Errorf("window's last NextPC = %d, want %d", got, want)
	}
}

// sub returns records [start, end) of tr as a new trace.
func sub(tr *trace.Trace, start, end int) *trace.Trace {
	out := &trace.Trace{}
	out.AppendRange(tr, start, end)
	return out
}

func TestLinkIdempotent(t *testing.T) {
	tr := trace.FromRecords([]trace.Record{
		{PC: 0, Op: isa.ADDI, Rd: 1},
		{PC: 1, Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1},
	})
	link(t, tr)
	first := tr.At(1)
	link(t, tr)
	if got := tr.At(1); got != first {
		t.Errorf("second link changed record: %+v vs %+v", got, first)
	}
	if !tr.Linked {
		t.Error("Linked flag not set")
	}
}

func TestHasResult(t *testing.T) {
	tests := []struct {
		rec  trace.Record
		want bool
	}{
		{trace.Record{Op: isa.ADD, Rd: 1}, true},
		{trace.Record{Op: isa.ADD, Rd: 0}, false},
		{trace.Record{Op: isa.SD}, false},
		{trace.Record{Op: isa.BEQ}, false},
		{trace.Record{Op: isa.LD, Rd: 5}, true},
		{trace.Record{Op: isa.JAL, Rd: 31}, true},
		{trace.Record{Op: isa.OUT, Rs1: 2}, false},
	}
	for _, tt := range tests {
		if got := tt.rec.HasResult(); got != tt.want {
			t.Errorf("%v HasResult = %v, want %v", tt.rec.Op, got, tt.want)
		}
	}
}

func TestAppendResetsLinked(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Record{Op: isa.ADDI, Rd: 1})
	link(t, tr)
	tr.Append(trace.Record{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1})
	if tr.Linked {
		t.Error("Append should clear Linked")
	}
}

func TestAddMemSrcDedupAndOverflow(t *testing.T) {
	var r trace.Record
	for i := 0; i < 12; i++ {
		r.AddMemSrc(int32(i % 10)) // 10 distinct, but capacity is 8
	}
	if r.NumMemSrcs != trace.MaxMemProducers {
		t.Errorf("NumMemSrcs = %d, want %d", r.NumMemSrcs, trace.MaxMemProducers)
	}
	r = trace.Record{}
	r.AddMemSrc(5)
	r.AddMemSrc(5)
	if r.NumMemSrcs != 1 {
		t.Errorf("dedup failed: %v", r.MemProducers())
	}
	r.AddMemSrc(trace.NoProducer)
	if r.NumMemSrcs != 1 {
		t.Error("NoProducer recorded")
	}
}

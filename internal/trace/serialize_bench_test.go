package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// benchTrace synthesizes a linked n-record trace with the op mix that
// matters to the serializer: register writers, stores, loads (producer
// lists), and branches. The records form a committed path (each NextPC
// the next record's PC), which the loader checks.
func benchTrace(b *testing.B, n int) *trace.Trace {
	b.Helper()
	recs := make([]trace.Record, n)
	for i := range recs {
		pc, next := int32(i%1024), int32((i+1)%1024)
		switch i % 5 {
		case 0, 1:
			recs[i] = trace.Record{PC: pc, Op: isa.ADDI, Rd: isa.Reg(1 + i%8), Rs1: isa.Reg(i % 4), NextPC: next}
		case 2:
			recs[i] = trace.Record{PC: pc, Op: isa.SD, Rs1: isa.Reg(1 + i%8), Rs2: isa.Reg(1 + (i+1)%8),
				Addr: uint64(i % 4096 * 8), Width: 8, NextPC: next}
		case 3:
			recs[i] = trace.Record{PC: pc, Op: isa.LD, Rd: isa.Reg(1 + i%8), Rs1: isa.Reg(i % 4),
				Addr: uint64(i % 4096 * 8), Width: 8, NextPC: next}
		case 4:
			recs[i] = trace.Record{PC: pc, Op: isa.BNE, Rs1: isa.Reg(1 + i%8), Taken: i%3 == 0, NextPC: next}
		}
	}
	t := trace.FromRecords(recs)
	link(b, t)
	return t
}

// BenchmarkLoadBytes measures the in-memory decode path the persistent
// artifact tier's warm start rides: the linked columnar restore.
func BenchmarkLoadBytes(b *testing.B) {
	tr := benchTrace(b, 256<<10)
	var buf bytes.Buffer
	if err := tr.SaveLinked(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("linked", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.LoadBytes(buf.Bytes(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

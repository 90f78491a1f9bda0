package trace_test

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// refWriterMap is the obviously-correct reference: one map entry per byte.
type refWriterMap map[uint64]int32

func (m refWriterMap) get(addr uint64) int32 {
	if w, ok := m[addr]; ok {
		return w
	}
	return trace.NoProducer
}

func (m refWriterMap) set(addr uint64, width int, seq int32) {
	for b := uint64(0); b < uint64(width); b++ {
		m[addr+b] = seq
	}
}

// memOp is one randomized store or load for the property tests.
type memOp struct {
	addr  uint64
	width int
	store bool
}

// randomOps generates stores and loads of width 1/2/4/8 at arbitrary
// (frequently unaligned, frequently overlapping) addresses, concentrated
// in a small window that straddles a page boundary so page-crossing
// accesses and partial overwrites of word-tracked spans both occur.
func randomOps(rng *rand.Rand, n int) []memOp {
	base := uint64(trace.WPageSize - 64) // straddles the first page boundary
	ops := make([]memOp, n)
	for i := range ops {
		ops[i] = memOp{
			addr:  base + uint64(rng.Intn(160)),
			width: 1 << rng.Intn(4),
			store: rng.Intn(2) == 0,
		}
	}
	return ops
}

func TestWriterMapRandomizedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		wm := trace.NewWriterMap()
		ref := refWriterMap{}
		var prev []int32
		for seq, op := range randomOps(rng, 400) {
			if op.store {
				// Alternate the two store paths; they must agree.
				if seq%2 == 0 {
					wm.Claim(op.addr, op.width, int32(seq))
				} else {
					prevRef := map[int32]bool{}
					for b := uint64(0); b < uint64(op.width); b++ {
						if w := ref.get(op.addr + b); w != trace.NoProducer {
							prevRef[w] = true
						}
					}
					prev = wm.Overwrite(op.addr, op.width, int32(seq), prev[:0])
					seen := map[int32]bool{}
					for _, p := range prev {
						if !prevRef[p] {
							t.Fatalf("trial %d seq %d: Overwrite reported writer %d not in reference %v",
								trial, seq, p, prevRef)
						}
						seen[p] = true
					}
					if len(seen) != len(prevRef) {
						t.Fatalf("trial %d seq %d: Overwrite writers %v, reference %v",
							trial, seq, prev, prevRef)
					}
				}
				ref.set(op.addr, op.width, int32(seq))
				continue
			}
			r := &trace.Record{Addr: op.addr, Width: uint8(op.width)}
			wm.LoadProducers(r)
			var want trace.Record
			for b := uint64(0); b < uint64(op.width); b++ {
				want.AddMemSrc(ref.get(op.addr + b))
			}
			if r.NumMemSrcs != want.NumMemSrcs || r.MemSrcs != want.MemSrcs {
				t.Fatalf("trial %d seq %d: load at %#x/%d producers %v, want %v",
					trial, seq, op.addr, op.width, r.MemProducers(), want.MemProducers())
			}
			// Spot-check the byte view too.
			b := op.addr + uint64(rng.Intn(op.width))
			if got, want := wm.Get(b), ref.get(b); got != want {
				t.Fatalf("trial %d seq %d: Get(%#x) = %d, want %d", trial, seq, b, got, want)
			}
		}
	}
}

// opOfWidth returns the store/load opcode pair for a power-of-two width.
func opOfWidth(width int, store bool) isa.Op {
	stores := map[int]isa.Op{1: isa.SB, 2: isa.SH, 4: isa.SW, 8: isa.SD}
	loads := map[int]isa.Op{1: isa.LB, 2: isa.LH, 4: isa.LW, 8: isa.LD}
	if store {
		return stores[width]
	}
	return loads[width]
}

// TestLinkRandomizedUnalignedVsReference drives whole-trace linking over
// randomized unaligned/overlapping store-load programs and checks the
// word-granular writer map against per-byte reference linking.
func TestLinkRandomizedUnalignedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		ops := randomOps(rng, 300)
		tr := &trace.Trace{}
		for _, op := range ops {
			tr.Append(trace.Record{
				Op:    opOfWidth(op.width, op.store),
				Rd:    isa.Reg(1 + rng.Intn(4)),
				Addr:  op.addr,
				Width: uint8(op.width),
			})
		}
		link(t, tr)
		ref := refWriterMap{}
		recs := tr.Records()
		for seq := range recs {
			r := &recs[seq]
			if r.Op.IsLoad() {
				var want trace.Record
				for b := uint64(0); b < uint64(r.Width); b++ {
					want.AddMemSrc(ref.get(r.Addr + b))
				}
				if r.NumMemSrcs != want.NumMemSrcs || r.MemSrcs != want.MemSrcs {
					t.Fatalf("trial %d seq %d: load producers %v, want %v",
						trial, seq, r.MemProducers(), want.MemProducers())
				}
			}
			if r.Op.IsStore() {
				ref.set(r.Addr, int(r.Width), int32(seq))
			}
		}
	}
}

// Golden-equivalence guard for the columnar trace substrate. The chunked
// SoA store, the fused deadness.LinkAndAnalyze pass, and the streaming
// emulate→analyze overlap must all reproduce, byte for byte, what a plain
// slice-of-records implementation computes — producer links, every
// Analysis fact, and the pipeline statistics simulated on top — across the
// full workload suite, across chunk-boundary shapes, and across random
// traces. refLink/refAnalyze below are the seed's []Record implementation
// kept verbatim as the test-only independent oracle; the storage layout
// and the pass schedule change, never the results.
package repro_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refAnalysis mirrors deadness.Analysis for the reference path.
type refAnalysis struct {
	Kind       []deadness.Kind
	Candidate  []bool
	EverRead   []bool
	Resolve    []int32
	Ineff      []deadness.IneffKind
	Candidates int
}

// refIneff is the reference reimplementation of the ineffectuality
// classification policy: purely record-local, driven by the emulator's
// hint bits. Kept verbatim as the seed semantics — silent stores only on
// stores, result-equality only on non-control non-load register writers,
// and an equality bit counts only if the op actually reads that source.
func refIneff(r *trace.Record) deadness.IneffKind {
	h := r.Ineff
	if h == 0 {
		return deadness.IneffNone
	}
	if r.Op.IsStore() {
		if h&trace.HintSilentStore != 0 {
			return deadness.SilentStore
		}
		return deadness.IneffNone
	}
	if !r.Op.HasDest() || r.Op.IsControl() || r.Op.IsLoad() || r.Rd == isa.RZero {
		return deadness.IneffNone
	}
	eq := uint8(0)
	if r.Op.ReadsRs1() {
		eq |= trace.HintResultEqRs1
	}
	if r.Op.ReadsRs2() {
		eq |= trace.HintResultEqRs2
	}
	if h&eq != 0 {
		return deadness.TrivialOp
	}
	return deadness.IneffNone
}

// refLink fills producer fields exactly as the seed's slice-based linker
// did. The byte-granular WriterMap is shared with the real
// implementation; it is pinned separately by its own randomized reference
// test in internal/trace.
func refLink(recs []trace.Record) error {
	var regWriter [isa.NumRegs]int32
	for i := range regWriter {
		regWriter[i] = trace.NoProducer
	}
	memWriter := trace.NewWriterMap()

	for seq := range recs {
		r := &recs[seq]
		r.Src1, r.Src2 = trace.NoProducer, trace.NoProducer
		r.NumMemSrcs = 0
		if r.Op.ReadsRs1() && r.Rs1 != isa.RZero {
			r.Src1 = regWriter[r.Rs1]
		}
		if r.Op.ReadsRs2() && r.Rs2 != isa.RZero {
			r.Src2 = regWriter[r.Rs2]
		}
		if r.Op.IsMem() {
			if r.Width == 0 || int(r.Width) != r.Op.MemWidth() {
				return errors.New("ref: bad memory width")
			}
		}
		if r.Op.IsLoad() {
			memWriter.LoadProducers(r)
		}
		if r.Op.IsStore() {
			memWriter.Claim(r.Addr, int(r.Width), int32(seq))
		}
		if r.HasResult() {
			regWriter[r.Rd] = int32(seq)
		}
	}
	return nil
}

func refIsRoot(op isa.Op) bool {
	return op.IsControl() || op == isa.OUT || op == isa.HALT
}

// refAnalyze runs the seed's two-pass oracle over linked records.
func refAnalyze(recs []trace.Record) *refAnalysis {
	n := len(recs)
	a := &refAnalysis{
		Kind:      make([]deadness.Kind, n),
		Candidate: make([]bool, n),
		EverRead:  make([]bool, n),
		Resolve:   make([]int32, n),
		Ineff:     make([]deadness.IneffKind, n),
	}
	for i := range recs {
		a.Ineff[i] = refIneff(&recs[i])
	}
	for i := range a.Resolve {
		a.Resolve[i] = int32(n)
	}
	markRead := func(producer, reader int32) {
		if producer != trace.NoProducer {
			a.EverRead[producer] = true
			if a.Resolve[producer] == int32(n) {
				a.Resolve[producer] = reader
			}
		}
	}

	var lastRegWriter [isa.NumRegs]int32
	for i := range lastRegWriter {
		lastRegWriter[i] = trace.NoProducer
	}
	memWriter := trace.NewWriterMap()
	var prevBuf []int32
	for seq := range recs {
		r := &recs[seq]
		markRead(r.Src1, int32(seq))
		markRead(r.Src2, int32(seq))
		for _, s := range r.MemProducers() {
			markRead(s, int32(seq))
		}
		if r.Op.IsStore() {
			a.Candidate[seq] = true
			prevBuf = memWriter.Overwrite(r.Addr, int(r.Width), int32(seq), prevBuf[:0])
			for _, prev := range prevBuf {
				if a.Resolve[prev] == int32(n) {
					a.Resolve[prev] = int32(seq)
				}
			}
		}
		if r.HasResult() {
			if !r.Op.IsControl() {
				a.Candidate[seq] = true
			}
			if prev := lastRegWriter[r.Rd]; prev != trace.NoProducer && a.Resolve[prev] == int32(n) {
				a.Resolve[prev] = int32(seq)
			}
			lastRegWriter[r.Rd] = int32(seq)
		}
	}

	truncated := n > 0 && recs[n-1].Op != isa.HALT
	useful := make([]bool, n)
	mark := func(producer int32) {
		if producer != trace.NoProducer {
			useful[producer] = true
		}
	}
	for seq := n - 1; seq >= 0; seq-- {
		r := &recs[seq]
		unresolved := truncated && a.Candidate[seq] && a.Resolve[seq] == int32(n)
		if !useful[seq] && !refIsRoot(r.Op) && !unresolved {
			continue
		}
		useful[seq] = true
		mark(r.Src1)
		mark(r.Src2)
		for _, s := range r.MemProducers() {
			mark(s)
		}
	}
	for seq := range recs {
		switch {
		case !a.Candidate[seq], useful[seq]:
			a.Kind[seq] = deadness.Live
		case a.EverRead[seq]:
			a.Kind[seq] = deadness.Transitive
		default:
			a.Kind[seq] = deadness.FirstLevel
		}
		if a.Candidate[seq] {
			a.Candidates++
		}
	}
	return a
}

// checkAgainstRef requires a columnar trace + analysis to match the
// reference []Record implementation exactly.
func checkAgainstRef(t *testing.T, tag string, tr *trace.Trace, a *deadness.Analysis, linked []trace.Record, ref *refAnalysis) {
	t.Helper()
	if !tr.Linked {
		t.Errorf("%s: trace not marked linked", tag)
	}
	got := tr.Records()
	if len(got) != len(linked) {
		t.Fatalf("%s: records differ in length: %d vs %d", tag, len(got), len(linked))
	}
	for seq := range linked {
		if got[seq] != linked[seq] {
			t.Fatalf("%s: seq %d: record %+v, reference %+v", tag, seq, got[seq], linked[seq])
		}
	}
	kind, cand, read, ineff := factColumns(a)
	if !reflect.DeepEqual(kind, ref.Kind) {
		t.Errorf("%s: Kind differs", tag)
	}
	if !reflect.DeepEqual(cand, ref.Candidate) {
		t.Errorf("%s: Candidate differs", tag)
	}
	if !reflect.DeepEqual(read, ref.EverRead) {
		t.Errorf("%s: EverRead differs", tag)
	}
	if !reflect.DeepEqual(a.Resolve, ref.Resolve) {
		t.Errorf("%s: Resolve differs", tag)
	}
	if !reflect.DeepEqual(ineff, ref.Ineff) {
		t.Errorf("%s: Ineff differs", tag)
	}
	// The reverse pass marks useful records in bit 7 and must clear every
	// mark it sets.
	for seq, f := range a.Facts {
		if f&(1<<7) != 0 {
			t.Fatalf("%s: seq %d: fact %#x keeps the usefulness mark", tag, seq, uint8(f))
		}
	}
	if a.Candidates() != ref.Candidates {
		t.Errorf("%s: Candidates() = %d, reference %d", tag, a.Candidates(), ref.Candidates)
	}
}

// factColumns unpacks an analysis's Fact column into the reference's
// four columns.
func factColumns(a *deadness.Analysis) (kind []deadness.Kind, cand, read []bool, ineff []deadness.IneffKind) {
	n := len(a.Facts)
	kind, cand, read, ineff = make([]deadness.Kind, n), make([]bool, n), make([]bool, n), make([]deadness.IneffKind, n)
	for i, f := range a.Facts {
		kind[i], cand[i], read[i], ineff[i] = f.Kind(), f.Candidate(), f.EverRead(), f.Ineff()
	}
	return kind, cand, read, ineff
}

// collectRaw emulates a suite benchmark into both a columnar trace and a
// plain record slice from the same run (the sink copies before pushing).
func collectRaw(t *testing.T, prof workload.Profile, budget int) (*trace.Trace, []trace.Record) {
	t.Helper()
	prog, _, err := prof.Compile(nil)
	if err != nil {
		t.Fatalf("%s: compile: %v", prof.Name, err)
	}
	m := emu.New(prog)
	tr := &trace.Trace{}
	var recs []trace.Record
	sink := func(r *trace.Record) {
		recs = append(recs, *r)
		tr.Push(r)
	}
	if err := m.Run(budget, sink); err != nil && !errors.Is(err, emu.ErrBudget) {
		t.Fatalf("%s: run: %v", prof.Name, err)
	}
	return tr, recs
}

func TestColumnarAnalysisMatchesReference(t *testing.T) {
	const budget = 120_000
	for _, prof := range workload.Suite() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			raw, recs := collectRaw(t, prof, budget)
			if err := refLink(recs); err != nil {
				t.Fatal(err)
			}
			ref := refAnalyze(recs)

			// Fused single-pass path over the raw trace.
			fusedTr := raw.Clone()
			fused, err := deadness.LinkAndAnalyze(fusedTr)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, "fused", fusedTr, fused, recs, ref)

			// Streaming path: re-emulate with the analyzer running
			// concurrently one chunk behind the emulator.
			prog, _, err := prof.Compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			streamTr, stream, _, err := emu.CollectAnalyzed(prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, "stream", streamTr, stream, recs, ref)

			fs, ss := fused.Summarize(fusedTr, nil), stream.Summarize(streamTr, nil)
			if fs != ss {
				t.Errorf("summaries differ: fused %+v, stream %+v", fs, ss)
			}
		})
	}
}

// TestFusedPipelineStatsMatchStream simulates the timing model over the
// fused pass run after collection and over the pass streamed one chunk
// behind the emulator (with elimination and the trained predictor on, so
// the pending-update and eliminated-store machinery is exercised) and
// requires identical statistics.
func TestFusedPipelineStatsMatchStream(t *testing.T) {
	const budget = 60_000
	cfgElim := pipeline.ContendedConfig()
	cfgElim.Elim = true
	cfgOracle := pipeline.ContendedConfig()
	cfgOracle.Elim = true
	cfgOracle.OracleElim = true
	for _, prof := range workload.Suite()[:4] {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			fusedTr, _ := collectRaw(t, prof, budget)
			fused, err := deadness.LinkAndAnalyze(fusedTr)
			if err != nil {
				t.Fatal(err)
			}
			prog, _, err := prof.Compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			streamTr, stream, _, err := emu.CollectAnalyzed(prog, budget)
			if err != nil {
				t.Fatal(err)
			}

			for _, cfg := range []pipeline.Config{cfgElim, cfgOracle} {
				fs, err := pipeline.Run(fusedTr, fused, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := pipeline.Run(streamTr, stream, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fs, ss) {
					t.Errorf("stats differ:\nfused  %+v\nstream %+v", fs, ss)
				}
			}
		})
	}
}

// synthRecords builds a deterministic synthetic trace of exactly n records
// with register and memory producer chains that span chunk boundaries:
// ALU writes, stores and loads over a small address pool (including
// unaligned page-straddling accesses), and periodic branches. halted
// replaces the final record with HALT so both the truncated and the
// cleanly-terminated reverse passes are exercised. The records form a
// committed path: each NextPC is the next record's PC.
func synthRecords(n int, halted bool) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		pc := int32(i % 61)
		rd := isa.Reg(1 + i%7)
		rs1 := isa.Reg(1 + (i+3)%7)
		rs2 := isa.Reg(1 + (i+5)%7)
		switch i % 11 {
		case 0, 1, 2, 3:
			recs[i] = trace.Record{PC: pc, Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}
			// Sprinkle result-equality hints so the Ineff column is
			// non-vacuous across every chunk shape (only bits the
			// emulator could have produced for the op).
			if i%5 == 0 {
				recs[i].Ineff |= trace.HintResultEqRs1
			}
			if i%7 == 0 {
				recs[i].Ineff |= trace.HintResultEqRs2
			}
		case 4, 5:
			recs[i] = trace.Record{PC: pc, Op: isa.ADDI, Rd: rd, Rs1: rs1}
			if i%4 == 0 {
				recs[i].Ineff = trace.HintResultEqRs1
			}
		case 6:
			addr := uint64(0x1000 + 8*(i%97) + i%3) // sometimes unaligned
			recs[i] = trace.Record{PC: pc, Op: isa.SD, Rs1: rs1, Rs2: rs2, Addr: addr, Width: 8}
			if i%3 == 0 {
				recs[i].Ineff = trace.HintSilentStore
			}
		case 7:
			addr := uint64(0x1000 + 8*((i+55)%97) + i%3)
			recs[i] = trace.Record{PC: pc, Op: isa.LD, Rd: rd, Rs1: rs1, Addr: addr, Width: 8}
		case 8:
			addr := uint64(0x1000 + 4*(i%193))
			recs[i] = trace.Record{PC: pc, Op: isa.SW, Rs1: rs1, Rs2: rs2, Addr: addr, Width: 4}
			if i%2 == 0 {
				recs[i].Ineff = trace.HintSilentStore
			}
		case 9:
			addr := uint64(0x1000 + 4*((i+31)%193))
			recs[i] = trace.Record{PC: pc, Op: isa.LW, Rd: rd, Rs1: rs1, Addr: addr, Width: 4}
		case 10:
			recs[i] = trace.Record{PC: pc, Op: isa.BNE, Rs1: rs1, Rs2: rs2, Taken: i%2 == 0}
		}
		recs[i].NextPC = int32((i + 1) % 61)
	}
	if halted && n > 0 {
		pc := int32((n - 1) % 61)
		recs[n-1] = trace.Record{PC: pc, Op: isa.HALT, NextPC: pc}
	}
	return recs
}

// TestChunkBoundaryShapes pins the columnar paths against the reference on
// trace lengths straddling every chunk-layout edge: empty, single record,
// one partially-filled chunk, exactly one chunk, one-past-a-chunk, and a
// multi-chunk length that is not a multiple of the chunk size. Random
// well-formed traces with random hint bits, several cut on a chunk
// boundary, run through the same check.
func TestChunkBoundaryShapes(t *testing.T) {
	const cs = trace.ChunkSize
	lengths := []int{0, 1, 2, cs - 1, cs, cs + 1, 2*cs + cs/3}
	for _, n := range lengths {
		for _, halted := range []bool{false, true} {
			if n == 0 && halted {
				continue
			}
			name := "trunc"
			if halted {
				name = "halt"
			}
			t.Run(name+"/"+itoa(n), func(t *testing.T) {
				recs := synthRecords(n, halted)
				tr := trace.FromRecords(recs)
				if tr.Len() != n {
					t.Fatalf("Len = %d, want %d", tr.Len(), n)
				}
				wantChunks := 0
				if n > 0 {
					wantChunks = (n-1)/cs + 1
				}
				if tr.NumChunks() != wantChunks {
					t.Fatalf("NumChunks = %d, want %d", tr.NumChunks(), wantChunks)
				}

				ref := append([]trace.Record(nil), recs...)
				if err := refLink(ref); err != nil {
					t.Fatal(err)
				}
				refA := refAnalyze(ref)

				fused, err := deadness.LinkAndAnalyze(tr)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, "fused", tr, fused, ref, refA)
				checkResolveSentinel(t, fused, n)

				// Per-record accessors agree with the bulk view at every
				// boundary position.
				for _, seq := range []int{0, cs - 1, cs, n - 1} {
					if seq < 0 || seq >= n {
						continue
					}
					if got := tr.At(seq); got != ref[seq] {
						t.Errorf("At(%d) = %+v, want %+v", seq, got, ref[seq])
					}
					if tr.OpAt(seq) != ref[seq].Op || tr.PCAt(seq) != ref[seq].PC {
						t.Errorf("OpAt/PCAt(%d) mismatch", seq)
					}
				}
			})
		}
	}

	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	totalIneff := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(9200 + seed)))
		n := 1 + rng.Intn(3*cs)
		if rng.Intn(4) == 0 {
			n = cs * (1 + rng.Intn(3))
		}
		recs := randIneffRecords(rng, n)
		t.Run("rand/"+itoa(seed), func(t *testing.T) {
			ref := append([]trace.Record(nil), recs...)
			if err := refLink(ref); err != nil {
				t.Fatal(err)
			}
			refA := refAnalyze(ref)
			tr := trace.FromRecords(recs)
			a, err := deadness.LinkAndAnalyze(tr)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, "fused", tr, a, ref, refA)
			checkResolveSentinel(t, a, n)
		})
		for _, r := range recs {
			if refIneff(&r).Ineffectual() {
				totalIneff++
			}
		}
	}
	if totalIneff == 0 {
		t.Fatal("no ineffectual instances across all random traces; the random inputs are vacuous")
	}
}

// checkResolveSentinel pins the unresolved→n sentinel rewrite directly:
// the internal sentinel is 0, no real resolve point can be 0 (a resolver
// strictly follows its producer), and end-of-trace resolution must
// surface as exactly n.
func checkResolveSentinel(t *testing.T, a *deadness.Analysis, n int) {
	t.Helper()
	sawEnd := false
	for seq, r := range a.Resolve {
		if r == 0 {
			t.Fatalf("seq %d: unresolved sentinel leaked", seq)
		}
		if r == int32(n) {
			sawEnd = true
		}
	}
	if n > 0 && !sawEnd {
		t.Errorf("no record resolved at the trace end")
	}
}

// randIneffRecords generates a random well-formed record stream with
// random emulator-producible hint bits: ALU ops with result-equality
// hints, stores with silent-store hints, loads, and branches. The hints
// are adversarial inputs to classification, not required to be mutually
// consistent with the values — classification must be a pure function of
// the record either way. The PCs are random but form a committed path:
// each NextPC is the next record's PC.
func randIneffRecords(rng *rand.Rand, n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		pc := int32(rng.Intn(97))
		rd := isa.Reg(1 + rng.Intn(7))
		rs1 := isa.Reg(rng.Intn(8))
		rs2 := isa.Reg(rng.Intn(8))
		r := trace.Record{PC: pc, Rd: rd, Rs1: rs1, Rs2: rs2}
		switch rng.Intn(10) {
		case 0, 1, 2:
			r.Op = isa.ADD
			if rng.Intn(3) == 0 {
				r.Ineff |= trace.HintResultEqRs1
			}
			if rng.Intn(3) == 0 {
				r.Ineff |= trace.HintResultEqRs2
			}
		case 3, 4:
			r.Op = isa.ADDI
			if rng.Intn(3) == 0 {
				r.Ineff = trace.HintResultEqRs1
			}
		case 5, 6:
			r.Op = isa.SD
			r.Addr = uint64(0x1000 + 8*rng.Intn(101))
			r.Width = 8
			if rng.Intn(2) == 0 {
				r.Ineff = trace.HintSilentStore
			}
		case 7:
			r.Op = isa.SW
			r.Addr = uint64(0x1000 + 4*rng.Intn(211))
			r.Width = 4
			if rng.Intn(2) == 0 {
				r.Ineff = trace.HintSilentStore
			}
		case 8:
			r.Op = isa.LD
			r.Addr = uint64(0x1000 + 8*rng.Intn(101))
			r.Width = 8
		case 9:
			r.Op = isa.BNE
			r.Taken = rng.Intn(2) == 0
		}
		recs[i] = r
	}
	for i := 0; i+1 < n; i++ {
		recs[i].NextPC = recs[i+1].PC
	}
	return recs
}

// TestAppendRangeAcrossChunks pins windowed sub-trace extraction (the
// scratch-trace path used by the window-bias experiment) against slicing
// the reference records, for windows that straddle chunk boundaries.
func TestAppendRangeAcrossChunks(t *testing.T) {
	const cs = trace.ChunkSize
	n := 2*cs + 123
	recs := synthRecords(n, false)
	tr := trace.FromRecords(recs)
	if _, err := deadness.LinkAndAnalyze(tr); err != nil {
		t.Fatal(err)
	}

	sub := trace.NewWithCapacity(cs + 7)
	windows := [][2]int{{0, 5}, {cs - 3, cs + 4}, {cs, 2 * cs}, {2*cs - 1, n}, {0, n}}
	for _, w := range windows {
		start, end := w[0], w[1]
		sub.Reset()
		sub.AppendRange(tr, start, end)
		if sub.Len() != end-start {
			t.Fatalf("window [%d,%d): Len = %d", start, end, sub.Len())
		}
		ref := append([]trace.Record(nil), recs[start:end]...)
		if err := refLink(ref); err != nil {
			t.Fatal(err)
		}
		refA := refAnalyze(ref)
		a, err := deadness.LinkAndAnalyze(sub)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, "window", sub, a, ref, refA)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

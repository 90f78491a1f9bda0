// Package deadness implements the oracle dead-instruction analysis at the
// heart of the study: given a linked dynamic trace, it decides for every
// result-producing dynamic instruction whether its result was ever useful.
//
// Definitions follow Butts & Sohi (ASPLOS 2002):
//
//   - A dynamic instruction instance is *dead* if the value it produces (a
//     register write or the bytes of a store) is never used by any useful
//     instruction.
//   - *First-level dead*: the result is never read at all — the register is
//     overwritten (or the trace ends) before any read; a store's bytes are
//     overwritten or never loaded.
//   - *Transitively dead*: the result is read, but only by instructions
//     that are themselves dead.
//
// Usefulness roots are instructions with architectural side effects beyond
// producing a value: control transfers (branches and jumps, which steer the
// PC), OUT (program output), and HALT. Control instructions are never
// classified dead, conservatively, even when a JAL link value goes unread.
package deadness

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// Kind classifies one dynamic instruction instance.
type Kind uint8

const (
	// Live means the instruction's effect reached a usefulness root (or
	// the instruction produces no predictable result, e.g. a branch).
	Live Kind = iota
	// FirstLevel means the result was never read before being overwritten
	// or the trace ending.
	FirstLevel
	// Transitive means the result was read only by dead instructions.
	Transitive
)

func (k Kind) String() string {
	switch k {
	case Live:
		return "live"
	case FirstLevel:
		return "first-level"
	case Transitive:
		return "transitive"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Dead reports whether the kind is one of the dead classes.
func (k Kind) Dead() bool { return k != Live }

// IneffKind classifies one dynamic instruction instance along the
// *ineffectuality* axis, which generalizes deadness: a dead instruction's
// result is never useful, while an ineffectual one computes something the
// machine state already held. The two taxonomies are deliberately
// orthogonal columns — Kind is the paper's oracle, pinned bit-identical
// across refactors, and IneffKind is the generalized fact layered beside
// it (a record can be both, e.g. a dead silent store).
type IneffKind uint8

const (
	// IneffNone means the record is not provably ineffectual.
	IneffNone IneffKind = iota
	// SilentStore means the store wrote the value its bytes already held.
	SilentStore
	// TrivialOp means the result provably equals one of the instruction's
	// register source values (x+0, x|0, x&x, mov-self, mul-by-1/0).
	TrivialOp
)

func (k IneffKind) String() string {
	switch k {
	case IneffNone:
		return "none"
	case SilentStore:
		return "silent-store"
	case TrivialOp:
		return "trivial-op"
	}
	return fmt.Sprintf("ineff(%d)", uint8(k))
}

// Ineffectual reports whether the kind is one of the ineffectual classes.
func (k IneffKind) Ineffectual() bool { return k != IneffNone }

// classifyIneff is the one policy that turns the emulator's raw
// value-equality hints into an ineffectuality class. The forward walk
// (Stream.Chunk) calls it once per record, and its input is purely
// record-local (op flags, destination, hint bits), never cross-record
// state, so chunk and window boundaries cannot change a verdict.
func classifyIneff(f isa.OpFlags, rd isa.Reg, h uint8) IneffKind {
	if h == 0 {
		return IneffNone
	}
	if f&isa.FlagStore != 0 {
		if h&trace.HintSilentStore != 0 {
			return SilentStore
		}
		return IneffNone
	}
	if f&(isa.FlagHasDest|isa.FlagControl|isa.FlagLoad) != isa.FlagHasDest || rd == isa.RZero {
		return IneffNone
	}
	eq := uint8(0)
	if f&isa.FlagReadsRs1 != 0 {
		eq |= trace.HintResultEqRs1
	}
	if f&isa.FlagReadsRs2 != 0 {
		eq |= trace.HintResultEqRs2
	}
	if h&eq != 0 {
		return TrivialOp
	}
	return IneffNone
}

// unresolved is the internal Resolve sentinel used while the forward pass
// runs: a streaming analysis cannot pre-fill "trace length" because the
// length is unknown until the last chunk arrives. finish rewrites every
// surviving sentinel to int32(n), so exported Resolve values are exactly
// the documented ones.
//
// The sentinel is zero so freshly cleared (or freshly allocated) fact
// arrays are already in the initial state. Zero can never collide with a
// real resolve point: a producer is resolved by a strictly later record,
// so every recorded resolve sequence is at least 1.
const unresolved int32 = 0

// Fact packs one record's classification into a byte: Kind in bits 0-1,
// candidacy in bit 2, ever-read in bit 3 and IneffKind in bits 4-5. Bit 7
// is the reverse pass's transient usefulness mark, clear in every
// finished analysis, and bit 6 is unused.
type Fact uint8

const (
	factKind      Fact = 3
	factCandidate Fact = 1 << 2
	factEverRead  Fact = 1 << 3
	factIneffBits      = 4
	factIneff     Fact = 3 << factIneffBits
	factUseful    Fact = 1 << 7
)

// NewFact packs the four classifications of one record; k and ineff must
// be one of their declared values.
func NewFact(k Kind, candidate, everRead bool, ineff IneffKind) Fact {
	f := Fact(k) | Fact(ineff)<<factIneffBits
	if candidate {
		f |= factCandidate
	}
	if everRead {
		f |= factEverRead
	}
	return f
}

// Kind classifies the record's deadness.
func (f Fact) Kind() Kind { return Kind(f & factKind) }

// Candidate reports whether the record's deadness is defined at all:
// register writers that are not control instructions, plus stores.
func (f Fact) Candidate() bool { return f&factCandidate != 0 }

// EverRead reports whether the record's result was read by at least one
// later instruction (dead or alive).
func (f Fact) EverRead() bool { return f&factEverRead != 0 }

// Ineff classifies the record along the ineffectuality axis (silent
// stores, trivial ops), orthogonal to Kind.
func (f Fact) Ineff() IneffKind { return IneffKind(f & factIneff >> factIneffBits) }

// Analysis holds per-dynamic-instruction oracle results in two columns,
// 5 bytes per record. Index both by the dynamic sequence number.
type Analysis struct {
	// Facts holds each record's Kind, candidacy, ever-read mark and
	// IneffKind (see Fact).
	Facts []Fact
	// Resolve is the sequence number at which hardware could know the
	// outcome: the overwriting write (dead) or the first read (read).
	// Records resolved only by the end of the trace get the trace length.
	Resolve []int32

	// candidates is the number of candidate records, counted once during
	// classification.
	candidates int
}

// Candidates counts the records with defined deadness.
func (a *Analysis) Candidates() int { return a.candidates }

// Restore reconstructs a finished Analysis from its serialized columns (a
// persisted profile artifact) for a trace of n records. The columns are
// untrusted input, so the post-finish invariants are checked: equal
// lengths, valid kinds and ineffectuality kinds, no bit outside the
// layout, non-candidates classified Live and effectual, and every
// resolve point in [1, n] (the sentinel never survives finish). The
// candidate count is recomputed rather than trusted.
func Restore(n int, facts []Fact, resolve []int32) (*Analysis, error) {
	if len(facts) != n || len(resolve) != n {
		return nil, fmt.Errorf("deadness: restore: column lengths %d/%d, want %d", len(facts), len(resolve), n)
	}
	candidates := 0
	for i, f := range facts {
		switch {
		case f.Kind() > Transitive || f.Ineff() > TrivialOp || f&^(factKind|factCandidate|factEverRead|factIneff) != 0:
			return nil, fmt.Errorf("deadness: restore: record %d: invalid fact %#x", i, uint8(f))
		case !f.Candidate() && f.Kind() != Live:
			return nil, fmt.Errorf("deadness: restore: record %d: non-candidate classified %v", i, f.Kind())
		case !f.Candidate() && f.Ineff() != IneffNone:
			// Silent stores are stores and trivial ops are non-control
			// register writers; both are candidates by construction.
			return nil, fmt.Errorf("deadness: restore: record %d: non-candidate classified %v", i, f.Ineff())
		case resolve[i] < 1 || resolve[i] > int32(n):
			return nil, fmt.Errorf("deadness: restore: record %d: resolve point %d out of range", i, resolve[i])
		}
		if f.Candidate() {
			candidates++
		}
	}
	return &Analysis{Facts: facts, Resolve: resolve, candidates: candidates}, nil
}

// truncated reports whether the trace was cut off by an instruction
// budget rather than ending at HALT; the reverse pass keys the
// conservative unresolved-candidate root rule on it.
func truncated(t *trace.Trace) bool {
	n := t.Len()
	return n > 0 && t.OpAt(n-1) != isa.HALT
}

// Stream is the incremental fused link+analyze pass: feed it completed
// trace chunks in order (Chunk), then Finish. The forward deadness facts
// and the producer links are derived exactly as LinkAndAnalyze would —
// the stream just lets the analysis run one chunk behind the emulator
// (see emu.CollectAnalyzed) instead of after it.
type Stream struct {
	a         *Analysis
	regWriter [isa.NumRegs]int32
	memWriter *trace.WriterMap
	prevBuf   []int32
	n         int // records consumed so far
}

// NewStream starts a fused analysis pass. hint pre-sizes the two fact
// columns (pass the emulation budget or trace length; 0 is fine).
func NewStream(hint int) *Stream {
	s := &Stream{
		a: &Analysis{
			Facts:   make([]Fact, 0, hint),
			Resolve: make([]int32, 0, hint),
		},
		memWriter: trace.NewWriterMap(),
	}
	for i := range s.regWriter {
		s.regWriter[i] = trace.NoProducer
	}
	return s
}

// Chunk links and analyzes the next chunk of the trace. Chunks must
// arrive in trace order. The chunk's Src1/Src2 columns and load producer
// tables are (re)written from the walk's last-writer state: this is the
// program's only def-use linker.
func (s *Stream) Chunk(c *trace.Chunk) {
	a := s.a
	base := s.n
	cn := c.Len()
	end := base + cn
	if cap(a.Resolve) < end {
		// Grow both fact columns together, at least doubling and by no
		// less than four chunks: a streaming pass (final length unknown)
		// then reallocates O(log n) times with little discarded churn.
		// An exact NewStream hint never takes this branch.
		newCap := max(end, 2*cap(a.Resolve), 4*trace.ChunkSize)
		a.Facts = append(make([]Fact, 0, newCap), a.Facts...)
		a.Resolve = append(make([]int32, 0, newCap), a.Resolve...)
	}
	a.Facts = a.Facts[:end]
	a.Resolve = a.Resolve[:end]
	// The zero value of both columns is the initial state (Live,
	// non-candidate, unread, effectual, unresolved), so bulk clears
	// initialize the chunk's records.
	clear(a.Facts[base:end])
	clear(a.Resolve[base:end])

	c.BeginLink()
	// Slice every column to the chunk length once so the loop body indexes
	// bounds-check-free, and hoist the fact columns out of the Analysis —
	// with the read marking inlined this keeps the per-record path branch
	// + load only (one Flags table hit replaces the predicate range chains).
	op, rd, rs1, rs2 := c.Op[:cn], c.Rd[:cn], c.Rs1[:cn], c.Rs2[:cn]
	memIdx := c.MemIdx[:cn]
	src1, src2 := c.Src1[:cn], c.Src2[:cn]
	hints := c.Ineff[:cn]
	resolve, facts := a.Resolve, a.Facts
	for i := 0; i < cn; i++ {
		seq := int32(base + i)
		f := op[i].Flags()
		if h := hints[i]; h != 0 {
			facts[seq] |= Fact(classifyIneff(f, rd[i], h)) << factIneffBits
		}
		s1, s2 := trace.NoProducer, trace.NoProducer
		if f&isa.FlagReadsRs1 != 0 && rs1[i] != isa.RZero {
			if s1 = s.regWriter[rs1[i]]; s1 != trace.NoProducer {
				facts[s1] |= factEverRead
				if resolve[s1] == unresolved {
					resolve[s1] = seq
				}
			}
		}
		if f&isa.FlagReadsRs2 != 0 && rs2[i] != isa.RZero {
			if s2 = s.regWriter[rs2[i]]; s2 != trace.NoProducer {
				facts[s2] |= factEverRead
				if resolve[s2] == unresolved {
					resolve[s2] = seq
				}
			}
		}
		src1[i], src2[i] = s1, s2
		if mi := memIdx[i]; mi >= 0 {
			if f&isa.FlagLoad != 0 {
				for _, p := range c.LinkLoadProducers(i, s.memWriter) {
					if p != trace.NoProducer {
						facts[p] |= factEverRead
						if resolve[p] == unresolved {
							resolve[p] = seq
						}
					}
				}
			} else {
				facts[seq] |= factCandidate
				s.prevBuf = s.memWriter.Overwrite(c.Addr[mi], int(op[i].MemWidthFast()), seq, s.prevBuf[:0])
				for _, prev := range s.prevBuf {
					if resolve[prev] == unresolved {
						resolve[prev] = seq // overwrite resolves the old store
					}
				}
			}
		}
		if f&isa.FlagHasDest != 0 && rd[i] != isa.RZero {
			if f&isa.FlagControl == 0 {
				facts[seq] |= factCandidate
			}
			if prev := s.regWriter[rd[i]]; prev != trace.NoProducer && resolve[prev] == unresolved {
				resolve[prev] = seq // overwrite resolves the old value
			}
			s.regWriter[rd[i]] = seq
		}
	}
	s.n += cn
}

// Finish completes the pass over the fully collected trace (whose chunks
// must all have been fed through Chunk): it marks the trace linked and
// runs the reverse usefulness pass and classification. The stream must
// not be used afterwards.
func (s *Stream) Finish(t *trace.Trace) *Analysis {
	t.Linked = true
	return s.a.finish(t)
}

// LinkAndAnalyze links the trace and runs the oracle's forward pass in one
// fused walk over the records: the def-use links and the deadness facts
// (candidates, everRead, resolve points) share one last-writer state, so
// one walk derives both. Linking is idempotent, so re-running it over a
// linked trace rewrites the same producer columns. The error is always
// nil: a trace holds no access width that could disagree with its opcode,
// so every trace it can hold links.
func LinkAndAnalyze(t *trace.Trace) (*Analysis, error) {
	s := NewStream(t.Len())
	for ci := 0; ci < t.NumChunks(); ci++ {
		s.Chunk(t.Chunk(ci))
	}
	return s.Finish(t), nil
}

// finish runs the tail of the analysis over the forward facts: the
// reverse usefulness pass, the classification, and the candidate count.
// It also rewrites the internal unresolved sentinel to the documented
// "trace length" value.
func (a *Analysis) finish(t *trace.Trace) *Analysis {
	n := t.Len()
	// Reverse pass: propagate usefulness from roots to producers. When the
	// trace was truncated by an instruction budget rather than ending at
	// HALT, a value that never resolved (neither read nor overwritten)
	// might still be used beyond the horizon; hardware could never prove
	// it dead, so the oracle conservatively treats unresolved candidates
	// as useful roots.
	truncated := truncated(t)
	resolve, facts := a.Resolve, a.Facts
	candidates := 0
	// Classification fuses into the reverse pass: by the time the walk
	// reaches seq, every record that could mark it useful (all are later
	// in the trace) has been visited, so its factUseful bit is final and
	// the record can be classified, counted, unmarked, and sentinel-fixed
	// in place.
	for ci := t.NumChunks() - 1; ci >= 0; ci-- {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		cn := c.Len()
		op, src1, src2, memIdx := c.Op[:cn], c.Src1[:cn], c.Src2[:cn], c.MemIdx[:cn]
		for i := cn - 1; i >= 0; i-- {
			seq := base + i
			f := facts[seq]
			isCand := f&factCandidate != 0
			if isCand {
				candidates++
			}
			if f&factUseful == 0 && op[i].Flags()&isa.FlagRoot == 0 {
				// Unresolved-candidate check only on the cold path: most
				// records are neither useful yet nor roots.
				if !truncated || !isCand || resolve[seq] != unresolved {
					if resolve[seq] == unresolved {
						resolve[seq] = int32(n)
					}
					k := Live
					switch {
					case !isCand: // not useful either
					case f&factEverRead != 0:
						k = Transitive
					default:
						k = FirstLevel
					}
					facts[seq] = f&^factKind | Fact(k)
					continue
				}
			}
			if resolve[seq] == unresolved {
				resolve[seq] = int32(n)
			}
			facts[seq] = f &^ (factKind | factUseful) // Live
			if p := src1[i]; p != trace.NoProducer {
				facts[p] |= factUseful
			}
			if p := src2[i]; p != trace.NoProducer {
				facts[p] |= factUseful
			}
			if memIdx[i] >= 0 {
				for _, p := range c.MemProducers(i) {
					facts[p] |= factUseful
				}
			}
		}
	}
	a.candidates = candidates
	return a
}

// Summary aggregates an analysis over a whole trace.
type Summary struct {
	Total      int // dynamic instructions
	Candidates int // result-producing instructions
	Dead       int
	FirstLevel int
	Transitive int

	DeadALU    int // dead register-writing ALU results
	DeadLoads  int
	DeadStores int

	// Ineffectuality classes, orthogonal to the dead counts above: a
	// record can be both (e.g. a dead silent store), so these do not sum
	// with Dead.
	SilentStores int // stores that rewrote the bytes already in memory
	TrivialOps   int // results provably equal to a source value
	// Stores counts all dynamic stores, the denominator for the
	// silent-store rate.
	Stores int

	// ByProv attributes dynamic candidates and dead instances to the
	// compiler transformation that emitted the static instruction.
	ByProv [program.NumProvenances]ProvCount
}

// ProvCount is the per-provenance dynamic instance count.
type ProvCount struct {
	Dyn  int // candidate instances
	Dead int
	// Silent and Trivial are the provenance's ineffectual instances.
	Silent  int
	Trivial int
}

// DeadFraction is dead candidates over all dynamic instructions, the
// paper's headline "3 to 16%" metric.
func (s Summary) DeadFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Total)
}

// IneffFraction is ineffectual instances (silent stores plus trivial
// ops) over all dynamic instructions — the generalized counterpart of
// DeadFraction.
func (s Summary) IneffFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.SilentStores+s.TrivialOps) / float64(s.Total)
}

// Summarize aggregates the analysis. prog supplies provenance; it may be
// nil, in which case everything is attributed to ProvNormal.
func (a *Analysis) Summarize(t *trace.Trace, prog *program.Program) Summary {
	var s Summary
	s.Total = t.Len()
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		for i := 0; i < c.Len(); i++ {
			seq := base + i
			f := a.Facts[seq]
			if !f.Candidate() {
				continue
			}
			s.Candidates++
			if c.Op[i].IsStore() {
				s.Stores++
			}
			prov := program.ProvNormal
			if prog != nil {
				prov = prog.ProvenanceOf(int(c.PC[i]))
			}
			s.ByProv[prov].Dyn++
			switch f.Ineff() {
			case SilentStore:
				s.SilentStores++
				s.ByProv[prov].Silent++
			case TrivialOp:
				s.TrivialOps++
				s.ByProv[prov].Trivial++
			}
			if !f.Kind().Dead() {
				continue
			}
			s.Dead++
			s.ByProv[prov].Dead++
			switch {
			case f.Kind() == FirstLevel:
				s.FirstLevel++
			default:
				s.Transitive++
			}
			switch {
			case c.Op[i].IsLoad():
				s.DeadLoads++
			case c.Op[i].IsStore():
				s.DeadStores++
			default:
				s.DeadALU++
			}
		}
	}
	return s
}

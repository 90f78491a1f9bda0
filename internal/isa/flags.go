package isa

// OpFlags packs the per-opcode classification predicates into one word,
// so per-record hot loops (the deadness oracle's forward and reverse
// passes, rename and issue in the pipeline model) pay one table load and
// a bit test instead of a chain of range comparisons per predicate.
type OpFlags uint16

const (
	FlagReadsRs1 OpFlags = 1 << iota
	FlagReadsRs2
	FlagHasDest
	FlagControl
	FlagCondBranch
	FlagLoad
	FlagStore
	FlagMem
	// FlagRoot marks instructions with architectural side effects beyond
	// producing a value (control flow, OUT, HALT) — the usefulness roots
	// of the deadness analysis.
	FlagRoot
)

// Has reports whether every bit of mask is set.
func (f OpFlags) Has(mask OpFlags) bool { return f&mask == mask }

var opFlags [NumOps]OpFlags
var memWidths [NumOps]uint8

// The tables are derived from the predicate methods once at startup, so
// the range-based methods stay the single source of truth.
func init() {
	for i := 0; i < NumOps; i++ {
		o := Op(i)
		var f OpFlags
		if o.ReadsRs1() {
			f |= FlagReadsRs1
		}
		if o.ReadsRs2() {
			f |= FlagReadsRs2
		}
		if o.HasDest() {
			f |= FlagHasDest
		}
		if o.IsControl() {
			f |= FlagControl
		}
		if o.IsCondBranch() {
			f |= FlagCondBranch
		}
		if o.IsLoad() {
			f |= FlagLoad
		}
		if o.IsStore() {
			f |= FlagStore
		}
		if o.IsMem() {
			f |= FlagMem
		}
		if o.IsControl() || o == OUT || o == HALT {
			f |= FlagRoot
		}
		opFlags[i] = f
		memWidths[i] = uint8(o.MemWidth())
	}
}

// Flags returns the packed classification bits of o.
func (o Op) Flags() OpFlags { return opFlags[o] }

// MemWidthFast is the table-lookup form of MemWidth.
func (o Op) MemWidthFast() uint8 { return memWidths[o] }

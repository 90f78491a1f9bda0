package bpred

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Lookahead walks a committed trace and exposes, for any point in the
// stream, the *predicted* directions of upcoming conditional branches.
// This is the "future control flow information (i.e., branch predictions)"
// the paper's dead-instruction predictor keys on: in hardware the front end
// has already predicted those branches by the time an instruction renames.
//
// Branches are predicted exactly once, lazily and strictly in trace order,
// and the direction predictor is trained immediately with the actual
// outcome (the standard trace-driven "immediate update" idealization: a
// real front end would use speculatively-updated history repaired on
// mispredicts, which behaves the same on the correct path that a committed
// trace represents). Because every prediction is cached, the signature a
// consumer saw at rename and the direction the same branch was fetched
// with are always the same bit.
type Lookahead struct {
	dir   DirPredictor
	depth int

	// The conditional branches of the trace, extracted once into dense
	// parallel arrays (positions ascending): everything lookahead queries
	// touch, without walking the trace again.
	branchPos   []int
	branchPC    []int32
	branchTaken []bool
	preds       []bool // cached predictions for branchPos[:len(preds)]
	// cursor is the last answer of branchIdxAfter. Pipeline rename and
	// dip.Evaluate query in nondecreasing trace order, so the next answer
	// is found by stepping forward from it.
	cursor int

	// Branches and Mispredicts count predicted conditional branches.
	Branches    int
	Mispredicts int
}

// NewLookahead creates a lookahead of the given depth (1..16 bits of path
// signature) over a linked trace.
func NewLookahead(dir DirPredictor, t *trace.Trace, depth int) *Lookahead {
	if depth < 1 {
		depth = 1
	}
	if depth > 16 {
		depth = 16
	}
	l := &Lookahead{dir: dir, depth: depth}
	n := 0
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		for i := 0; i < c.Len(); i++ {
			if c.Op[i].IsCondBranch() {
				n++
			}
		}
	}
	l.branchPos = make([]int, 0, n)
	l.branchPC = make([]int32, 0, n)
	l.branchTaken = make([]bool, 0, n)
	l.preds = make([]bool, 0, n)
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		for i := 0; i < c.Len(); i++ {
			if c.Op[i].IsCondBranch() {
				l.branchPos = append(l.branchPos, base+i)
				l.branchPC = append(l.branchPC, c.PC[i])
				l.branchTaken = append(l.branchTaken, c.Taken[i])
			}
		}
	}
	return l
}

// ensure predicts branches in order through index idx (inclusive).
func (l *Lookahead) ensure(idx int) {
	for len(l.preds) <= idx && len(l.preds) < len(l.branchPos) {
		bi := len(l.preds)
		pc, taken := int(l.branchPC[bi]), l.branchTaken[bi]
		pred := l.dir.Predict(pc)
		l.Branches++
		if pred != taken {
			l.Mispredicts++
		}
		l.dir.Update(pc, taken)
		l.preds = append(l.preds, pred)
	}
}

// branchIdxAfter returns the index into branchPos of the first conditional
// branch strictly after trace position seq. Every branch before the cursor
// lies at or before the previous query's position, so a query that did not
// move backward scans forward from the cursor; only a backward query pays
// a binary search.
func (l *Lookahead) branchIdxAfter(seq int) int {
	i := l.cursor
	if i > 0 && l.branchPos[i-1] > seq {
		i = sort.SearchInts(l.branchPos, seq+1)
	} else {
		for i < len(l.branchPos) && l.branchPos[i] <= seq {
			i++
		}
	}
	l.cursor = i
	return i
}

// NotBranchError is the typed error for a lookahead query at a trace
// position that does not hold a conditional branch.
type NotBranchError struct {
	Pos int
}

func (e *NotBranchError) Error() string {
	return fmt.Sprintf("bpred: trace position %d is not a conditional branch", e.Pos)
}

// PredAt returns the predicted direction of the conditional branch at
// trace position pos. Querying a position that is not a conditional
// branch returns a *NotBranchError: callers index into traces they did
// not construct, so a misaligned position must be reportable, not fatal.
func (l *Lookahead) PredAt(pos int) (bool, error) {
	idx := sort.SearchInts(l.branchPos, pos)
	if idx >= len(l.branchPos) || l.branchPos[idx] != pos {
		return false, &NotBranchError{Pos: pos}
	}
	l.ensure(idx)
	return l.preds[idx], nil
}

// SigAfter returns the path signature at trace position seq: bit i is the
// predicted direction of the (i+1)-th conditional branch after seq. When
// fewer than depth branches remain, missing bits are zero.
func (l *Lookahead) SigAfter(seq int) uint16 {
	idx := l.branchIdxAfter(seq)
	l.ensure(idx + l.depth - 1)
	var sig uint16
	for i := 0; i < l.depth && idx+i < len(l.branchPos); i++ {
		if l.preds[idx+i] {
			sig |= 1 << i
		}
	}
	return sig
}

// ActualSigAfter returns the path signature at seq built from the
// branches' actual outcomes — the oracle upper bound of control-flow
// information.
func (l *Lookahead) ActualSigAfter(seq int) uint16 {
	idx := l.branchIdxAfter(seq)
	var sig uint16
	for i := 0; i < l.depth && idx+i < len(l.branchPos); i++ {
		if l.branchTaken[idx+i] {
			sig |= 1 << i
		}
	}
	return sig
}

// EnsureThrough predicts (and trains on) every conditional branch at trace
// position ≤ seq, so accuracy counters cover the walked region even when
// no signature was requested there.
func (l *Lookahead) EnsureThrough(seq int) {
	l.ensure(l.branchIdxAfter(seq) - 1)
}

// Accuracy returns the direction-prediction accuracy so far.
func (l *Lookahead) Accuracy() float64 {
	if l.Branches == 0 {
		return 0
	}
	return 1 - float64(l.Mispredicts)/float64(l.Branches)
}

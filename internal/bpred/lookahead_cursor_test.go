package bpred

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/emu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// refLookahead is the cursor-free reference: every query locates its
// branch with sort.SearchInts over a branch list built from per-record
// Ref reads, and predicts with its own direction predictor.
type refLookahead struct {
	dir                   DirPredictor
	depth                 int
	pos                   []int
	pc                    []int32
	taken                 []bool
	preds                 []bool
	branches, mispredicts int
}

func newRefLookahead(dir DirPredictor, t *trace.Trace, depth int) *refLookahead {
	r := &refLookahead{dir: dir, depth: depth}
	for seq := 0; seq < t.Len(); seq++ {
		if ref := t.Ref(seq); ref.Op().IsCondBranch() {
			r.pos = append(r.pos, seq)
			r.pc = append(r.pc, ref.PC())
			r.taken = append(r.taken, ref.Taken())
		}
	}
	return r
}

func (r *refLookahead) ensure(idx int) {
	for len(r.preds) <= idx && len(r.preds) < len(r.pos) {
		bi := len(r.preds)
		pred := r.dir.Predict(int(r.pc[bi]))
		r.branches++
		if pred != r.taken[bi] {
			r.mispredicts++
		}
		r.dir.Update(int(r.pc[bi]), r.taken[bi])
		r.preds = append(r.preds, pred)
	}
}

func (r *refLookahead) sig(seq int, actual bool) uint16 {
	idx := sort.SearchInts(r.pos, seq+1)
	if !actual {
		r.ensure(idx + r.depth - 1)
	}
	var sig uint16
	for i := 0; i < r.depth && idx+i < len(r.pos); i++ {
		bit := r.preds
		if actual {
			bit = r.taken
		}
		if bit[idx+i] {
			sig |= 1 << i
		}
	}
	return sig
}

// nextQuery walks mostly forward in short monotone runs (including
// repeats of the same position), with occasional backward jumps anywhere
// from -1 up, and occasional queries past the end of the trace.
func nextQuery(rng *rand.Rand, seq, n int) int {
	switch k := rng.Intn(100); {
	case k < 8:
		return rng.Intn(seq+2) - 1
	case k < 10:
		return n + rng.Intn(8)
	case k < 11:
		return -1
	}
	if seq >= n {
		return rng.Intn(n+1) - 1
	}
	return seq + rng.Intn(24)
}

// TestLookaheadCursorMatchesSearch drives the cursor with random query
// sequences over every suite trace and checks every answer and both
// counters against the binary-search reference after each query.
func TestLookaheadCursorMatchesSearch(t *testing.T) {
	for _, prof := range workload.Suite() {
		p, _, err := prof.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, _, err := emu.CollectAnalyzed(p, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.Len()
		for _, depth := range []int{1, 4, 16} {
			rng := rand.New(rand.NewSource(int64(depth)*1000 + int64(len(prof.Name))))
			l := NewLookahead(NewGshare(12, 10), tr, depth)
			ref := newRefLookahead(NewGshare(12, 10), tr, depth)
			seq := -1
			for q := 0; q < 4000; q++ {
				seq = nextQuery(rng, seq, n)
				op := rng.Intn(4)
				switch op {
				case 0:
					if got, want := l.SigAfter(seq), ref.sig(seq, false); got != want {
						t.Fatalf("%s depth %d query %d: SigAfter(%d) = %b, want %b",
							prof.Name, depth, q, seq, got, want)
					}
				case 1:
					if got, want := l.ActualSigAfter(seq), ref.sig(seq, true); got != want {
						t.Fatalf("%s depth %d query %d: ActualSigAfter(%d) = %b, want %b",
							prof.Name, depth, q, seq, got, want)
					}
				case 2:
					l.EnsureThrough(seq)
					ref.ensure(sort.SearchInts(ref.pos, seq+1) - 1)
				case 3:
					// PredAt interleaves with signature queries in the
					// pipeline (fetch runs ahead of rename).
					idx := sort.SearchInts(ref.pos, seq)
					if idx == len(ref.pos) {
						continue
					}
					got, err := l.PredAt(ref.pos[idx])
					if err != nil {
						t.Fatal(err)
					}
					ref.ensure(idx)
					if got != ref.preds[idx] {
						t.Fatalf("%s depth %d query %d: PredAt(%d) = %v, want %v",
							prof.Name, depth, q, ref.pos[idx], got, ref.preds[idx])
					}
				}
				if l.Branches != ref.branches || l.Mispredicts != ref.mispredicts {
					t.Fatalf("%s depth %d query %d (op %d at %d): branches/mispredicts %d/%d, want %d/%d",
						prof.Name, depth, q, op, seq, l.Branches, l.Mispredicts,
						ref.branches, ref.mispredicts)
				}
			}
		}
	}
}

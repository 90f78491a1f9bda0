package dip

import (
	"fmt"
	"sync"

	"repro/internal/bpred"
	"repro/internal/deadness"
	"repro/internal/trace"
)

// Result summarizes a trace-level evaluation of a dead-instruction
// predictor: how many dead instances it covered and how often a "dead"
// prediction was right. These are the paper's two headline predictor
// metrics (coverage >91%, accuracy 93% at <5 KB).
type Result struct {
	Name       string
	Candidates int // dynamic result-producing instances
	Dead       int // of which oracle-dead
	Predicted  int // predicted dead
	TruePos    int // predicted dead and oracle-dead
	StateBits  int
	// BranchAccuracy is the direction-predictor accuracy underlying the
	// path signatures.
	BranchAccuracy float64
}

// Coverage is the fraction of dead instances that were predicted dead.
func (r Result) Coverage() float64 {
	if r.Dead == 0 {
		return 0
	}
	return float64(r.TruePos) / float64(r.Dead)
}

// Accuracy is the fraction of dead predictions that were correct.
func (r Result) Accuracy() float64 {
	if r.Predicted == 0 {
		return 1 // no predictions, no mispredictions
	}
	return float64(r.TruePos) / float64(r.Predicted)
}

// FalsePositives is the number of useful instances predicted dead — each
// would cost a recovery in the elimination pipeline.
func (r Result) FalsePositives() int { return r.Predicted - r.TruePos }

func (r Result) String() string {
	return fmt.Sprintf("%s: cov=%.1f%% acc=%.1f%% (%d/%d dead, %d false+, %.2f KB)",
		r.Name, 100*r.Coverage(), 100*r.Accuracy(), r.TruePos, r.Dead,
		r.FalsePositives(), float64(r.StateBits)/8192)
}

// nilPend terminates a pending-update list.
const nilPend = int32(-1)

// evalScratch carries evaluate's working arrays between runs through a
// pool: the engine evaluates dozens of predictor configurations over the
// same budget, and recycling the arrays keeps each run's allocation cost
// near zero instead of O(candidates).
type evalScratch struct {
	pendHead []int32
	pendPC   []int32
	pendSig  []uint16
	pendDead []bool
	pendNext []int32
	scratch  []int32
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// evaluate runs the table predictor cfg over a linked, analyzed trace,
// reading path signatures from the trace's prediction column. An invalid
// predictor geometry returns a *ConfigError.
//
// The walk models the hardware timeline: a prediction for instance i uses
// the directions predicted for the branches after i; the predictor trains
// only when the instance's deadness *resolves* (its register is
// overwritten or read, its stored bytes are overwritten or loaded —
// deadness.Analysis.Resolve), not at prediction time. Predictions
// awaiting resolution live in intrusive lists headed by resolve point
// (parallel flat arrays indexed by a next pointer), not a map: the walk
// allocates a handful of slices total instead of one map entry per
// in-flight prediction.
func evaluate(t *trace.Trace, a *deadness.Analysis, cfg Config, preds *bpred.Predictions) (Result, error) {
	p, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: cfg.Name(), StateBits: cfg.StateBits()}

	n := t.Len()
	es := evalPool.Get().(*evalScratch)
	pendHead := es.pendHead
	if cap(pendHead) < n {
		pendHead = make([]int32, n)
	}
	pendHead = pendHead[:n]
	for i := range pendHead {
		pendHead[i] = nilPend
	}
	pendPC := es.pendPC[:0]
	pendSig := es.pendSig[:0]
	pendDead := es.pendDead[:0]
	pendNext := es.pendNext[:0]
	scratch := es.scratch
	// Replayed nodes go onto a free list threaded through pendNext, so the
	// flat arrays grow to the peak number of in-flight predictions (bounded
	// by the longest resolve distance), not one slot per candidate.
	freeHead := nilPend
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		for i := 0; i < c.Len(); i++ {
			seq := base + i
			// Outcomes that resolve here train the predictor first, in
			// prediction order (the intrusive list is LIFO, so replay it
			// reversed through a scratch buffer).
			if h := pendHead[seq]; h != nilPend {
				scratch = scratch[:0]
				for u := h; u != nilPend; u = pendNext[u] {
					scratch = append(scratch, u)
				}
				for k := len(scratch) - 1; k >= 0; k-- {
					u := scratch[k]
					p.Update(int(pendPC[u]), pendSig[u], pendDead[u])
				}
				for _, u := range scratch {
					pendNext[u] = freeHead
					freeHead = u
				}
			}

			f := a.Facts[seq]
			if !f.Candidate() {
				continue
			}
			sig := preds.SigAfter(seq, cfg.PathLen)
			pc := c.PC[i]
			dead := f.Kind().Dead()
			res.Candidates++
			if dead {
				res.Dead++
			}
			if p.Predict(int(pc), sig) {
				res.Predicted++
				if dead {
					res.TruePos++
				}
			}
			resolve := a.Resolve[seq]
			if int(resolve) >= n {
				// Resolves past the end of the trace; train immediately so
				// short traces still learn end-of-trace deadness.
				p.Update(int(pc), sig, dead)
			} else {
				var idx int32
				if freeHead != nilPend {
					idx = freeHead
					freeHead = pendNext[idx]
					pendPC[idx] = pc
					pendSig[idx] = sig
					pendDead[idx] = dead
					pendNext[idx] = pendHead[resolve]
				} else {
					idx = int32(len(pendPC))
					pendPC = append(pendPC, pc)
					pendSig = append(pendSig, sig)
					pendDead = append(pendDead, dead)
					pendNext = append(pendNext, pendHead[resolve])
				}
				pendHead[resolve] = idx
			}
		}
	}
	res.BranchAccuracy = preds.Accuracy()
	es.pendHead, es.pendPC, es.pendSig = pendHead, pendPC, pendSig
	es.pendDead, es.pendNext, es.scratch = pendDead, pendNext, scratch
	evalPool.Put(es)
	return res, nil
}

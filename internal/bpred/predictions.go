package bpred

import (
	"fmt"

	"repro/internal/trace"
)

// Predictions is the "future control flow information (i.e., branch
// predictions)" the paper's dead-instruction predictor keys on, for a
// whole trace: at every position, the directions the front end predicted
// for the next 16 conditional branches. In hardware those branches have
// been predicted by the time an instruction renames.
//
// Predict fills the column in one walk. Branches are predicted exactly
// once, in trace order, and the direction predictor is trained
// immediately with the actual outcome (the standard trace-driven
// "immediate update" idealization: a real front end would use
// speculatively-updated history repaired on mispredicts, which behaves
// the same on the correct path that a committed trace represents). So the
// signature a consumer reads at rename and the direction the same branch
// was fetched with are the same bit. A built column is never written
// again, so any number of simulations and evaluations may read one
// concurrently.
type Predictions struct {
	// Dir is the Name of the direction predictor that made the
	// predictions. Actual reports that the signatures hold the branches'
	// actual outcomes instead (the oracle upper bound of control-flow
	// information); the counts are still Dir's.
	Dir    string
	Actual bool
	// Branches and Mispredicts count the trace's conditional branches and
	// the ones Dir predicted wrong.
	Branches    int
	Mispredicts int
	// sig[seq+1] is the signature after trace position seq: bit i is the
	// direction of the (i+1)-th conditional branch after seq, and bits
	// past the last branch are zero. sig[0] is the signature before the
	// first record.
	sig []uint16
}

// Predict builds the prediction column of a linked or unlinked trace with
// dir, which it trains. With actual set, the signatures hold the actual
// outcomes.
func Predict(t *trace.Trace, dir DirPredictor, actual bool) *Predictions {
	p := &Predictions{Dir: dir.Name(), Actual: actual, sig: make([]uint16, t.Len()+1)}
	// Forward, in trace order: predict and train on each branch, and mark
	// its slot with 2|direction for the backward pass.
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		slot := p.sig[ci<<trace.ChunkBits+1:]
		for i, op := range c.Op {
			if !op.IsCondBranch() {
				continue
			}
			pc, taken := int(c.PC[i]), c.Taken[i]
			pred := dir.Predict(pc)
			dir.Update(pc, taken)
			p.Branches++
			if pred != taken {
				p.Mispredicts++
			}
			if actual {
				pred = taken
			}
			slot[i] = 2 | boolBit(pred)
		}
	}
	// Backward: each position's signature is the next one's, with the
	// branch between them shifted in as the nearest.
	var s uint16
	for k := len(p.sig) - 1; k > 0; k-- {
		mark := p.sig[k]
		p.sig[k] = s
		if mark != 0 {
			s = s<<1 | mark&1
		}
	}
	p.sig[0] = s
	return p
}

// SigAfter returns the path signature at trace position seq (-1 is before
// the first record) with depth bits, 0 to 16: bit i is the direction of
// the (i+1)-th conditional branch after seq.
func (p *Predictions) SigAfter(seq, depth int) uint16 {
	return p.sig[seq+1] & uint16(1<<depth-1)
}

// PredAt returns the direction of the conditional branch at trace
// position pos: the nearest branch after pos-1.
func (p *Predictions) PredAt(pos int) bool { return p.sig[pos]&1 != 0 }

// Accuracy returns the direction-prediction accuracy over the trace.
func (p *Predictions) Accuracy() float64 {
	if p.Branches == 0 {
		return 0
	}
	return 1 - float64(p.Mispredicts)/float64(p.Branches)
}

// Check reports an error unless p holds the predicted directions of the
// direction predictor named dir (its Name) over a trace of t's length. A
// consumer configured with one predictor must never read another's.
func (p *Predictions) Check(t *trace.Trace, dir string) error {
	if p.Dir != dir || p.Actual {
		return fmt.Errorf("bpred: predictions by %s (actual outcomes %t), want %s", p.Dir, p.Actual, dir)
	}
	if len(p.sig) != t.Len()+1 {
		return fmt.Errorf("bpred: predictions cover %d records, trace has %d", len(p.sig)-1, t.Len())
	}
	return nil
}

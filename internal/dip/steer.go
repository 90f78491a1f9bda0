package dip

import (
	"repro/internal/bpred"
	"repro/internal/deadness"
	"repro/internal/trace"
)

// evalSteer is the FlavorSteer evaluation: a per-PC binary predictor over
// *ineffectuality* outcomes, reusing the bpred direction-predictor
// machinery with "taken" meaning "this instance was ineffectual". It is
// the trace-level model of the two-cluster pipeline's steering stage: an
// instruction predicted ineffectual is routed to the narrow degraded
// cluster, so coverage measures how much ineffectual work gets steered
// away and accuracy how much effectual work is wrongly degraded.
//
// Unlike deadness — which resolves only when the value is overwritten or
// read — ineffectuality is observable the moment the instruction commits
// (the store wrote the bytes it replaced; the result equalled an input),
// so the predictor trains immediately, with no resolve-time pending list.
// It reads no branch predictions.
func evalSteer(s Spec, t *trace.Trace, a *deadness.Analysis, _ func() *bpred.Predictions) (Result, error) {
	dir, err := bpred.NewDirByName(s.Dir)
	if err != nil {
		return Result{}, err
	}
	res := Result{Name: "steer+" + dir.Name(), StateBits: dir.StateBits()}
	correct := 0
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		for i := 0; i < c.Len(); i++ {
			seq := base + i
			f := a.Facts[seq]
			if !f.Candidate() {
				continue
			}
			ineff := f.Ineff().Ineffectual()
			pc := int(c.PC[i])
			pred := dir.Predict(pc)
			dir.Update(pc, ineff)
			res.Candidates++
			if ineff {
				res.Dead++
			}
			if pred {
				res.Predicted++
				if ineff {
					res.TruePos++
				}
			}
			if pred == ineff {
				correct++
			}
		}
	}
	// For the steering flavor the underlying predictor *is* the table, so
	// BranchAccuracy reports its overall (both-class) hit rate.
	if res.Candidates > 0 {
		res.BranchAccuracy = float64(correct) / float64(res.Candidates)
	}
	return res, nil
}

package dip

import (
	"repro/internal/deadness"
	"repro/internal/trace"
)

// StaticHintResult evaluates the *compiler-hint* baseline: a profiling run
// observes each static instruction's deadness ratio over a training prefix
// of the trace; instructions whose ratio exceeds the threshold are then
// marked dead unconditionally for the rest of the run — the strongest
// prediction a static (per-instruction, path-oblivious) hint can make,
// idealized with unbounded profile storage.
//
// The evaluation region is the post-training suffix, so the comparison
// against the dynamic predictor is a warmed-predictor comparison. The
// baseline's accuracy is structurally capped by each marked instruction's
// deadness ratio: a static hint cannot distinguish the useful instances of
// a partially dead instruction, which is exactly the gap the paper's
// future-control-flow predictor closes.
func StaticHintResult(t *trace.Trace, a *deadness.Analysis, trainFrac, threshold float64) Result {
	n := t.Len()
	split := int(float64(n) * trainFrac)
	if split < 1 {
		split = 1
	}
	if split > n {
		split = n
	}

	type ratio struct{ dead, dyn int }
	profile := make(map[int32]*ratio)
	for seq := 0; seq < split; seq++ {
		f := a.Facts[seq]
		if !f.Candidate() {
			continue
		}
		pc := t.PCAt(seq)
		r := profile[pc]
		if r == nil {
			r = &ratio{}
			profile[pc] = r
		}
		r.dyn++
		if f.Kind().Dead() {
			r.dead++
		}
	}
	hint := make(map[int32]bool, len(profile))
	for pc, r := range profile {
		if r.dyn > 0 && float64(r.dead)/float64(r.dyn) >= threshold {
			hint[pc] = true
		}
	}

	res := Result{Name: "static-hint"}
	for seq := split; seq < n; seq++ {
		f := a.Facts[seq]
		if !f.Candidate() {
			continue
		}
		res.Candidates++
		dead := f.Kind().Dead()
		if dead {
			res.Dead++
		}
		if hint[t.PCAt(seq)] {
			res.Predicted++
			if dead {
				res.TruePos++
			}
		}
	}
	return res
}

package deadness

import "sort"

// DistanceStats summarizes how far (in dynamic instructions) outcomes
// resolve after the producing instruction: the overwrite or read that
// proves a value dead or useful. Short distances mean the hardware learns
// outcomes while the producer's context is still warm — the property that
// makes commit-time predictor training timely.
type DistanceStats struct {
	Count int
	Mean  float64
	P50   int
	P90   int
	P99   int
	// WithinROB is the fraction of outcomes resolving within a 128-entry
	// reorder buffer's worth of instructions.
	WithinROB float64
	// Unresolved counts instances whose outcome never resolved inside the
	// trace (excluded from the distribution above).
	Unresolved int
}

// ResolveDistances computes the resolve-distance distribution over the
// analysis's candidates; deadOnly restricts it to oracle-dead instances.
func (a *Analysis) ResolveDistances(deadOnly bool) DistanceStats {
	const robSize = 128
	n := len(a.Facts)
	var dists []int
	var st DistanceStats
	within := 0
	var sum float64
	for seq := 0; seq < n; seq++ {
		f := a.Facts[seq]
		if !f.Candidate() {
			continue
		}
		if deadOnly && !f.Kind().Dead() {
			continue
		}
		r := int(a.Resolve[seq])
		if r >= n {
			st.Unresolved++
			continue
		}
		d := r - seq
		dists = append(dists, d)
		sum += float64(d)
		if d <= robSize {
			within++
		}
	}
	st.Count = len(dists)
	if st.Count == 0 {
		return st
	}
	sort.Ints(dists)
	st.Mean = sum / float64(st.Count)
	st.P50 = dists[st.Count/2]
	st.P90 = dists[st.Count*9/10]
	st.P99 = dists[st.Count*99/100]
	st.WithinROB = float64(within) / float64(st.Count)
	return st
}

package main

import (
	"math"
	"sort"
)

// median returns the middle of values, or the mean of the two middles
// (Python's statistics.median); 0 for no values.
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(values, n=4) (method "exclusive"), which
// is how the acceptance spread of a benchmark metric is computed. A single
// value is its own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles as a share of the median:
// the run-to-run spread a bound is compared against.
func relIQR(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs(q3-q1) / math.Abs(med)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

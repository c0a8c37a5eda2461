package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is
// not modified. An empty input yields NaN so a missing sample can never
// masquerade as a measurement.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := min(max(p, 0), 100) / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method): the
// driver judges run-to-run spread with that function, so compare mode
// must agree with it digit for digit. Fewer than two values have no
// spread; both quartiles are then the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4 on the 1-based sorted list, clamped.
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the steadiness figure the driver compares against a metric's bound.
func spreadShare(vals []float64) float64 {
	m := median(vals)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs(q3-q1) / math.Abs(m)
}

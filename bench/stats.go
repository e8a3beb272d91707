package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(xs, n=4), so
// a spread computed here matches one computed from the same values there.
// With fewer than two values every quartile is the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// Verdicts of an A/B comparison of one (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares the baseline runs a with the candidate runs b of one
// metric, where a[i] and b[i] are a pair measured back to back. It applies
// the rule of the choosing-metrics guide: a gain needs the candidate to win
// at least nine tenths of the pairs (ties count for neither side) and the
// medians to differ by more than the baseline's interquartile range. The
// tolerance is the bound's share of the baseline median, or floor (in the
// metric's unit) where that is larger. A metric whose baseline interquartile
// range exceeds the tolerance is unresolved unless every candidate run reads
// better than every baseline run. Otherwise a median worse by more than the
// tolerance is a regression.
func verdict(a, b []float64, lowerIsBetter bool, bound, floor float64) (v string, winFrac float64) {
	better := func(x, y float64) bool { // x reads better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n > 0 {
		winFrac = float64(wins) / float64(n)
	}
	aq1, am, aq3 := quartiles(a)
	bm := median(b)
	if winFrac >= 0.9 && better(bm, am) && math.Abs(bm-am) > aq3-aq1 {
		return improved, winFrac
	}
	tol := max(bound*math.Abs(am), floor)
	if aq3-aq1 > tol && !allBetter(b, a, better) {
		return unresolved, winFrac
	}
	worse := bm - am
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > tol {
		return regressed, winFrac
	}
	return unchanged, winFrac
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

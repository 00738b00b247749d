package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), so spreads printed
// here match a Python reading of the same samples. With fewer than two
// samples both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the most extreme whole percentile of xs on its worse side
// that still has at least ten samples beyond it, and its value: the high
// side when lower is better, the low side when higher is. ok is false
// below eleven samples.
func tail(xs []float64, better string) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	i := int(math.Ceil(float64(pct)/100*float64(n))) - 1
	s := sorted(xs)
	if better == "higher" {
		return 100 - pct, s[n-1-i], true
	}
	return pct, s[i], true
}

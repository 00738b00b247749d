package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Merge combines another summary into s (parallel Welford merge).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.mean += d * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for empty
// input or q outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile fraction %v outside [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int64 { return h.total }

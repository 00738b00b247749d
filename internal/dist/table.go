package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// CDFTable is a precompiled piecewise-linear CDF — the "Generate CDF
// tables" output of the GDS and the generator's hottest sampling path.
// Sampling is inverse-transform: one uniform draw, a guide-table lookup
// and a short forward scan over Ps (Chen & Asau 1974), one linear
// interpolation. Zero heap allocations per call.
//
// Ps[0] may exceed 0 (an atom at Xs[0]) and Ps[len-1] may fall short of 1
// (the residual tail mass collapses onto the last point); both arise when
// tabulating analytic distributions over a finite window and are accounted
// for by Mean and Sample.
//
// Xs and Ps are read-only after NewCDFTable: the guide is built from Ps.
type CDFTable struct {
	// Xs are the strictly increasing sample points.
	Xs []float64
	// Ps are the CDF values at Xs, non-decreasing in [0, 1].
	Ps   []float64
	mean float64
	// guide[k] is the smallest i with int(Ps[i]*buckets) >= k, for k in
	// [0, K] with K = buckets: the first index a draw in bucket k can
	// land on. The K+1st entry keeps int(u*K) == K in range; a u below 1
	// never rounds up to it, so it is a guard of one int32.
	guide   []int32
	buckets float64
}

// NewCDFTable builds a table from CDF values ps at points xs.
func NewCDFTable(xs, ps []float64) (*CDFTable, error) {
	if len(xs) < 2 || len(xs) != len(ps) {
		return nil, fmt.Errorf("%w: CDF table needs matching xs/ps with at least 2 points", ErrDist)
	}
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ps[i]) {
			return nil, fmt.Errorf("%w: CDF table point %d (%v, %v)", ErrDist, i, xs[i], ps[i])
		}
		if i > 0 && xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("%w: CDF table xs not strictly increasing at %d (%v after %v)", ErrDist, i, xs[i], xs[i-1])
		}
		if i > 0 && ps[i] < ps[i-1] {
			return nil, fmt.Errorf("%w: CDF table ps decreasing at %d (%v after %v)", ErrDist, i, ps[i], ps[i-1])
		}
	}
	if ps[0] < 0 || ps[len(ps)-1] > 1+1e-9 {
		return nil, fmt.Errorf("%w: CDF table ps range [%v, %v] outside [0, 1]", ErrDist, ps[0], ps[len(ps)-1])
	}
	if ps[len(ps)-1] <= 0 {
		return nil, fmt.Errorf("%w: CDF table carries no mass", ErrDist)
	}
	t := &CDFTable{Xs: append([]float64(nil), xs...), Ps: append([]float64(nil), ps...)}
	// Points up to 1+1e-9 are accepted as rounding; every one of them
	// clamps, so Ps stays non-decreasing and inside [0, 1].
	for i, p := range t.Ps {
		if p > 1 {
			t.Ps[i] = 1
		}
	}
	// Mean of the piecewise-linear law: each segment contributes
	// (dP) * midpoint; boundary atoms contribute their point values.
	m := t.Ps[0] * t.Xs[0]
	for i := 1; i < len(t.Xs); i++ {
		m += (t.Ps[i] - t.Ps[i-1]) * (t.Xs[i] + t.Xs[i-1]) / 2
	}
	m += (1 - t.Ps[len(t.Ps)-1]) * t.Xs[len(t.Xs)-1]
	t.mean = m
	t.buildGuide()
	return t, nil
}

// buildGuide fills the guide table: K = max(1, len(Ps)/4) buckets, so a
// 512-point table carries 129 entries (about 0.5 KB) and a draw scans
// about (n+K)/K ≈ 5 points on average, whatever the table's shape.
func (t *CDFTable) buildGuide() {
	ps := t.Ps
	k := max(1, len(ps)/4)
	t.buckets = float64(k)
	t.guide = make([]int32, k+1)
	i, last := 0, len(ps)-1
	for b := range t.guide {
		for i < last && int(ps[i]*t.buckets) < b {
			i++
		}
		t.guide[b] = int32(i)
	}
}

// FromPDFTable builds a CDF table from tabulated density values by
// trapezoidal integration, normalizing total mass to 1.
func FromPDFTable(xs, ps []float64) (*CDFTable, error) {
	if len(xs) < 2 || len(xs) != len(ps) {
		return nil, fmt.Errorf("%w: PDF table needs matching xs/ps with at least 2 points", ErrDist)
	}
	for i, p := range ps {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("%w: PDF table density %v at point %d", ErrDist, p, i)
		}
	}
	cum := make([]float64, len(xs))
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("%w: PDF table xs not strictly increasing at %d", ErrDist, i)
		}
		cum[i] = cum[i-1] + (ps[i]+ps[i-1])/2*(xs[i]-xs[i-1])
	}
	mass := cum[len(cum)-1]
	if !(mass > 0) {
		return nil, fmt.Errorf("%w: PDF table carries no mass", ErrDist)
	}
	for i := range cum {
		cum[i] /= mass
	}
	return NewCDFTable(xs, cum)
}

// TableFor tabulates a distribution's CDF at n evenly spaced points over
// [lo, hi]. Distributions without a computable CDF are tabulated from an
// empirical quantile sweep drawn on a fixed private stream, so the result
// is deterministic.
func TableFor(d Distribution, lo, hi float64, n int) (*CDFTable, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: table needs at least 2 points, got %d", ErrDist, n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("%w: table range [%v, %v] is empty", ErrDist, lo, hi)
	}
	xs := make([]float64, n)
	ps := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + step*float64(i)
	}
	xs[n-1] = hi // keep the endpoint exact despite float stepping
	if c, ok := d.(Cumulative); ok {
		prev := 0.0
		for i, x := range xs {
			p := c.CDF(x)
			if p < prev { // guard tiny numeric regressions
				p = prev
			}
			if p > 1 {
				p = 1
			}
			ps[i] = p
			prev = p
		}
		return NewCDFTable(xs, ps)
	}
	// Empirical fallback: count each sample toward the first grid point at
	// or above it, so ps[i] estimates P(X <= xs[i]).
	//wlint:allow rngdiscipline fixed-literal-seed private stream; swapping the generator would shift every fitted table and golden artifact
	r := rand.New(rand.NewSource(0x7461626c65)) // "table"
	const draws = 1 << 16
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		x := d.Sample(r)
		if x > hi {
			continue
		}
		j := int(math.Ceil((x - lo) / step))
		if j < 0 {
			j = 0
		}
		if j >= n {
			j = n - 1
		}
		counts[j]++
	}
	total := 0
	for i, c := range counts {
		total += c
		ps[i] = float64(total) / draws
	}
	return NewCDFTable(xs, ps)
}

// Sample draws by inverse-transform: InverseCDF of one uniform variate.
func (t *CDFTable) Sample(r *rand.Rand) float64 { return t.InverseCDF(r.Float64()) }

// InverseCDF returns the quantile at probability u, interpolating linearly
// between table points. u outside the table's probability range clamps to
// the corresponding endpoint.
//
// Inside the range the interpolation runs at the smallest i with
// Ps[i] >= u, the index a binary search would find. The draw's bucket is
// int(u*K), the expression buildGuide applies to Ps; multiplying by K and
// truncating are both monotone, so that index's bucket is at least u's and
// the guide never starts past it, and the forward scan stops on it.
func (t *CDFTable) InverseCDF(u float64) float64 {
	ps := t.Ps
	if u <= ps[0] {
		return t.Xs[0]
	}
	last := len(ps) - 1
	if u >= ps[last] {
		return t.Xs[last]
	}
	i := int(t.guide[int(u*t.buckets)])
	for ps[i] < u {
		i++
	}
	// Ps[i-1] < u <= Ps[i], so the segment carries mass: dp > 0.
	dp := ps[i] - ps[i-1]
	return t.Xs[i-1] + (u-ps[i-1])/dp*(t.Xs[i]-t.Xs[i-1])
}

// CDF evaluates the piecewise-linear CDF at x.
func (t *CDFTable) CDF(x float64) float64 {
	xs := t.Xs
	if x <= xs[0] {
		if x == xs[0] {
			return t.Ps[0]
		}
		return 0
	}
	last := len(xs) - 1
	if x >= xs[last] {
		return t.Ps[last]
	}
	lo, hi := 0, last
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	dx := xs[lo] - xs[lo-1]
	return t.Ps[lo-1] + (x-xs[lo-1])/dx*(t.Ps[lo]-t.Ps[lo-1])
}

// Mean returns the table's expected value (precomputed at construction).
func (t *CDFTable) Mean() float64 { return t.mean }

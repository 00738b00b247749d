// Package dist is the sampling engine under the Graphic Distribution
// Specifier: the distribution families the thesis's GDS accepts (§4.1.1 —
// phase-type exponential, multi-stage gamma, tabular PDF/CDF) plus the
// convenience families the characterization tables imply (exponential,
// constant, uniform), compiled into forms the FSC and USIM can sample
// millions of times.
//
// The package is performance-first: the hot path is CDFTable.Sample —
// inverse-transform sampling through a guide table over a precompiled
// table — and it performs zero heap allocations per call. Analytic families also
// sample allocation-free; everything that can be precomputed (stage weight
// prefix sums, table means, normalization constants) is computed once at
// construction.
//
// All sampling draws from a caller-supplied *rand.Rand so that whole
// experiments stay reproducible bit-for-bit (package rng supplies seeded,
// splittable sources).
//
// In the DES→workload→trace→analysis pipeline this is the root of the
// workload stage: every size, delay, and file choice the generator makes is
// a draw from a distribution compiled here.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrDist reports an invalid distribution parameterization.
var ErrDist = errors.New("dist: invalid distribution")

// Distribution is a sampleable distribution with a known mean.
type Distribution interface {
	// Sample draws one value using the given source.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution's expected value.
	Mean() float64
}

// Density is implemented by distributions with a probability density.
type Density interface {
	// PDF evaluates the probability density at x.
	PDF(x float64) float64
}

// Cumulative is implemented by distributions with a computable CDF.
type Cumulative interface {
	// CDF evaluates the cumulative distribution function at x.
	CDF(x float64) float64
}

// ---------------------------------------------------------------- Constant

// Constant is a point mass at V.
type Constant struct {
	V float64
}

// Sample returns V.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean returns V.
func (c Constant) Mean() float64 { return c.V }

// CDF is the unit step at V.
func (c Constant) CDF(x float64) float64 {
	if x < c.V {
		return 0
	}
	return 1
}

// ------------------------------------------------------------- Exponential

// Exponential is the exponential distribution with mean Theta, the thesis's
// exp(theta, x) = (1/theta) e^(-x/theta).
type Exponential struct {
	Theta float64
}

// NewExponential returns an exponential with the given mean.
func NewExponential(mean float64) (*Exponential, error) {
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("%w: exponential mean %v must be positive and finite", ErrDist, mean)
	}
	return &Exponential{Theta: mean}, nil
}

// Sample draws from the exponential.
func (e *Exponential) Sample(r *rand.Rand) float64 { return e.Theta * r.ExpFloat64() }

// Mean returns theta.
func (e *Exponential) Mean() float64 { return e.Theta }

// PDF evaluates the density.
func (e *Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Exp(-x/e.Theta) / e.Theta
}

// CDF evaluates the cumulative distribution.
func (e *Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x / e.Theta)
}

// ----------------------------------------------------------------- Uniform

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns a uniform on [lo, hi].
func NewUniform(lo, hi float64) (*Uniform, error) {
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("%w: uniform range [%v, %v] is not a finite interval", ErrDist, lo, hi)
	}
	return &Uniform{Lo: lo, Hi: hi}, nil
}

// Sample draws from the uniform.
func (u *Uniform) Sample(r *rand.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns the midpoint.
func (u *Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// PDF evaluates the density.
func (u *Uniform) PDF(x float64) float64 {
	if x < u.Lo || x > u.Hi {
		return 0
	}
	return 1 / (u.Hi - u.Lo)
}

// CDF evaluates the cumulative distribution.
func (u *Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// --------------------------------------------------------------- Truncated

// Truncated restricts a base distribution to [Lo, Hi], renormalizing the
// mass inside the window. Sampling is by rejection (the window must carry
// enough mass for the spec to be meaningful; a window with under ~0.01% of
// the mass is rejected at construction when the base exposes a CDF).
type Truncated struct {
	base   Distribution
	lo, hi float64
	// flo and span renormalize the CDF when the base exposes one.
	flo, span float64
	hasCDF    bool
	mean      float64
}

// NewTruncated restricts d to [lo, hi].
func NewTruncated(d Distribution, lo, hi float64) (*Truncated, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: truncate nil distribution", ErrDist)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("%w: truncation range [%v, %v] is empty", ErrDist, lo, hi)
	}
	t := &Truncated{base: d, lo: lo, hi: hi}
	if c, ok := d.(Cumulative); ok {
		t.hasCDF = true
		t.flo = c.CDF(lo)
		t.span = c.CDF(hi) - t.flo
		if !(t.span > 1e-3) {
			return nil, fmt.Errorf("%w: [%v, %v] carries %.2g of the base mass", ErrDist, lo, hi, t.span)
		}
		// Mean of the truncated law: E[X] = lo + integral of (1 - F) over
		// the window, with F the renormalized CDF. Trapezoid over a fixed
		// grid is deterministic and accurate at table resolution.
		const n = 2048
		var acc float64
		prev := 1.0 // 1 - F(lo) = 1
		h := (hi - lo) / n
		for i := 1; i <= n; i++ {
			x := lo + h*float64(i)
			cur := 1 - (c.CDF(x)-t.flo)/t.span
			acc += (prev + cur) / 2 * h
			prev = cur
		}
		t.mean = lo + acc
	} else {
		// No CDF: estimate the mean from a fixed, private sample stream so
		// Mean stays deterministic regardless of caller seeds. Failing to
		// collect the full sample budget means the window holds well under
		// 0.1% of the mass — reject it as a sampler rather than degrade.
		//wlint:allow rngdiscipline fixed-literal-seed private stream; swapping the generator would shift every fitted table and golden artifact
		r := rand.New(rand.NewSource(0x7472756e63)) // "trunc"
		var sum float64
		const n = 4096
		got := 0
		for tries := 0; got < n && tries < n*1000; tries++ {
			if x := d.Sample(r); x >= lo && x <= hi {
				sum += x
				got++
			}
		}
		if got < n {
			return nil, fmt.Errorf("%w: [%v, %v] holds too little base mass to sample (%d/%d draws landed)", ErrDist, lo, hi, got, n)
		}
		t.mean = sum / float64(got)
	}
	return t, nil
}

// Sample draws from the truncated distribution by rejection. The
// construction-time mass gates (>0.1% of base mass) make try exhaustion
// vanishingly unlikely; if it happens anyway, a base with a CDF falls back
// to exact inverse-transform by bisection, and one without returns the
// window midpoint.
func (t *Truncated) Sample(r *rand.Rand) float64 {
	for i := 0; i < 1<<16; i++ {
		if x := t.base.Sample(r); x >= t.lo && x <= t.hi {
			return x
		}
	}
	if t.hasCDF {
		return t.inverseByBisection(r.Float64())
	}
	return (t.lo + t.hi) / 2
}

// inverseByBisection inverts the renormalized CDF on [lo, hi].
func (t *Truncated) inverseByBisection(u float64) float64 {
	lo, hi := t.lo, t.hi
	for i := 0; i < 64 && hi-lo > 0; i++ {
		mid := lo + (hi-lo)/2
		if t.CDF(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// Mean returns the truncated distribution's expected value.
func (t *Truncated) Mean() float64 { return t.mean }

// CDF evaluates the renormalized cumulative distribution. Without a base
// CDF it degrades to the window's linear ramp.
func (t *Truncated) CDF(x float64) float64 {
	switch {
	case x <= t.lo:
		return 0
	case x >= t.hi:
		return 1
	}
	if t.hasCDF {
		return (t.base.(Cumulative).CDF(x) - t.flo) / t.span
	}
	return (x - t.lo) / (t.hi - t.lo)
}

package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"uswg/internal/dist"
)

// KolmogorovSmirnov runs a one-sample KS test of the samples against the
// theoretical CDF and returns the KS statistic D and an approximate p-value.
// It returns an error for empty input.
func KolmogorovSmirnov(samples []float64, cdf func(float64) float64) (d, p float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, errors.New("stats: KS test on empty sample")
	}
	xs := make([]float64, n)
	copy(xs, samples)
	sort.Float64s(xs)
	for i, x := range xs {
		f := cdf(x)
		up := float64(i+1)/float64(n) - f
		down := f - float64(i)/float64(n)
		if up > d {
			d = up
		}
		if down > d {
			d = down
		}
	}
	p = ksPValue(d, n)
	return d, p, nil
}

// KolmogorovSmirnovTwoSample runs a two-sample KS test and returns the
// statistic D and approximate p-value. It returns an error if either sample
// is empty.
func KolmogorovSmirnovTwoSample(a, b []float64) (d, p float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, errors.New("stats: two-sample KS test with empty sample")
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	ne := float64(len(as)) * float64(len(bs)) / float64(len(as)+len(bs))
	p = ksPValue(d, int(math.Round(ne)))
	return d, p, nil
}

// ksPValue approximates the p-value of the KS statistic using the asymptotic
// Kolmogorov distribution with the Stephens small-sample correction.
func ksPValue(d float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	sqn := math.Sqrt(float64(n))
	lambda := (sqn + 0.12 + 0.11/sqn) * d
	// The alternating series converges too slowly below ~0.2, where the
	// p-value is 1 to more than 30 decimal places anyway.
	if lambda < 0.2 {
		return 1
	}
	// Q_KS(lambda) = 2 * sum_{k=1..inf} (-1)^{k-1} exp(-2 k^2 lambda^2)
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ChiSquare runs Pearson's chi-square goodness-of-fit test of observed bin
// counts against expected bin counts. Bins with expected count below minExp
// are pooled into their neighbor to keep the approximation valid. It returns
// the statistic, degrees of freedom, and an approximate p-value.
func ChiSquare(observed, expected []float64, minExp float64) (chi2 float64, dof int, p float64, err error) {
	if len(observed) != len(expected) {
		return 0, 0, 0, fmt.Errorf("stats: chi-square length mismatch %d != %d", len(observed), len(expected))
	}
	if len(observed) == 0 {
		return 0, 0, 0, errors.New("stats: chi-square with no bins")
	}
	// Pool small-expectation bins left to right.
	var obs, exp []float64
	var accO, accE float64
	for i := range observed {
		accO += observed[i]
		accE += expected[i]
		if accE >= minExp {
			obs = append(obs, accO)
			exp = append(exp, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 && len(exp) > 0 {
		obs[len(obs)-1] += accO
		exp[len(exp)-1] += accE
	} else if len(exp) == 0 {
		return 0, 0, 0, errors.New("stats: all expected counts below threshold")
	}
	for i := range obs {
		d := obs[i] - exp[i]
		chi2 += d * d / exp[i]
	}
	dof = len(obs) - 1
	if dof < 1 {
		dof = 1
	}
	return chi2, dof, chiSquareSF(chi2, dof), nil
}

// chiSquareSF is the chi-square survival function P(X > x) with k degrees of
// freedom: the regularized upper incomplete gamma function Q(k/2, x/2).
func chiSquareSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	_, q := dist.RegIncGamma(float64(k)/2, x/2)
	return q
}

// Package stats provides the statistical machinery the workload generator
// uses to characterize workloads and validate synthetic output against real
// measurements: streaming moment accumulators, histograms with the
// moving-average smoothing used in the thesis figures, and goodness-of-fit
// tests (Kolmogorov-Smirnov and chi-square) satisfying the paper's criterion
// that a workload generator be "amenable to statistical tests of similarity
// to the real workload". It serves the pipeline's analysis stage: package
// trace reduces with its accumulators, and packages validate and report
// consume its histograms and tests.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming mean/variance statistics using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll incorporates a slice of observations.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// String renders the summary as "mean(std)" the way the thesis tables do.
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f(%.2f)", s.Mean(), s.Std())
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	var s Summary
	s.AddAll(xs)
	return s.Std()
}

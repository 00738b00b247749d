package stats

import (
	"fmt"
)

// Histogram is a fixed-width-bin histogram over [Min, Max). Observations
// outside the range are clamped into the first or last bin, matching the
// thesis Usage Analyzer which plots a fixed axis range.
type Histogram struct {
	Min    float64
	Max    float64
	Counts []float64
	total  int64
}

// NewHistogram returns a histogram with n bins spanning [min, max).
// It returns an error if n < 1 or max <= min.
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bin, got %d", n)
	}
	if max <= min {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) is empty", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]float64, n)}, nil
}

// Add records one observation, clamping out-of-range values into the
// boundary bins.
func (h *Histogram) Add(x float64) {
	i := h.binOf(x)
	h.Counts[i]++
	h.total++
}

func (h *Histogram) binOf(x float64) int {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	i := int((x - h.Min) / w)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// BinCenter returns the center x-value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth()
}

// Centers returns the centers of all bins.
func (h *Histogram) Centers() []float64 {
	cs := make([]float64, len(h.Counts))
	for i := range cs {
		cs[i] = h.BinCenter(i)
	}
	return cs
}

// Smoothed returns a copy of the histogram whose counts have been smoothed
// with a centered moving average of the given window (an odd number of bins;
// an even window is widened by one). This reproduces the "after smoothing"
// panels of Figures 5.3-5.5.
func (h *Histogram) Smoothed(window int) *Histogram {
	out := &Histogram{Min: h.Min, Max: h.Max, total: h.total}
	out.Counts = SmoothMovingAverage(h.Counts, window)
	return out
}

// SmoothMovingAverage smooths xs with a centered moving average of the given
// window size. Windows are truncated at the boundaries so mass near the edges
// is averaged over fewer points rather than zero-padded. A window <= 1
// returns a copy of xs.
func SmoothMovingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	if window <= 1 {
		copy(out, xs)
		return out
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

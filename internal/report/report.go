// Package report is the presentation layer at the end of the
// DES→workload→trace→analysis pipeline: every number the analysis layers
// produce passes through here on its way to a human. It renders aligned
// ASCII tables (Tables 5.1-5.4), ASCII plots of densities and histograms
// (Figures 5.1-5.5), and the CurvePlot type, a render-agnostic line plot
// with both ASCII and deterministic SVG views that every curve (Figures
// 5.6-5.12) draws through. It replaces the thesis GDS's X11 display, which
// the thesis itself treats as optional.
package report

import (
	"fmt"
	"math"
	"strings"

	"uswg/internal/dist"
	"uswg/internal/stats"
)

// Table renders an aligned ASCII table with a header rule.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Plot is a rectangular character canvas with numeric axes.
type Plot struct {
	width, height int
	title         string
	xlabel        string
	ylabel        string
	xmin, xmax    float64
	ymin, ymax    float64
	cells         [][]byte
}

// NewPlot returns a canvas of the given interior size (minimum 16x4).
func NewPlot(width, height int, title string) *Plot {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	cells := make([][]byte, height)
	for i := range cells {
		cells[i] = []byte(strings.Repeat(" ", width))
	}
	return &Plot{width: width, height: height, title: title, cells: cells}
}

// Labels sets the axis labels.
func (p *Plot) Labels(x, y string) *Plot {
	p.xlabel, p.ylabel = x, y
	return p
}

// scale sets the data ranges, padding degenerate ones.
func (p *Plot) scale(xmin, xmax, ymin, ymax float64) {
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	p.xmin, p.xmax, p.ymin, p.ymax = xmin, xmax, ymin, ymax
}

func (p *Plot) put(x, y float64, ch byte) {
	cx := int(math.Round((x - p.xmin) / (p.xmax - p.xmin) * float64(p.width-1)))
	cy := int(math.Round((y - p.ymin) / (p.ymax - p.ymin) * float64(p.height-1)))
	if cx < 0 || cx >= p.width || cy < 0 || cy >= p.height {
		return
	}
	p.cells[p.height-1-cy][cx] = ch
}

// Line draws a polyline through the points with marker ch.
func (p *Plot) Line(xs, ys []float64, ch byte) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return
	}
	// Dense interpolation between consecutive points.
	for i := 1; i < len(xs); i++ {
		steps := 2 * p.width
		for s := 0; s <= steps; s++ {
			t := float64(s) / float64(steps)
			p.put(xs[i-1]+t*(xs[i]-xs[i-1]), ys[i-1]+t*(ys[i]-ys[i-1]), ch)
		}
	}
	for i := range xs {
		p.put(xs[i], ys[i], '*')
	}
}

// Bars draws vertical bars at xs with heights ys.
func (p *Plot) Bars(xs, ys []float64, ch byte) {
	for i := range xs {
		if i >= len(ys) {
			break
		}
		steps := int(math.Round((ys[i] - p.ymin) / (p.ymax - p.ymin) * float64(p.height-1)))
		for s := 0; s <= steps; s++ {
			y := p.ymin + float64(s)/float64(p.height-1)*(p.ymax-p.ymin)
			p.put(xs[i], y, ch)
		}
	}
}

// String renders the canvas with axes.
func (p *Plot) String() string {
	var b strings.Builder
	if p.title != "" {
		b.WriteString(p.title)
		b.WriteString("\n")
	}
	ytop := fmt.Sprintf("%.4g", p.ymax)
	ybot := fmt.Sprintf("%.4g", p.ymin)
	margin := len(ytop)
	if len(ybot) > margin {
		margin = len(ybot)
	}
	if p.ylabel != "" {
		fmt.Fprintf(&b, "%s\n", p.ylabel)
	}
	for i, row := range p.cells {
		label := strings.Repeat(" ", margin)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", margin, ytop)
		case p.height - 1:
			label = fmt.Sprintf("%*s", margin, ybot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	b.WriteString(strings.Repeat(" ", margin+1))
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", p.width))
	b.WriteString("\n")
	xline := fmt.Sprintf("%s  %-*.4g%*.4g", strings.Repeat(" ", margin), p.width/2, p.xmin, p.width-p.width/2, p.xmax)
	b.WriteString(strings.TrimRight(xline, " "))
	b.WriteString("\n")
	if p.xlabel != "" {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat(" ", margin+2), p.xlabel)
	}
	return b.String()
}

// HistogramPlot renders a histogram as vertical bars.
func HistogramPlot(h *stats.Histogram, width, height int, title, xlabel string) string {
	centers := h.Centers()
	counts := make([]float64, len(centers))
	copy(counts, h.Counts)
	return BarPlot(centers, counts, width, height, title, xlabel)
}

// BarPlot renders pre-extracted histogram bins (bar centers and counts) as
// vertical bars — the sampled-data twin of HistogramPlot, so results that
// store bins instead of a live *stats.Histogram (the artifact pipeline's
// HistogramsResult) render byte-identically.
func BarPlot(centers, counts []float64, width, height int, title, xlabel string) string {
	var peak float64
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	p := NewPlot(width, height, title).Labels(xlabel, "count")
	xmin, xmax := minMax(centers)
	p.scale(xmin, xmax, 0, math.Max(peak, 1))
	p.Bars(centers, counts, '#')
	return p.String()
}

// SampleDensity evaluates a density at the 2*width evenly spaced points
// Density would plot over [lo, hi] — the sampled form stored by results
// that must re-render without the dist object.
func SampleDensity(d dist.Density, lo, hi float64, width int) (xs, ys []float64) {
	if hi <= lo {
		hi = lo + 1
	}
	n := width * 2
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		ys[i] = d.PDF(xs[i])
	}
	return xs, ys
}

// DensityCurve plots pre-sampled density points — the sampled-data twin of
// Density, byte-identical for samples produced by SampleDensity.
func DensityCurve(xs, ys []float64, width, height int, title string) string {
	var peak float64
	for _, y := range ys {
		if y > peak {
			peak = y
		}
	}
	lo, hi := minMax(xs)
	p := NewPlot(width, height, title).Labels("x", "f(x)")
	p.scale(lo, hi, 0, math.Max(peak*1.05, 1e-12))
	p.Line(xs, ys, '.')
	return p.String()
}

// Density plots a probability density over [lo, hi] (Figures 5.1-5.2).
func Density(d dist.Density, lo, hi float64, width, height int, title string) string {
	xs, ys := SampleDensity(d, lo, hi, width)
	return DensityCurve(xs, ys, width, height, title)
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

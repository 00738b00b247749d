package scenario

// The non-sweep result types that carry their reduced data instead of
// pre-rendered text, so every output kind has a machine view (Tabular) next
// to the human one (Render) — the contract the artifact pipeline needs to
// write a CSV and JSON for every registered scenario.

import (
	"strconv"
	"strings"

	"uswg/internal/report"
)

// Plottable is implemented by results that reduce to x/y series — the form
// the artifact pipeline renders as ASCII and SVG plots and serializes for
// `gdsplot -curve` re-rendering.
type Plottable interface {
	Plot() *report.CurvePlot
}

// Plot exports the curve as a single-series plot.
func (r *CurveResult) Plot() *report.CurvePlot {
	label := r.YLabel
	if label == "" {
		label = "y"
	}
	return &report.CurvePlot{
		Title: r.Title, XLabel: r.XLabel, YLabel: r.YLabel,
		Series: []report.PlotSeries{{Label: label, XS: r.XS, YS: r.YS}},
	}
}

// Plot exports the transient run's response series over virtual time: mean
// and p95 response per window, empty windows skipped (no responses exist to
// plot there; the tabular view keeps them).
func (r *TransientResult) Plot() *report.CurvePlot {
	var xs, mean, p95 []float64
	for _, w := range r.Windows {
		if w.Ops == 0 {
			continue
		}
		xs = append(xs, w.Start/1e6)
		mean = append(mean, w.MeanResponse)
		p95 = append(p95, w.P95)
	}
	return &report.CurvePlot{
		Title: r.Title, XLabel: "t (s)", YLabel: "response (µs)",
		Series: []report.PlotSeries{
			{Label: "mean response (µs)", XS: xs, YS: mean},
			{Label: "p95 (µs)", XS: xs, YS: p95},
		},
	}
}

// g formats a float with enough digits to round-trip exactly — the point
// files are data, not display, so they must not lose precision to a pretty
// format. (The diff layer parses them back and compares ULP-tolerantly.)
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// DensityCurveData is one sampled density panel of a DensitiesResult.
type DensityCurveData struct {
	Label  string
	XS, YS []float64
}

// DensitiesResult holds the sampled distribution panels of a densities
// scenario (Figures 5.1-5.2). Render reproduces the ASCII panels; Table is
// the long-form (panel, x, f(x)) machine view.
type DensitiesResult struct {
	Title         string
	Width, Height int
	Panels        []DensityCurveData
}

// Render plots each panel as an ASCII density curve.
func (r *DensitiesResult) Render() string {
	panels := make([]string, len(r.Panels))
	for i, p := range r.Panels {
		panels[i] = report.DensityCurve(p.XS, p.YS, r.Width, r.Height, p.Label)
	}
	return r.Title + "\n\n" + strings.Join(panels, "\n")
}

// Table exports every sampled point of every panel.
func (r *DensitiesResult) Table() (string, []string, [][]string) {
	var rows [][]string
	for _, p := range r.Panels {
		for i := range p.XS {
			rows = append(rows, []string{p.Label, g(p.XS[i]), g(p.YS[i])})
		}
	}
	return r.Title, []string{"panel", "x", "f(x)"}, rows
}

// Plot exports all panels as one multi-series plot over the shared x range.
func (r *DensitiesResult) Plot() *report.CurvePlot {
	series := make([]report.PlotSeries, len(r.Panels))
	for i, p := range r.Panels {
		series[i] = report.PlotSeries{Label: p.Label, XS: p.XS, YS: p.YS}
	}
	return &report.CurvePlot{Title: r.Title, XLabel: "x", YLabel: "f(x)", Series: series}
}

// HistPanelData is one reduced usage histogram of a HistogramsResult: bin
// centers with raw and smoothed counts.
type HistPanelData struct {
	Title, XLabel string
	Centers       []float64
	Raw, Smoothed []float64
}

// HistogramsResult holds the per-session usage histograms of a histograms
// scenario (Figures 5.3-5.5). Render reproduces the before/after-smoothing
// bar plots; Table is the long-form (panel, bin, raw, smoothed) view.
type HistogramsResult struct {
	// Title is already formatted with the session count.
	Title         string
	Width, Height int
	Panels        []HistPanelData
}

// Render plots each panel raw then smoothed.
func (r *HistogramsResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteString("\n\n")
	for _, p := range r.Panels {
		b.WriteString(report.BarPlot(p.Centers, p.Raw, r.Width, r.Height, p.Title+" (before smoothing)", p.XLabel))
		b.WriteString("\n")
		b.WriteString(report.BarPlot(p.Centers, p.Smoothed, r.Width, r.Height, p.Title+" (after smoothing)", p.XLabel))
		b.WriteString("\n")
	}
	return b.String()
}

// Table exports every bin of every panel, raw and smoothed counts side by
// side.
func (r *HistogramsResult) Table() (string, []string, [][]string) {
	var rows [][]string
	for _, p := range r.Panels {
		for i := range p.Centers {
			rows = append(rows, []string{p.Title, g(p.Centers[i]), g(p.Raw[i]), g(p.Smoothed[i])})
		}
	}
	return r.Title, []string{"panel", "bin center", "count", "smoothed"}, rows
}

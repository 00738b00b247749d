package report

import (
	"strings"
	"testing"

	"uswg/internal/dist"
	"uswg/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	out := Table(
		[]string{"name", "value"},
		[][]string{{"short", "1"}, {"a-much-longer-name", "23456"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Header, rule, and rows all share the same column start for "value".
	col := strings.Index(lines[0], "value")
	if col < 0 {
		t.Fatal("missing header")
	}
	if lines[2][col:col+1] != "1" && !strings.HasPrefix(lines[2][col:], "1") {
		t.Errorf("row 1 misaligned:\n%s", out)
	}
	if !strings.HasPrefix(lines[3][col:], "23456") {
		t.Errorf("row 2 misaligned:\n%s", out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("missing header rule")
	}
}

func TestTableRaggedRows(t *testing.T) {
	out := Table([]string{"a", "b", "c"}, [][]string{{"1"}, {"1", "2", "3"}})
	if !strings.Contains(out, "3") {
		t.Errorf("missing cell:\n%s", out)
	}
}

func TestSeriesPlotContainsPoints(t *testing.T) {
	plot := CurvePlot{Title: "response vs users", XLabel: "users", YLabel: "µs/B",
		Series: []PlotSeries{{Label: "µs/B", XS: []float64{1, 2, 3, 4, 5, 6}, YS: []float64{1, 2, 3, 5, 8, 13}}}}
	out := plot.ASCII(40, 10)
	if !strings.Contains(out, "response vs users") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("missing data markers")
	}
	if !strings.Contains(out, "users") || !strings.Contains(out, "µs/B") {
		t.Error("missing axis labels")
	}
	// Axis extremes printed.
	if !strings.Contains(out, "1") || !strings.Contains(out, "6") {
		t.Error("missing x range labels")
	}
}

func TestHistogramPlot(t *testing.T) {
	h, err := stats.NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 1, 1, 5, 5, 9} {
		h.Add(x)
	}
	out := HistogramPlot(h, 40, 8, "avg file size", "bytes")
	if !strings.Contains(out, "#") {
		t.Errorf("no bars:\n%s", out)
	}
	if !strings.Contains(out, "count") {
		t.Error("missing y label")
	}
}

func TestHistogramPlotEmpty(t *testing.T) {
	h, err := stats.NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := HistogramPlot(h, 20, 5, "empty", "x")
	if out == "" {
		t.Error("empty histogram should still render axes")
	}
}

func TestDensityPlot(t *testing.T) {
	e, err := dist.NewExponential(22.1)
	if err != nil {
		t.Fatal(err)
	}
	out := Density(e, 0, 100, 50, 12, "f(x) = exp(22.1, x)")
	if !strings.Contains(out, "f(x)") {
		t.Error("missing y label")
	}
	// The exponential's peak is at x=0: the first column should carry ink
	// near the top row.
	lines := strings.Split(out, "\n")
	var topHasInk bool
	for _, l := range lines[1:4] {
		if strings.ContainsAny(l, ".*") {
			topHasInk = true
		}
	}
	if !topHasInk {
		t.Errorf("exponential peak missing near top:\n%s", out)
	}
}

func TestPlotMinimumSize(t *testing.T) {
	p := NewPlot(1, 1, "tiny")
	p.scale(0, 1, 0, 1)
	p.Line([]float64{0, 1}, []float64{0, 1}, '.')
	if p.String() == "" {
		t.Error("tiny plot should render")
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	p := NewPlot(20, 5, "flat")
	p.scale(3, 3, 7, 7) // degenerate on both axes
	p.Line([]float64{3, 3}, []float64{7, 7}, '.')
	out := p.String()
	if !strings.Contains(out, "*") {
		t.Errorf("degenerate plot lost its point:\n%s", out)
	}
}

func TestF(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1234567, "1.23e+06"},
		{250, "250"},
		{3.14159, "3.14"},
		{0.12345, "0.1235"},
	}
	for _, c := range cases {
		if got := F(c.in); got != c.want {
			t.Errorf("F(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Command gdsplot renders distribution densities as ASCII plots — the
// Graphic Distribution Specifier's display, sans X11 — and re-renders the
// plot data files the artifact pipeline writes.
//
// Usage:
//
//	gdsplot                       # the fig5.1 and fig5.2 scenarios' panels
//	gdsplot -spec spec.json       # every distribution in an experiment spec
//	gdsplot -exp 1024 -hi 8000    # an exponential with the given (positive) mean
//	gdsplot -curve plots/fig5.6.json [-svg out.svg]
//	                              # re-render a `wlgen paper` plot file as
//	                              # ASCII, or as SVG with -svg
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/gds"
	"uswg/internal/report"
	"uswg/internal/scenario"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "experiment spec whose distributions to plot")
		expMean   = flag.Float64("exp", 0, "plot an exponential with this mean")
		curvePath = flag.String("curve", "", "plot data file (report.CurvePlot JSON, as written under plots/ by wlgen paper)")
		svgPath   = flag.String("svg", "", "with -curve: write an SVG rendering here instead of ASCII")
		hi        = flag.Float64("hi", 100, "x-axis upper bound")
		width     = flag.Int("width", 60, "plot width")
		height    = flag.Int("height", 12, "plot height")
	)
	flag.Parse()
	expSet := false
	flag.Visit(func(f *flag.Flag) { expSet = expSet || f.Name == "exp" })

	switch {
	case *curvePath != "":
		if err := renderCurve(*curvePath, *svgPath, *width, *height); err != nil {
			fail(err)
		}
	case expSet:
		d, err := dist.NewExponential(*expMean)
		if err != nil {
			fail(err)
		}
		fmt.Println(report.Density(d, 0, *hi, *width, *height,
			fmt.Sprintf("f(x) = exp(%g, x)", *expMean)))
	case *specPath != "":
		spec, err := config.Load(*specPath)
		if err != nil {
			fail(err)
		}
		plotSpec("access_size", spec.AccessSize, *width, *height)
		for _, u := range spec.UserTypes {
			plotSpec("think_time["+u.Name+"]", u.ThinkTime, *width, *height)
		}
		for _, c := range spec.Categories {
			plotSpec("file_size["+c.Name()+"]", c.FileSize, *width, *height)
		}
	default:
		for _, name := range []string{"fig5.1", "fig5.2"} {
			sc, _ := scenario.Lookup(name)
			for _, p := range sc.Output.Densities {
				d, err := p.Density()
				if err != nil {
					fail(err)
				}
				fmt.Println(report.Density(d, 0, *hi, *width, *height, p.Label))
			}
		}
	}
}

func plotSpec(label string, ds config.DistSpec, width, height int) {
	d, err := gds.Compile(ds)
	if err != nil {
		fail(fmt.Errorf("%s: %w", label, err))
	}
	den, ok := d.(dist.Density)
	if !ok {
		// Tabular or truncated specs: plot via their CDF table's shape.
		t, err := gds.TableOf(d)
		if err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
		}
		cdf := report.CurvePlot{Title: label + " (CDF)", XLabel: "x", YLabel: "F(x)",
			Series: []report.PlotSeries{{Label: "F(x)", XS: t.Xs, YS: t.Ps}}}
		fmt.Println(cdf.ASCII(width, height))
		return
	}
	hi := 4 * d.Mean()
	if hi <= 0 {
		hi = 1
	}
	fmt.Println(report.Density(den, 0, hi, width, height, label))
}

// renderCurve loads a serialized report.CurvePlot and re-renders it: ASCII
// to stdout by default, SVG to svgPath with -svg. The SVG bytes are
// deterministic — identical input data yields an identical file.
func renderCurve(path, svgPath string, width, height int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var plot report.CurvePlot
	if err := json.Unmarshal(raw, &plot); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if svgPath != "" {
		// The artifact pipeline's SVG size: a paper column.
		return os.WriteFile(svgPath, []byte(plot.SVG(640, 420)), 0o644)
	}
	fmt.Print(plot.ASCII(width, height))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gdsplot:", err)
	os.Exit(1)
}

// Package validate tests a generated workload's similarity to its
// specification — the thesis's criterion that a good workload generator "be
// amenable to statistical tests of similarity to the real workload" (§2.2).
// It applies Kolmogorov-Smirnov tests to continuous usage measures and a
// chi-square test to the category mix. The mix is the Usage Analyzer's
// per-category fold (trace.Analysis.Categories), the one Table 5.2 reads.
//
// A failed check is not automatically a bug: access sizes, for example, are
// clipped by end-of-file and remaining byte budgets, so the observed
// distribution is a truncated version of the spec's. Checks distinguish
// "matches the spec distribution" from "matches after known clipping".
//
// In the DES→workload→trace→analysis pipeline this is an analysis-stage
// consumer: it closes the loop by testing the trace reduction against the
// spec that generated the workload.
package validate

import (
	"fmt"
	"strings"

	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/gds"
	"uswg/internal/stats"
	"uswg/internal/trace"
)

// Check is one statistical comparison.
type Check struct {
	// Name identifies the measure tested.
	Name string
	// Test is "ks" or "chi2".
	Test string
	// Statistic is the test statistic (D for KS, chi² for chi-square).
	Statistic float64
	// P is the p-value; small values reject similarity.
	P float64
	// N is the sample count.
	N int
	// Note carries caveats (clipping, low counts).
	Note string
	// Advisory marks checks whose rejection is expected on realistic
	// runs (clipped access sizes, service time inside think gaps); they
	// are reported but excluded from Failed.
	Advisory bool
}

// Passed reports whether the check accepts similarity at the given level
// (checks with too little data pass vacuously, with a note).
func (c Check) Passed(alpha float64) bool { return c.N < 8 || c.P >= alpha }

// Report is a set of checks over one run.
type Report struct {
	Checks []Check
}

// Failed returns the non-advisory checks rejected at level alpha.
func (r *Report) Failed(alpha float64) []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Advisory && !c.Passed(alpha) {
			out = append(out, c)
		}
	}
	return out
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	for _, c := range r.Checks {
		status := "pass"
		if !c.Passed(0.01) {
			status = "FAIL"
			if c.Advisory {
				status = "warn"
			}
		}
		fmt.Fprintf(&b, "%-34s %-4s n=%-6d stat=%-8.4f p=%-8.4g %s", c.Name, c.Test, c.N, c.Statistic, c.P, status)
		if c.Note != "" {
			fmt.Fprintf(&b, "  (%s)", c.Note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Workload runs all checks of a usage log against its spec. One pass over
// the log collects the KS samples, which are O(ops) by nature: unclipped
// data-op sizes and the gaps between consecutive operations of each
// session. The category mix comes from the Usage Analyzer's per-category
// fold.
func Workload(spec *config.Spec, log *trace.Log) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var sizes, gaps []float64
	end := make(map[int]float64) // each session's last op end
	log.Each(func(r *trace.Record) {
		if r.Op.IsData() && r.Err == "" && r.Bytes > 0 {
			sizes = append(sizes, float64(r.Bytes))
		}
		// Gap = next op start - (this op start + elapsed), within a
		// session. Compound steps (e.g. a close immediately followed by a
		// reopen) log several records with no think between them;
		// exact-zero gaps are those artifacts, not samples.
		if e, ok := end[r.Session]; ok {
			if g := r.Start - e; g > 0 {
				gaps = append(gaps, g)
			}
		}
		end[r.Session] = r.Start + r.Elapsed
	})

	size, err := accessSizeCheck(spec, sizes)
	if err != nil {
		return nil, err
	}
	think, err := thinkTimeCheck(spec, gaps)
	if err != nil {
		return nil, err
	}
	mix, err := categoryMixCheck(spec, trace.Analyze(log))
	if err != nil {
		return nil, err
	}
	return &Report{Checks: []Check{size, think, mix}}, nil
}

// accessSizeCheck KS-tests unclipped data-op sizes against the spec's
// access-size distribution. Only transfers that were not clipped by file
// boundaries or budgets can be expected to follow the spec, so transfers
// equal to the request are approximated by excluding exact-EOF short reads;
// here we simply test all sizes and annotate.
func accessSizeCheck(spec *config.Spec, sizes []float64) (Check, error) {
	d, err := gds.Compile(spec.AccessSize)
	if err != nil {
		return Check{}, err
	}
	cum, ok := d.(dist.Cumulative)
	if !ok {
		t, err := gds.TableOf(d)
		if err != nil {
			return Check{}, err
		}
		cum = t
	}
	c := Check{Name: "access size vs spec", Test: "ks", N: len(sizes), Advisory: true,
		Note: "observed sizes are clipped by EOF and byte budgets"}
	if len(sizes) < 8 {
		return c, nil
	}
	dstat, p, err := stats.KolmogorovSmirnov(sizes, cum.CDF)
	if err != nil {
		return Check{}, err
	}
	c.Statistic, c.P = dstat, p
	return c, nil
}

// thinkTimeCheck KS-tests the gaps between consecutive operations of each
// session against the (single-type) think-time distribution. Gaps include
// the preceding op's service time, so the test is annotated; it is most
// meaningful on cost-free file systems.
func thinkTimeCheck(spec *config.Spec, gaps []float64) (Check, error) {
	c := Check{Name: "think time vs spec", Test: "ks", Advisory: true,
		Note: "gaps include service time; strict only on cost-free runs"}
	if len(spec.UserTypes) != 1 {
		c.Note = "skipped: multiple user types"
		return c, nil
	}
	d, err := gds.Compile(spec.UserTypes[0].ThinkTime)
	if err != nil {
		return Check{}, err
	}
	cum, ok := d.(dist.Cumulative)
	if !ok {
		return c, nil
	}
	c.N = len(gaps)
	if len(gaps) < 8 {
		return c, nil
	}
	dstat, p, err := stats.KolmogorovSmirnov(gaps, cum.CDF)
	if err != nil {
		return Check{}, err
	}
	c.Statistic, c.P = dstat, p
	return c, nil
}

// categoryMixCheck chi-square-tests how many sessions referenced each
// category against the spec's PercentUsers.
func categoryMixCheck(spec *config.Spec, a *trace.Analysis) (Check, error) {
	sessions := len(a.Sessions)
	c := Check{Name: "category mix vs percent_users", Test: "chi2", N: sessions}
	if sessions < 8 {
		return c, nil
	}
	touched := make([]int, len(spec.Categories))
	for _, u := range a.Categories {
		if u.Category < len(touched) {
			touched[u.Category] = u.Sessions
		}
	}
	var observed, expected []float64
	for i, cat := range spec.Categories {
		exp := float64(sessions) * cat.PercentUsers / 100
		if exp < 1 {
			continue // too rare to test
		}
		observed = append(observed, float64(touched[i]))
		expected = append(expected, exp)
	}
	if len(observed) < 2 {
		c.Note = "too few testable categories"
		return c, nil
	}
	chi2, _, p, err := stats.ChiSquare(observed, expected, 1)
	if err != nil {
		return Check{}, err
	}
	c.Statistic, c.P = chi2, p
	return c, nil
}

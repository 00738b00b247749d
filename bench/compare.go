package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
)

// Verdicts of compare, per end-to-end metric and workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worse reports whether x reads worse than y for m.
func worse(m metric, x, y float64) bool {
	if m.better == "higher" {
		return x < y
	}
	return x > y
}

// verdict judges candidate samples b against baseline samples a: ok when
// every candidate sample reads better than every baseline sample; otherwise
// unresolved when either side's spread (IQR over median) exceeds the bound,
// regressed when the candidate's median is worse than the baseline's by more
// than the bound, and ok if not.
func verdict(m metric, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	bestA, worstB := slices.Min(a), slices.Max(b)
	if m.better == "higher" {
		bestA, worstB = slices.Max(a), slices.Min(b)
	}
	if worse(m, bestA, worstB) {
		return verdictOK
	}
	if spread(a) > m.bound || spread(b) > m.bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	if worse(m, mb, ma) && math.Abs(mb-ma) > m.bound*math.Abs(ma) {
		return verdictRegressed
	}
	return verdictOK
}

// readResults loads a result file written by -out; a missing file holds no
// results.
func readResults(path string) ([]*outcome, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var outs []*outcome
	if err := json.Unmarshal(data, &outs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return outs, nil
}

// appendResults adds outs to the results already in path.
func appendResults(path string, outs []*outcome) error {
	prev, err := readResults(path)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(append(prev, outs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// samples returns the named metric's samples from o (nil when absent).
func (o *outcome) samples(name string) []float64 {
	for _, s := range o.Metrics {
		if s.Name == name {
			return s.Samples
		}
	}
	return nil
}

// endToEndRuns returns the end-to-end passes over a workload.
func endToEndRuns(outs []*outcome, workload string) []*outcome {
	var runs []*outcome
	for _, o := range outs {
		if !o.Traced && o.Workload == workload {
			runs = append(runs, o)
		}
	}
	return runs
}

// runMedians returns each run's median of the named metric.
func runMedians(runs []*outcome, name string) []float64 {
	var ms []float64
	for _, o := range runs {
		if s := o.samples(name); len(s) > 0 {
			ms = append(ms, median(s))
		}
	}
	return ms
}

// compare judges a candidate set of runs against a baseline set. For every
// workload with end-to-end runs on both sides it prints one row per
// end-to-end metric: each side's median and quartiles over its runs' medians,
// the change and the verdict. It then checks that reps both sides simulated
// (same workload, seed and rep index) have the same digest. It reports
// whether the candidate passes: no regression and no digest mismatch.
func compare(w io.Writer, base, cand []*outcome) bool {
	pass := true
	var done []string
	for _, o := range base {
		if o.Traced || slices.Contains(done, o.Workload) {
			continue
		}
		done = append(done, o.Workload)
		ra, rb := endToEndRuns(base, o.Workload), endToEndRuns(cand, o.Workload)
		if len(rb) == 0 {
			fmt.Fprintf(w, "%s: no candidate runs\n", o.Workload)
			continue
		}
		fmt.Fprintf(w, "%s: %d baseline runs, %d candidate runs\n", o.Workload, len(ra), len(rb))
		for _, m := range endToEnd {
			sa, sb := runMedians(ra, m.name), runMedians(rb, m.name)
			qa1, qa3 := quartiles(sa)
			qb1, qb3 := quartiles(sb)
			v := verdict(m, sa, sb)
			if v == verdictRegressed {
				pass = false
			}
			fmt.Fprintf(w, "  %-20s %-9s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  %+.2f%%  bound %.0f%%  %s\n",
				m.name, m.unit, median(sa), qa1, qa3, median(sb), qb1, qb3,
				100*(median(sb)/median(sa)-1), 100*m.bound, v)
		}
		shared, differ := 0, 0
		for _, a := range ra {
			for _, b := range rb {
				if a.Seed != b.Seed {
					continue
				}
				for i := range min(len(a.Digests), len(b.Digests)) {
					shared++
					if a.Digests[i] != b.Digests[i] {
						differ++
					}
				}
			}
		}
		if differ > 0 {
			pass = false
		}
		fmt.Fprintf(w, "  digests: %d reps simulated on both sides, %d differ\n", shared, differ)
	}
	return pass
}

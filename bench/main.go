// Command wlbench is the generator's benchmark: it runs each workload in
// workloads/ through core.NewGenerator and Generator.Run for a fixed time,
// checks every rep's output, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics. See README.md.
//
// Usage:
//
//	wlbench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans DIR] [-out FILE]
//	wlbench compare BASE.json CANDIDATE.json
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"uswg/internal/config"
)

//go:embed workloads/*.json expected.json
var files embed.FS

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"contention", "local", "pooled", "lazy"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// loadWorkload decodes and validates one workload's spec.
func loadWorkload(name string) (*config.Spec, error) {
	data, err := files.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return config.Decode(bytes.NewReader(data))
}

// loadReference decodes expected.json.
func loadReference() (*reference, error) {
	data, err := files.ReadFile("expected.json")
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if !(ref.C0 > 0) {
		return nil, fmt.Errorf("expected.json: c0_s %v must be positive", ref.C0)
	}
	return &ref, nil
}

func benchMain(args []string) int {
	fl := flag.NewFlagSet("wlbench", flag.ContinueOnError)
	workload := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Uint64("seed", defaultSeed, "base seed; rep i simulates a seed derived from it")
	seconds := fl.Float64("seconds", 20, "measuring time per workload, host seconds")
	traceFlag := fl.Int("trace", 0, "0: end-to-end pass; 1: traced pass with the per-layer metrics")
	spans := fl.String("spans", "", "traced pass: write <workload>.spans.json into this directory")
	out := fl.String("out", "", "append the result to this file, a set of runs compare reads")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "wlbench: want -trace 0 or 1, a positive -seconds and no arguments")
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlbench:", err)
		return 1
	}
	// The DES runs on one goroutine; one P keeps the collector on the same
	// CPU, so a rep measures the serial cost of its work. With a second P
	// the collector's share of a noisy neighbour CPU tripled the kernel's
	// spread on a shared 2-vCPU host.
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, spans: *spans}
	var outs []*outcome
	status := 0
	for _, name := range names {
		spec, err := loadWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlbench:", err)
			return 1
		}
		oc, err := runWorkload(ref, name, spec, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlbench: %s: %v\n", name, err)
			return 1
		}
		outs = append(outs, oc)
		report(os.Stdout, oc, ref.C0)
		if oc.Failed > 0 {
			status = 1
		}
	}
	if *out != "" {
		if err := appendResults(*out, outs); err != nil {
			fmt.Fprintln(os.Stderr, "wlbench:", err)
			return 1
		}
	}
	return status
}

// value is one metric of the summary line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the one-line JSON result that ends a workload's report.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints one pass: every metric by name with its unit, median,
// quartiles, tail percentile and sample count, the kernel self-check, the
// digests and problems, and last the summary line with the medians of the
// pass's gated metrics (end-to-end, or per-layer when traced).
func report(w io.Writer, o *outcome, c0 float64) {
	pass := "end-to-end"
	table := endToEnd
	if o.Traced {
		pass, table = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s: %s pass, seed %d, %d generator runs, %d failed, GOMAXPROCS %d\n",
		o.Workload, pass, o.Seed, o.Attempted, o.Failed, runtime.GOMAXPROCS(0))
	noisy := ""
	if o.Noisy {
		noisy = "  NOISY"
	}
	fmt.Fprintf(w, "   kernel: c0 %.4f s, median %.4f s, iqr/median %.1f%%, n=%d%s\n",
		c0, median(o.Kernel), 100*spread(o.Kernel), len(o.Kernel), noisy)
	byName := make(map[string]metric, len(table))
	for _, m := range table {
		byName[m.name] = m
	}
	for _, s := range o.Metrics {
		q1, q3 := quartiles(s.Samples)
		line := fmt.Sprintf("   %-24s %-9s %14.6g  q1 %.6g  q3 %.6g", s.Name, s.Unit, median(s.Samples), q1, q3)
		m := byName[strings.TrimSuffix(s.Name, rawSuffix)]
		if o.Traced {
			line += fmt.Sprintf("  n=%d  [%s] moves %s", len(s.Samples), m.kind, m.moves)
		} else {
			if pct, v, ok := tail(s.Samples, m.better); ok {
				line += fmt.Sprintf("  p%d %.6g", pct, v)
			}
			line += fmt.Sprintf("  n=%d", len(s.Samples))
		}
		fmt.Fprintln(w, line)
	}
	if len(o.Digests) > 0 {
		fmt.Fprintf(w, "   digest: rep 0 %s, %d reps\n", o.Digests[0], len(o.Digests))
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	sum := summary{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]value, len(table))}
	for _, m := range table {
		sum.Metrics[m.name] = value{Value: median(o.samples(m.name)), Unit: m.unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		panic(err) // medians of finite samples always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wlbench compare BASE.json CANDIDATE.json")
		return 2
	}
	var sides [2][]*outcome
	for i, path := range args {
		outs, err := readResults(path)
		if err == nil && len(outs) == 0 {
			err = fmt.Errorf("%s: no results", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlbench:", err)
			return 2
		}
		sides[i] = outs
	}
	if compare(os.Stdout, sides[0], sides[1]) {
		return 0
	}
	return 1
}

// Command benchgate turns `go test -bench` output into the repo's
// BENCH_*.json format and enforces the CI performance gate against a
// checked-in baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 3x -count 3 ./... | benchgate parse -out BENCH_pr.json
//	benchgate check -baseline BENCH_baseline.json -current BENCH_pr.json -max-regress-pct 20
//
// parse reads benchmark text on stdin (or -in), keeps the fastest of the
// repeated runs of each benchmark (min ns/op — repeats absorb scheduler
// noise), and writes the JSON snapshot. check compares two snapshots and
// exits nonzero if any benchmark present in both regressed its ns/op OR
// its allocs/op by more than the threshold, printing a per-benchmark table
// with both columns either way.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the BENCH_*.json schema shared with BENCH_baseline.json.
type Snapshot struct {
	Note        string            `json:"note"`
	Environment map[string]string `json:"environment"`
	Go          string            `json:"go"`
	Benchmarks  []Benchmark       `json:"benchmarks"`
}

// Benchmark is one benchmark's fastest run.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		parseCmd(os.Args[2:])
	case "check":
		checkCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchgate parse [-in file] [-out file] [-note text] | benchgate check -baseline file -current file [-max-regress-pct 20] [-require Name1,Name2]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// benchLine matches one result line: name, iterations, then metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parse reads `go test -bench` text and keeps each benchmark's fastest run.
func parse(r io.Reader, note string) (*Snapshot, error) {
	snap := &Snapshot{
		Note:        note,
		Environment: map[string]string{},
		Go:          runtime.Version(),
	}
	best := map[string]*Benchmark{}
	var order []string
	var pkgs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				snap.Environment[key] = v
			}
		}
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkgs = append(pkgs, v)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		// Strip the -GOMAXPROCS suffix so names are stable across hosts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		metrics, err := parseMetrics(m[3])
		if err != nil || metrics["ns/op"] == 0 {
			continue
		}
		// Prefer the highest-iteration methodology for a benchmark, then
		// the fastest run within it. A 3-iteration sample finishes before
		// the allocator reaches GC steady state and reads systematically
		// faster than a 1000-iteration sample of the same code; comparing
		// across those methodologies would gate on the wrong signal.
		b := &Benchmark{Name: name, Iterations: iters, Metrics: metrics}
		prev, seen := best[name]
		switch {
		case !seen:
			order = append(order, name)
			best[name] = b
		case b.Iterations > prev.Iterations:
			best[name] = b
		case b.Iterations == prev.Iterations && b.Metrics["ns/op"] < prev.Metrics["ns/op"]:
			best[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark results found in input")
	}
	sort.Strings(pkgs)
	snap.Environment["pkg"] = strings.Join(dedup(pkgs), ",")
	for _, name := range order {
		snap.Benchmarks = append(snap.Benchmarks, *best[name])
	}
	return snap, nil
}

// parseMetrics parses "1732840 ns/op\t108.3 ns/event\t..." pairs.
func parseMetrics(s string) (map[string]float64, error) {
	fields := strings.Fields(s)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("odd metric fields in %q", s)
	}
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, err
		}
		out[fields[i+1]] = v
	}
	return out, nil
}

func dedup(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func parseCmd(args []string) {
	in, out, note := "", "", "Recorded by benchgate parse (fastest of repeated runs)."
	for i := 0; i < len(args); i += 2 {
		if i+1 >= len(args) {
			usage()
		}
		switch args[i] {
		case "-in":
			in = args[i+1]
		case "-out":
			out = args[i+1]
		case "-note":
			note = args[i+1]
		default:
			usage()
		}
	}
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	snap, err := parse(r, note)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(snap.Benchmarks), out)
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

func checkCmd(args []string) {
	baselinePath, currentPath, require := "", "", ""
	maxRegressPct := 20.0
	for i := 0; i < len(args); i++ {
		if i+1 >= len(args) {
			usage()
		}
		switch args[i] {
		case "-baseline":
			baselinePath = args[i+1]
		case "-current":
			currentPath = args[i+1]
		case "-require":
			require = args[i+1]
		case "-max-regress-pct":
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				fatal(err)
			}
			maxRegressPct = v
		default:
			usage()
		}
		i++
	}
	if baselinePath == "" || currentPath == "" {
		usage()
	}
	baseline, err := load(baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := load(currentPath)
	if err != nil {
		fatal(err)
	}
	base := map[string]Benchmark{}
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	limit := 1 + maxRegressPct/100
	type row struct {
		cur        Benchmark
		base       Benchmark
		ratio      float64 // ns/op ratio
		allocRatio float64 // allocs/op ratio (0/0 compares as 1)
		hasAllocs  bool    // both sides carry the allocs/op metric
	}
	var rows []row
	for _, cur := range current.Benchmarks {
		b, ok := base[cur.Name]
		if !ok {
			fmt.Printf("%-45s new benchmark, %0.f ns/op (no baseline)\n", cur.Name, cur.Metrics["ns/op"])
			continue
		}
		r := row{cur: cur, base: b, ratio: cur.Metrics["ns/op"] / b.Metrics["ns/op"]}
		// A genuine 0 must stay gated — the zero-alloc benchmarks are
		// exactly the ones a silent `> 0` guard would exempt — so only a
		// metric missing on either side (a run without -benchmem)
		// disables the allocation comparison for the row.
		ba, baseHas := b.Metrics["allocs/op"]
		ca, curHas := cur.Metrics["allocs/op"]
		if r.hasAllocs = baseHas && curHas; r.hasAllocs {
			switch {
			case ba > 0:
				r.allocRatio = ca / ba
			case ca == 0:
				r.allocRatio = 1 // 0 -> 0: unchanged
			default:
				r.allocRatio = math.Inf(1) // 0 -> nonzero: unbounded regression
			}
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", baselinePath, currentPath))
	}
	failed := 0
	fmt.Printf("%-45s %14s %14s %8s %14s %14s %8s\n",
		"benchmark", "baseline ns/op", "current ns/op", "ratio",
		"base allocs/op", "cur allocs/op", "ratio")
	for _, r := range rows {
		mark := ""
		if r.ratio > limit {
			mark = "  REGRESSION(ns/op)"
			failed++
		}
		allocCol := fmt.Sprintf("%7s ", "-")
		if r.hasAllocs {
			allocCol = fmt.Sprintf("%7.2fx", r.allocRatio)
			if r.allocRatio > limit {
				mark += "  REGRESSION(allocs/op)"
				failed++
			}
		}
		fmt.Printf("%-45s %14.0f %14.0f %7.2fx %14.0f %14.0f %s%s\n",
			r.cur.Name, r.base.Metrics["ns/op"], r.cur.Metrics["ns/op"], r.ratio,
			r.base.Metrics["allocs/op"], r.cur.Metrics["allocs/op"], allocCol, mark)
	}
	compared := len(rows)
	// The current snapshot is normally a gated subset of the baseline, so a
	// missing baseline entry is not an error by itself — but the benchmarks
	// the gate exists for must not silently drop out (a renamed benchmark
	// or a stale -bench pattern would otherwise weaken the gate to a no-op).
	if require != "" {
		have := map[string]bool{}
		for _, b := range current.Benchmarks {
			have[b.Name] = true
		}
		for _, name := range strings.Split(require, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			if !have[name] {
				fatal(fmt.Errorf("required benchmark %s missing from %s (renamed, or the bench pattern no longer matches?)", name, currentPath))
			}
			if _, ok := base[name]; !ok {
				fatal(fmt.Errorf("required benchmark %s missing from baseline %s (stale baseline?)", name, baselinePath))
			}
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d regression(s) across %d benchmarks exceeded %.0f%% (ns/op or allocs/op)", failed, compared, maxRegressPct))
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline (ns/op and allocs/op)\n", compared, maxRegressPct)
}

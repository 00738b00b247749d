// Command wlgen is the workload generator's command-line front end.
//
// Subcommands:
//
//	wlgen spec  [-o spec.json]                 write the default spec
//	wlgen mkfs  [-spec spec.json]              build the initial file system, print Table 5.1 stats
//	wlgen run   [-spec spec.json] [-log f]     run the experiment, print a summary
//	wlgen analyze -log usage.jsonl             analyze a usage log (the Usage Analyzer)
//	wlgen fit   [-family gamma] [-in f]        fit a distribution to samples, print its DistSpec
//	wlgen validate -log usage.jsonl [-spec f]  check a usage log's statistical similarity to its spec
//	wlgen replay -log usage.jsonl [-out f]     re-execute a usage log (the trace-data baseline)
//	wlgen script [-dirs n] [-files n]          run the Andrew-style benchmark script (the benchmark baseline)
//	wlgen scenario {list|dump|run}             declarative experiments (see scenario.go)
//	wlgen paper -out paper_runs/               regenerate every figure/table artifact (see paper.go)
//	wlgen paper -diff A B                      compare two artifact folders cell by cell
//
// Without -spec, the thesis's §5.1 default configuration is used. Both run
// and analyze fold records into the streaming Summarizer as they arrive.
// run keeps the full records exactly when -log asks for them, whatever the
// spec's trace mode; without -log its memory stays O(sessions).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/report"
	"uswg/internal/rng"
	"uswg/internal/stats"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "mkfs":
		err = cmdMkfs(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "fit":
		err = cmdFit(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "script":
		err = cmdScript(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "paper":
		err = cmdPaper(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wlgen {spec|mkfs|run|analyze|fit|validate|replay|script|scenario|paper} [flags]")
	os.Exit(2)
}

func loadSpec(path string) (*config.Spec, error) {
	if path == "" {
		return config.Default(), nil
	}
	return config.Load(path)
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	spec := config.Default()
	if *out == "" {
		return spec.Encode(os.Stdout)
	}
	return spec.Save(*out)
}

func cmdMkfs(args []string) error {
	fs := flag.NewFlagSet("mkfs", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec (default built-in)")
	_ = fs.Parse(args)
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	tables, err := gds.BuildTables(spec)
	if err != nil {
		return err
	}
	memfs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	ctx := &vfs.ManualClock{}
	inv, err := fsc.Build(ctx, memfs, spec, tables, rng.Derive(spec.Seed, "fsc"))
	if err != nil {
		return err
	}
	st, err := inv.Stats(ctx, memfs, spec)
	if err != nil {
		return err
	}
	rows := make([][]string, len(st))
	for i, s := range st {
		rows[i] = []string{s.Name, fmt.Sprint(s.Files), report.F(s.MeanSize), report.F(s.PercentFiles)}
	}
	fmt.Printf("created %d files, %d bytes\n\n", inv.FilesCreated, inv.BytesCreated)
	fmt.Println(report.Table([]string{"category", "files", "mean size", "% of files"}, rows))
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec (default built-in)")
	logPath := fs.String("log", "", "write the usage log as JSONL")
	_ = fs.Parse(args)
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	spec.Trace.Mode = config.TraceStream
	if *logPath != "" {
		spec.Trace.Mode = config.TraceLog
	}
	gen, err := core.NewGenerator(spec)
	if err != nil {
		return err
	}
	res, err := gen.Run()
	if err != nil {
		return err
	}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := gen.Log().WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("usage log: %s (%d records)\n", *logPath, gen.Log().Len())
	}
	printSummary(os.Stdout, spec, res, gen)
	return nil
}

// printSummary writes the run summary. A fleet of more than one island
// gets one pair of server lines per island, labeled by island index.
func printSummary(w io.Writer, spec *config.Spec, res *core.Result, gen *core.Generator) {
	a := res.Analysis
	fmt.Fprintf(w, "experiment %q: %d sessions, %d users, fs=%s\n",
		spec.Name, res.Sessions, spec.Users, spec.FS.Kind)
	if res.VirtualDuration > 0 {
		fmt.Fprintf(w, "virtual duration: %.0f µs\n", res.VirtualDuration)
	}
	fmt.Fprintf(w, "operations: %d (%d errors)\n", a.Ops, a.Errors)
	fmt.Fprintf(w, "access size:   mean %s B (std %s)\n", report.F(a.AccessSize.Mean()), report.F(a.AccessSize.Std()))
	fmt.Fprintf(w, "response time: mean %s µs (std %s)\n", report.F(a.Response.Mean()), report.F(a.Response.Std()))
	fmt.Fprintf(w, "response/byte: %s µs/B\n", report.F(a.MeanResponsePerByte()))
	servers := gen.Servers()
	for i, srv := range servers {
		name := "server"
		if len(servers) > 1 {
			name = fmt.Sprintf("server %d", i)
		}
		fmt.Fprintf(w, "nfs %s: %d RPCs, nfsd utilization %.1f%%, mean daemon wait %s µs\n",
			name, srv.Calls(), 100*srv.NFSDUtilization(), report.F(srv.MeanNFSDWait()))
		fmt.Fprintf(w, "%s cache hit rate: %.1f%%\n", name, 100*srv.Cache().HitRate())
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	logPath := fs.String("log", "", "usage log (JSONL) to analyze")
	bins := fs.Int("bins", 30, "histogram bins")
	smooth := fs.Int("smooth", 5, "smoothing window (bins)")
	_ = fs.Parse(args)
	if *logPath == "" {
		return fmt.Errorf("analyze: -log is required")
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	// Each decoded record folds straight into the Usage Analyzer's
	// accumulators, so a log of any size analyzes in O(sessions) memory.
	sum := trace.NewSummarizer()
	if _, err := trace.DecodeJSONL(f, sum); err != nil {
		return err
	}
	a := sum.Finish()

	fmt.Printf("%d records, %d sessions, %d errors\n\n", a.Ops, len(a.Sessions), a.Errors)
	rows := make([][]string, len(a.ByOp))
	for i, op := range a.ByOp {
		rows[i] = []string{
			op.Op.String(), fmt.Sprint(op.Count),
			report.F(op.Size.Mean()), report.F(op.Response.Mean()), report.F(op.Response.Std()),
		}
	}
	fmt.Println(report.Table([]string{"op", "count", "mean bytes", "mean resp (µs)", "std resp"}, rows))

	plot := func(title, xlabel string, max float64, f func(trace.SessionUsage) float64) error {
		h, err := stats.NewHistogram(0, max, *bins)
		if err != nil {
			return err
		}
		for _, v := range a.SessionValues(f) {
			h.Add(v)
		}
		fmt.Println(report.HistogramPlot(h, 60, 10, title+" (before smoothing)", xlabel))
		fmt.Println(report.HistogramPlot(h.Smoothed(*smooth), 60, 10, title+" (after smoothing)", xlabel))
		return nil
	}
	maxOf := func(f func(trace.SessionUsage) float64) float64 {
		m := 1.0
		for _, v := range a.SessionValues(f) {
			if v > m {
				m = v
			}
		}
		return m * 1.05
	}
	apb := func(s trace.SessionUsage) float64 { return s.AccessPerByte }
	fsz := func(s trace.SessionUsage) float64 { return s.AvgFileSize }
	nf := func(s trace.SessionUsage) float64 { return float64(s.FilesReferenced) }
	if err := plot("average access-per-byte", "access-per-byte", maxOf(apb), apb); err != nil {
		return err
	}
	if err := plot("average file size", "bytes", maxOf(fsz), fsz); err != nil {
		return err
	}
	return plot("average number of files referenced", "files", maxOf(nf), nf)
}

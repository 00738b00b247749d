package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"uswg/internal/artifact"
	"uswg/internal/baseline"
	"uswg/internal/config"
	"uswg/internal/dist"
	"uswg/internal/gds"
	"uswg/internal/report"
	"uswg/internal/trace"
	"uswg/internal/validate"
	"uswg/internal/vfs"
)

// cmdFit reads one sample per line from stdin (or -in) and fits the chosen
// distribution family, printing the resulting DistSpec as JSON — the GDS's
// fitting function (thesis §4.1.1).
func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	family := fs.String("family", "gamma", "exponential | phase-exp | gamma")
	stages := fs.Int("stages", 2, "number of stages for phase-exp/gamma")
	in := fs.String("in", "", "samples file, one value per line (default stdin)")
	plot := fs.Bool("plot", false, "also render the fitted density")
	_ = fs.Parse(args)

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var samples []float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return fmt.Errorf("fit: bad sample %q: %w", line, err)
		}
		samples = append(samples, v)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	spec, d, err := gds.Fit(samples, gds.FitFamily(*family), *stages)
	if err != nil {
		return err
	}
	out := struct {
		Fitted config.DistSpec `json:"fitted"`
		N      int             `json:"n"`
		Mean   float64         `json:"mean"`
	}{spec, len(samples), d.Mean()}
	enc := newJSONEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		return err
	}
	if *plot {
		if den, ok := d.(dist.Density); ok {
			hi := 4 * d.Mean()
			fmt.Println(report.Density(den, 0, hi, 60, 12, "fitted "+*family))
		}
	}
	return nil
}

func newJSONEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}

// cmdValidate runs the statistical-similarity checks of a usage log against
// its spec (the thesis's §2.2 criterion).
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec (default built-in)")
	logPath := fs.String("log", "", "usage log (JSONL)")
	alpha := fs.Float64("alpha", 0.01, "rejection level")
	_ = fs.Parse(args)
	if *logPath == "" {
		return fmt.Errorf("validate: -log is required")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	rep, err := validate.Workload(spec, log)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if failed := rep.Failed(*alpha); len(failed) > 0 {
		return fmt.Errorf("validate: %d check(s) rejected at alpha=%g", len(failed), *alpha)
	}
	return nil
}

// cmdReplay re-executes a recorded usage log against a fresh in-memory file
// system (the trace-data baseline of §2.1).
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	logPath := fs.String("log", "", "usage log (JSONL) to replay")
	out := fs.String("out", "", "write the replayed log as JSONL")
	_ = fs.Parse(args)
	if *logPath == "" {
		return fmt.Errorf("replay: -log is required")
	}
	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	memfs := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	ctx := &vfs.ManualClock{}
	var replayLog trace.Log
	n, err := baseline.Replay(ctx, memfs, log.Records(), &replayLog)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d of %d operations in %.0f µs of virtual time\n", n, log.Len(), ctx.Now())
	if *out != "" {
		return artifact.WriteFile(*out, replayLog.WriteJSONL)
	}
	return nil
}

// cmdScript runs the Andrew-style benchmark script (the benchmark baseline
// of §2.1) and prints its operation summary.
func cmdScript(args []string) error {
	fs := flag.NewFlagSet("script", flag.ExitOnError)
	dirs := fs.Int("dirs", 10, "directories")
	files := fs.Int("files", 7, "files per directory")
	size := fs.Int64("size", 16<<10, "file size, bytes")
	out := fs.String("log", "", "write the usage log as JSONL")
	_ = fs.Parse(args)

	cfg := baseline.ScriptConfig{Dirs: *dirs, FilesPerDir: *files, FileSize: *size, Chunk: 4096}
	memfs := vfs.NewMemFS(vfs.WithCostModel(vfs.NewLocalCost(nil, vfs.DefaultLocalCostConfig())), vfs.WithMaxFDs(1<<20))
	ctx := &vfs.ManualClock{}
	var log trace.Log
	if err := baseline.Script(ctx, memfs, "/bench", cfg, &log, 0); err != nil {
		return err
	}
	a := trace.Analyze(&log)
	fmt.Printf("script: %d ops in %.0f µs of virtual time\n\n", log.Len(), ctx.Now())
	rows := make([][]string, len(a.ByOp))
	for i, op := range a.ByOp {
		rows[i] = []string{op.Op.String(), fmt.Sprint(op.Count), report.F(op.Response.Mean())}
	}
	fmt.Println(report.Table([]string{"op", "count", "mean resp (µs)"}, rows))
	if *out != "" {
		return artifact.WriteFile(*out, log.WriteJSONL)
	}
	return nil
}

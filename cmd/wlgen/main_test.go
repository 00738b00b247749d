package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/trace"
)

// TestRunLogOnStreamingSpec: -log decides whether run keeps records, so a
// spec whose trace mode streams still writes its usage log, one record per
// operation of the run.
func TestRunLogOnStreamingSpec(t *testing.T) {
	dir := t.TempDir()
	spec := config.Default()
	spec.Users, spec.Sessions = 4, 40
	spec.Trace.Mode = config.TraceStream
	specPath, logPath := filepath.Join(dir, "s.json"), filepath.Join(dir, "x.jsonl")
	if err := spec.Save(specPath); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-spec", specPath, "-log", logPath}); err != nil {
		t.Fatal(err)
	}

	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := trace.DecodeJSONL(f, trace.Discard{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != res.Analysis.Ops {
		t.Errorf("usage log holds %d records, the run executed %d operations", n, res.Analysis.Ops)
	}
}

// TestPrintSummaryReportsEveryIsland: on a two-island fleet the summary
// lists each island's RPC count beside the fleet's, and the islands' counts
// add up to the whole fleet's, not island 0's alone.
func TestPrintSummaryReportsEveryIsland(t *testing.T) {
	spec := config.Default()
	spec.Users, spec.Sessions = 4, 40
	spec.FS.Topology = &config.Topology{Servers: 2}
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, srv := range gen.Servers() {
		want += srv.Calls()
	}
	var out bytes.Buffer
	printSummary(&out, spec, res, gen)

	calls := map[string]int64{}
	for _, line := range strings.Split(out.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "nfs.server_calls") {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		calls[name] = n
	}
	if len(calls) != 3 {
		t.Fatalf("%d nfs.server_calls lines, want the fleet's and 2 islands':\n%s", len(calls), out.String())
	}
	total, one := calls["nfs.server_calls"], calls["nfs.server_calls.1"]
	if total != want || calls["nfs.server_calls.0"]+one != total || one == 0 {
		t.Errorf("fleet line reads %d RPCs, islands %d + %d, the fleet served %d", total, calls["nfs.server_calls.0"], one, want)
	}
}

// TestPrintWindowsSumsToRun: a spec that sets trace.window_us gets its
// windowed series printed, one row per window in time order, and the rows'
// operation counts add up to the run's.
func TestPrintWindowsSumsToRun(t *testing.T) {
	spec := config.Default()
	spec.Users, spec.Sessions = 3, 12
	spec.Trace.WindowUS = 1e6
	gen, err := core.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printWindows(&out, spec, gen); err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(out.String(), "\n---")
	if !ok {
		t.Fatalf("no windowed table in:\n%s", out.String())
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")[1:]
	ops := 0
	for i, row := range rows {
		f := strings.Fields(row)
		if len(f) != 7 || f[0] != strconv.Itoa(i) {
			t.Fatalf("row %d = %q, want window %d's 7 columns", i, row, i)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatal(err)
		}
		ops += n
	}
	wins, err := gen.Windows().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(wins) || len(rows) < 2 {
		t.Errorf("%d window rows, the collector holds %d windows (want at least 2)", len(rows), len(wins))
	}
	if ops != res.Analysis.Ops {
		t.Errorf("window rows hold %d ops, the run executed %d", ops, res.Analysis.Ops)
	}
}

// TestScriptLogDigest pins the usage log of `wlgen script` at its defaults
// byte for byte. The script drives the simulated local file system on a
// synchronous clock, with no DES, a path no run of the generator takes.
func TestScriptLogDigest(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "script.jsonl")
	if err := cmdScript([]string{"-log", logPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9598eb3835db37d44c5037a5e9fe7fae48ee4a9fca6aaac90ecaa6b539cebed2"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("%d records hash to %s, want %s", bytes.Count(data, []byte("\n")), got, want)
	}
}

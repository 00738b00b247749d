package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
// prints one server line per island, and their RPC counts add up to the
// whole fleet's, not island 0's alone.
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

	var got int64
	islands := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "nfs server") {
			continue
		}
		var island int
		var calls int64
		if _, err := fmt.Sscanf(line, "nfs server %d: %d RPCs", &island, &calls); err != nil {
			t.Fatalf("server line %q: %v", line, err)
		}
		if island != islands {
			t.Errorf("server line %q out of island order", line)
		}
		got += calls
		islands++
	}
	if islands != 2 {
		t.Errorf("%d server lines, want 2:\n%s", islands, out.String())
	}
	if got != want || gen.Servers()[1].Calls() == 0 {
		t.Errorf("server lines sum to %d RPCs, the fleet served %d (island 1: %d)", got, want, gen.Servers()[1].Calls())
	}
}

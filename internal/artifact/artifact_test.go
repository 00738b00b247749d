package artifact

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uswg/internal/scenario"
)

// kindCoverage picks one registered scenario per output contract kind, so the
// pipeline test exercises every artifact shape the engine can produce.
var kindCoverage = []string{
	"table5.1", // file-characterization
	"table5.2", // usage-characterization
	"table5.3", // table
	"table5.4", // user-types
	"fig5.1",   // densities
	"fig5.3",   // usage-histograms
	"fig5.6",   // curve
	"fault5.1", // grid
	"fault5.6", // transient
}

func testOptions(only []string) Options {
	return Options{
		Only:      only,
		Run:       scenario.Options{Scale: 0.05, Parallelism: 4},
		GitSHA:    "test-sha",
		GoVersion: "go-test",
		Now:       func() time.Time { return time.Unix(1700000000, 0) },
	}
}

func generate(t *testing.T, dir string, only []string) *Manifest {
	t.Helper()
	m, err := Generate(context.Background(), dir, testOptions(only))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return m
}

// TestGenerateEveryKind runs one scenario of each output kind and checks the
// folder contract: every scenario gets a resolved spec, a CSV, a JSON, a
// rendered log, and — when the result reduces to x/y series — plots.
func TestGenerateEveryKind(t *testing.T) {
	dir := t.TempDir()
	m := generate(t, dir, kindCoverage)

	if len(m.Scenarios) != len(kindCoverage) {
		t.Fatalf("manifest has %d scenarios, want %d", len(m.Scenarios), len(kindCoverage))
	}
	if m.GitSHA != "test-sha" || m.GoVersion != "go-test" {
		t.Errorf("manifest stamp = %q/%q", m.GitSHA, m.GoVersion)
	}
	if m.Seed != 1991 || m.Scale != 0.05 {
		t.Errorf("manifest seed/scale = %d/%g, want 1991/0.05", m.Seed, m.Scale)
	}
	if m.Generated != "2023-11-14T22:13:20Z" {
		t.Errorf("manifest generated = %q (Now not honored)", m.Generated)
	}

	mustExist := func(rel string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
			t.Errorf("missing artifact %s", rel)
		}
	}
	for i, name := range kindCoverage {
		e := m.Scenarios[i]
		if e.Name != name {
			t.Fatalf("manifest order: entry %d = %q, want %q", i, e.Name, name)
		}
		stem := fileName(name)
		mustExist(DirScenarios + "/" + stem + ".json")
		mustExist(DirPoints + "/" + stem + ".csv")
		mustExist(DirPoints + "/" + stem + ".json")
		mustExist(DirLogs + "/" + stem + ".txt")
		for _, f := range e.Files {
			mustExist(f)
		}
	}
	mustExist(ManifestFile)
	mustExist(DirLogs + "/run.log")

	// The series-shaped kinds must plot in all three forms.
	for _, name := range []string{"fig5.1", "fig5.6", "fault5.6"} {
		for _, ext := range []string{".txt", ".svg", ".json"} {
			mustExist(DirPlots + "/" + fileName(name) + ext)
		}
	}

	// Run-based scenarios must account their simulated work.
	for _, e := range m.Scenarios {
		switch e.Name {
		case "table5.2", "table5.3", "fig5.3", "fig5.6", "fault5.1", "fault5.6":
			if e.Stats.Ops == 0 || e.Stats.Sessions == 0 {
				t.Errorf("%s: stats %+v — run-based scenario reported no work", e.Name, e.Stats)
			}
		}
	}

	// The manifest on disk round-trips.
	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if len(back.Scenarios) != len(m.Scenarios) || back.Seed != m.Seed {
		t.Errorf("manifest round-trip mismatch: %d scenarios seed %d", len(back.Scenarios), back.Seed)
	}
}

// TestPointFilesRoundTrip checks that every generated CSV and JSON parses
// back to the scenario's Tabular view — the files are data, not display.
func TestPointFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	generate(t, dir, kindCoverage)

	for _, name := range kindCoverage {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		res, _, err := scenario.RunWithStats(context.Background(), sc, scenario.Options{Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab, ok := res.(scenario.Tabular)
		if !ok {
			t.Fatalf("%s: result is not Tabular — every output kind must have a machine view", name)
		}
		wantTitle, wantHeaders, wantRows := tab.Table()

		stem := fileName(name)
		jf, err := os.Open(filepath.Join(dir, DirPoints, stem+".json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		title, headers, rows, err := ReadTableJSON(jf)
		jf.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if title != wantTitle {
			t.Errorf("%s: json title %q, want %q", name, title, wantTitle)
		}
		checkTable(t, name+" json", headers, rows, wantHeaders, wantRows)

		cf, err := os.Open(filepath.Join(dir, DirPoints, stem+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		headers, rows, err = ReadTableCSV(cf)
		cf.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkTable(t, name+" csv", headers, rows, wantHeaders, wantRows)
	}
}

func checkTable(t *testing.T, label string, headers []string, rows [][]string, wantHeaders []string, wantRows [][]string) {
	t.Helper()
	if strings.Join(headers, "\x00") != strings.Join(wantHeaders, "\x00") {
		t.Errorf("%s: headers %q, want %q", label, headers, wantHeaders)
		return
	}
	if len(rows) != len(wantRows) {
		t.Errorf("%s: %d rows, want %d", label, len(rows), len(wantRows))
		return
	}
	for i := range rows {
		if strings.Join(rows[i], "\x00") != strings.Join(wantRows[i], "\x00") {
			t.Errorf("%s: row %d = %q, want %q", label, i, rows[i], wantRows[i])
			return
		}
	}
}

// TestGenerateDeterministic regenerates the same subset at different
// parallelism and requires the comparable content to be byte-identical — the
// determinism contract the folder diff relies on.
func TestGenerateDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	optsA := testOptions([]string{"table5.3", "fig5.6", "fault5.6"})
	optsB := optsA
	optsB.Run.Parallelism = 1
	if _, err := Generate(context.Background(), a, optsA); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(context.Background(), b, optsB); err != nil {
		t.Fatal(err)
	}
	requireSameContent(t, a, b)
}

// TestRunAllParallelismDeterminism locks in the cross-scenario fan-out's
// contract: Generate runs whole scenarios concurrently, yet every registered
// scenario's output must be byte-identical to a sequential run — each
// scenario derives its seeds from Options alone.
func TestRunAllParallelismDeterminism(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	optsA := testOptions(nil)
	optsA.Run.Parallelism = 8
	optsB := optsA
	optsB.Run.Parallelism = 1
	if _, err := Generate(context.Background(), a, optsA); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(context.Background(), b, optsB); err != nil {
		t.Fatal(err)
	}
	requireSameContent(t, a, b)
}

// requireSameContent requires every points, scenarios and plots file of
// folder a to exist byte-identical in folder b.
func requireSameContent(t *testing.T, a, b string) {
	t.Helper()
	for _, sub := range []string{DirPoints, DirScenarios, DirPlots} {
		namesA, err := listFiles(filepath.Join(a, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(namesA) == 0 {
			t.Fatalf("%s: no files generated", sub)
		}
		for _, n := range namesA {
			ba, err := os.ReadFile(filepath.Join(a, sub, n))
			if err != nil {
				t.Fatal(err)
			}
			bb, err := os.ReadFile(filepath.Join(b, sub, n))
			if err != nil {
				t.Fatalf("%s/%s missing on second run: %v", sub, n, err)
			}
			if !bytes.Equal(ba, bb) {
				t.Errorf("%s/%s differs between parallel and sequential runs", sub, n)
			}
		}
	}
}

func TestResolveNames(t *testing.T) {
	all, err := resolveNames(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(scenario.Names()) {
		t.Errorf("nil Only resolved %d names, want all %d", len(all), len(scenario.Names()))
	}

	// Aliases resolve to canonical names and duplicates collapse.
	got, err := resolveNames([]string{"fig5.4", "fig5.3", " fig5.3 ", ""})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "fig5.3" {
		t.Errorf("alias resolution = %q, want [fig5.3]", got)
	}

	if _, err := resolveNames([]string{"nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := resolveNames([]string{" ", ""}); err == nil {
		t.Error("all-blank Only accepted")
	}

	// A bad scale is rejected like a bad name: before any folder is written.
	for _, scale := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		dir := filepath.Join(t.TempDir(), "out")
		opts := testOptions([]string{"fig5.12"})
		opts.Run.Scale = scale
		if _, err := Generate(context.Background(), dir, opts); !errors.Is(err, scenario.ErrScenario) {
			t.Errorf("scale %v: err = %v, want ErrScenario", scale, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("scale %v: folder written before validation", scale)
		}
	}
}

// TestWriteRunLogReportsWriteErrors: a run log that cannot be written fails
// generation instead of reporting success.
func TestWriteRunLogReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	if err := writeRunLog("/dev/full", &Manifest{}); err == nil {
		t.Error("writeRunLog on a full device returned nil")
	}
}

package artifact

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uswg/internal/scenario"
)

// goldenDir holds the committed artifact folder of every registered scenario
// at -scale 0.2, generated at -parallel 1.
const goldenDir = "testdata/golden"

// TestGolden regenerates every registered scenario at Parallelism 8 and
// requires a clean ULP-tolerant diff against the committed folder, which was
// generated at Parallelism 1. One run proves two things for every scenario:
// parallel fan-out (of points and of whole scenarios) reproduces sequential
// output, and the code still produces the recorded data. It is the same
// comparison the CI paper-artifacts job runs via `wlgen paper -diff`.
//
// The folder's scenarios/ entry is a symlink to the scenario package's
// built-in files (internal/scenario/builtin), so the resolved specs exist
// once and the diff checks that each registered scenario still dumps to its
// own file.
//
// If an intentional change to the engine, a scenario, or the artifact format
// moves the numbers, regenerate points/ and plots/ and review the data diff
// (scenarios/ is the built-in set itself; edit the files there):
//
//	go run ./cmd/wlgen paper -out /tmp/g -stamp golden -scale 0.2 -parallel 1
//	for d in points plots; do
//		rm -rf internal/artifact/testdata/golden/$d
//		cp -r /tmp/g/golden/$d internal/artifact/testdata/golden/$d
//	done
func TestGolden(t *testing.T) {
	link := filepath.Join(goldenDir, DirScenarios)
	fi, err := os.Lstat(link)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("%s is a copy, not a symlink to internal/scenario/builtin (regenerate only points/ and plots/)", link)
	}
	got, err := filepath.EvalSymlinks(link)
	if err != nil {
		t.Fatal(err)
	}
	want, err := filepath.EvalSymlinks(filepath.Join("..", "scenario", "builtin"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s resolves to %s, want %s", link, got, want)
	}

	dir := t.TempDir()
	opts := Options{Run: scenario.Options{Scale: 0.2, Parallelism: 8}}
	if _, err := Generate(context.Background(), dir, opts); err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffDirs(goldenDir, dir, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stem := func(d Difference) string {
		base := filepath.Base(d.File)
		return strings.TrimSuffix(base, filepath.Ext(base))
	}
	owned := make(map[string]bool)
	for _, name := range scenario.Names() {
		owned[fileName(name)] = true
		t.Run(name, func(t *testing.T) {
			for _, d := range diffs {
				if stem(d) == fileName(name) {
					t.Errorf("drift vs golden: %s", d)
				}
			}
		})
	}
	for _, d := range diffs {
		if !owned[stem(d)] {
			t.Errorf("file of no registered scenario: %s", d)
		}
	}
	if len(diffs) > 0 {
		t.Log("if this change is intentional, regenerate testdata/golden (see test comment)")
	}
}

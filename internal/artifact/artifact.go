// Package artifact is the paper results pipeline: it regenerates the
// complete artifact set of the reproduction — every registered scenario's
// points, plots, resolved spec, and rendered log — into one timestamped,
// self-describing folder, and compares two such folders cell by cell.
//
// It sits at the very end of the DES→workload→trace→analysis pipeline: the
// scenario engine runs the experiments, the trace layer reduces them, and
// this package files the results so a whole paper's figures and tables
// regenerate with one command (`wlgen paper -out paper_runs/`) and drift
// between two runs is a one-command check (`wlgen paper -diff A B`).
//
// A generated folder has this layout:
//
//	<dir>/
//	  manifest.json        run metadata: git SHA, go version, seed, scale,
//	                       per-scenario wall time and trace counters, and a
//	                       snapshot of BENCH_*.json when present
//	  points/<name>.csv    the scenario's table, one row per point/bin
//	  points/<name>.json   the same table with its title ({title,headers,rows})
//	  scenarios/<name>.json  the resolved scenario spec (wlgen scenario dump)
//	  plots/<name>.txt     ASCII plot   (curve, transient, densities kinds)
//	  plots/<name>.svg     SVG plot     (same kinds)
//	  plots/<name>.json    the plot's data (report.CurvePlot; `gdsplot -curve`)
//	  logs/<name>.txt      the scenario's full rendered output
//	  logs/run.log         one timing line per scenario
//
// Determinism contract: points/, scenarios/, and plots/ depend only on
// (seed, scale, scenario set) — never on parallelism or wall-clock — so two
// identically-seeded runs diff empty. manifest.json and logs/ carry
// wall-clock metadata and are excluded from DiffDirs.
package artifact

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uswg/internal/scenario"
)

// Options configure one Generate run.
type Options struct {
	// Only restricts generation to these scenario names or aliases; empty
	// regenerates every registered scenario.
	Only []string
	// Run seeds, scales, and parallelizes the scenario engine; scenarios
	// additionally fan out across Run.Parallelism workers.
	Run scenario.Options
	// GitSHA and GoVersion stamp the manifest (resolved by the caller; the
	// library stays exec-free).
	GitSHA    string
	GoVersion string
	// BenchFiles are BENCH_*.json snapshots to embed in the manifest.
	BenchFiles []string
	// Log receives one progress line per scenario (nil = silent).
	Log io.Writer
	// Now supplies the manifest timestamp (nil = time.Now; tests pin it).
	Now func() time.Time
}

// Subdirectories of a generated artifact folder.
const (
	DirPoints    = "points"
	DirScenarios = "scenarios"
	DirPlots     = "plots"
	DirLogs      = "logs"
)

// ManifestFile is the metadata file's name inside an artifact folder.
const ManifestFile = "manifest.json"

// plot rendering sizes: ASCII fits a terminal/log, SVG fits a paper column.
const (
	asciiPlotW, asciiPlotH = 72, 18
	svgPlotW, svgPlotH     = 640, 420
)

// resolveNames expands opts.Only (or the full registry) to canonical
// scenario names, rejecting unknowns before any work runs.
func resolveNames(only []string) ([]string, error) {
	if len(only) == 0 {
		return scenario.Names(), nil
	}
	names := make([]string, 0, len(only))
	seen := make(map[string]bool)
	for _, raw := range only {
		name := strings.ToLower(strings.TrimSpace(raw))
		if name == "" {
			continue
		}
		sc, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("artifact: unknown scenario %q (one of %s)",
				raw, strings.Join(scenario.Names(), ", "))
		}
		if !seen[sc.Name] {
			seen[sc.Name] = true
			names = append(names, sc.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("artifact: -only selected no scenarios")
	}
	return names, nil
}

// fileName maps a scenario name to a safe artifact file stem.
func fileName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, name)
}

// Generate runs every selected scenario and writes the artifact folder at
// dir (created; its parents too). Scenarios fan out across
// opts.Run.Parallelism workers via the engine's own scheduler, and each
// scenario's files depend only on (seed, scale, scenario) — the folder's
// comparable content is byte-identical at any parallelism.
func Generate(ctx context.Context, dir string, opts Options) (*Manifest, error) {
	if err := opts.Run.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	names, err := resolveNames(opts.Only)
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{DirPoints, DirScenarios, DirPlots, DirLogs} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: %w", err)
		}
	}
	now := opts.Now
	if now == nil {
		//wlint:allow rngdiscipline manifest timestamps are wall-clock metadata; -diff excludes them and tests pin Now
		now = time.Now
	}

	var logMu sync.Mutex
	progress := func(format string, args ...any) {
		if opts.Log == nil {
			return
		}
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(opts.Log, format+"\n", args...)
	}

	start := now()
	entries := make([]ScenarioEntry, len(names))
	err = scenario.ForEachPoint(ctx, opts.Run, len(names), func(i int) error {
		name := names[i]
		sc, ok := scenario.Lookup(name)
		if !ok {
			return fmt.Errorf("artifact: scenario %q disappeared from the registry", name)
		}
		//wlint:allow rngdiscipline per-scenario wall time is manifest metadata, excluded from -diff
		t0 := time.Now()
		entry, err := generateOne(dir, sc, opts.Run)
		if err != nil {
			return fmt.Errorf("artifact: %s: %w", name, err)
		}
		entry.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
		entries[i] = *entry
		progress("%-12s %-22s %5d points %9d ops  %8.0f ms",
			name, entry.Kind, entry.Stats.Points, entry.Stats.Ops, entry.WallMS)
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := &Manifest{
		Generated:   start.UTC().Format(time.RFC3339),
		GitSHA:      opts.GitSHA,
		GoVersion:   opts.GoVersion,
		Seed:        opts.Run.EffectiveSeed(),
		Scale:       scaleOf(opts.Run),
		Parallelism: opts.Run.Parallelism,
		WallMS:      float64(time.Since(start)) / float64(time.Millisecond),
		Scenarios:   entries,
	}
	if err := m.snapshotBench(opts.BenchFiles); err != nil {
		return nil, err
	}
	if err := m.Write(filepath.Join(dir, ManifestFile)); err != nil {
		return nil, err
	}
	if err := writeRunLog(filepath.Join(dir, DirLogs, "run.log"), m); err != nil {
		return nil, err
	}
	return m, nil
}

func scaleOf(o scenario.Options) float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// generateOne runs a single scenario and writes its artifact files,
// returning the manifest entry (WallMS filled by the caller).
func generateOne(dir string, sc *scenario.Scenario, run scenario.Options) (*ScenarioEntry, error) {
	stem := fileName(sc.Name)
	entry := &ScenarioEntry{Name: sc.Name, Kind: sc.Output.Kind, Title: sc.Output.Title}

	write := func(rel string, emit func(io.Writer) error) error {
		if err := WriteFile(filepath.Join(dir, filepath.FromSlash(rel)), emit); err != nil {
			return err
		}
		entry.Files = append(entry.Files, rel)
		return nil
	}

	// Resolved scenario spec — the exact JSON `wlgen scenario run -file`
	// reproduces this result from.
	if err := write(DirScenarios+"/"+stem+".json", sc.Encode); err != nil {
		return nil, err
	}

	res, stats, err := scenario.RunWithStats(context.Background(), sc, run)
	if err != nil {
		return nil, err
	}
	entry.Stats = stats

	// Machine-readable points: CSV for spreadsheets/plotters, JSON with the
	// title for programs.
	if tab, ok := res.(scenario.Tabular); ok {
		title, headers, rows := tab.Table()
		entry.Title = title
		if err := write(DirPoints+"/"+stem+".csv", func(w io.Writer) error {
			return WriteTableCSV(w, headers, rows)
		}); err != nil {
			return nil, err
		}
		if err := write(DirPoints+"/"+stem+".json", func(w io.Writer) error {
			return WriteTableJSON(w, title, headers, rows)
		}); err != nil {
			return nil, err
		}
	}

	// Plots for the results that reduce to x/y series.
	if pl, ok := res.(scenario.Plottable); ok {
		plot := pl.Plot()
		if err := write(DirPlots+"/"+stem+".txt", func(w io.Writer) error {
			_, err := io.WriteString(w, plot.ASCII(asciiPlotW, asciiPlotH))
			return err
		}); err != nil {
			return nil, err
		}
		if err := write(DirPlots+"/"+stem+".svg", func(w io.Writer) error {
			_, err := io.WriteString(w, plot.SVG(svgPlotW, svgPlotH))
			return err
		}); err != nil {
			return nil, err
		}
		if err := write(DirPlots+"/"+stem+".json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(plot)
		}); err != nil {
			return nil, err
		}
	}

	// The full rendered output — what the terminal would have shown.
	if err := write(DirLogs+"/"+stem+".txt", func(w io.Writer) error {
		_, err := io.WriteString(w, res.Render()+"\n")
		return err
	}); err != nil {
		return nil, err
	}

	sort.Strings(entry.Files)
	return entry, nil
}

// WriteFile creates path and writes it with emit, reporting emit's error or
// else Close's, so a truncated file never reads as success.
func WriteFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeRunLog writes the human timing summary.
func writeRunLog(path string, m *Manifest) error {
	var b strings.Builder
	fmt.Fprintf(&b, "generated %s  git %s  %s  seed %d  scale %g\n",
		m.Generated, m.GitSHA, m.GoVersion, m.Seed, m.Scale)
	for _, e := range m.Scenarios {
		fmt.Fprintf(&b, "%-12s %-22s %5d points %9d sessions %10d ops %8d errors %9.0f ms\n",
			e.Name, e.Kind, e.Stats.Points, e.Stats.Sessions, e.Stats.Ops, e.Stats.Errors, e.WallMS)
	}
	fmt.Fprintf(&b, "total %.0f ms\n", m.WallMS)
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

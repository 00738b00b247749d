package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"uswg/internal/scenario"
)

// ScenarioEntry is one scenario's accounting in the manifest.
type ScenarioEntry struct {
	// Name is the registry name; Kind the output contract kind.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Title is the rendered result's title (the spec's title for results
	// without a tabular form).
	Title string `json:"title"`
	// Stats are the run totals: points executed and the trace counters
	// (sessions, ops, errors) summed across them.
	Stats scenario.Stats `json:"stats"`
	// WallMS is the scenario's wall-clock run time, milliseconds. Excluded
	// from folder diffs — it varies run to run.
	WallMS float64 `json:"wall_ms"`
	// Files lists the artifact files this scenario wrote, folder-relative.
	Files []string `json:"files"`
}

// Manifest is the metadata of one generated artifact folder: everything
// needed to state what produced the results and to reproduce them.
type Manifest struct {
	// Generated is the run's UTC start time, RFC 3339.
	Generated string `json:"generated"`
	// GitSHA is the repository commit the binary was built from ("unknown"
	// outside a checkout).
	GitSHA string `json:"git_sha"`
	// GoVersion is the toolchain that built the generator.
	GoVersion string `json:"go_version"`
	// Seed and Scale are the effective engine options — rerunning with
	// these reproduces points/, scenarios/, and plots/ byte for byte.
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	// Parallelism is informational: output never depends on it.
	Parallelism int `json:"parallelism,omitempty"`
	// WallMS is the whole run's wall-clock time, milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Scenarios lists one entry per generated scenario, in run order.
	Scenarios []ScenarioEntry `json:"scenarios"`
	// Bench embeds the repository's BENCH_*.json snapshots (file name →
	// contents) when present, so a results folder carries the performance
	// baseline it was produced under.
	Bench map[string]json.RawMessage `json:"bench,omitempty"`
}

// snapshotBench embeds each bench baseline file's JSON into the manifest.
func (m *Manifest) snapshotBench(paths []string) error {
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("artifact: bench snapshot %s: %w", p, err)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("artifact: bench snapshot %s: not valid JSON", p)
		}
		if m.Bench == nil {
			m.Bench = make(map[string]json.RawMessage)
		}
		m.Bench[filepath.Base(p)] = json.RawMessage(raw)
	}
	return nil
}

// Write stores the manifest as indented JSON.
func (m *Manifest) Write(path string) error {
	err := WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("artifact: manifest: %w", err)
	}
	return nil
}

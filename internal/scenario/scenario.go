// Package scenario is the declarative experiment API: a scenario is a typed,
// serializable description of a whole experiment — workload knobs, a sweep
// grid with per-point derived seeds, and an output contract (table, curve,
// grid, histograms, ...) — that the engine (Run) executes with per-point
// parallelism and byte-for-byte determinism.
//
// Experiments are data, not code: every table and figure of the thesis's
// evaluation, the fault5.x resilience family, and the scale5.x extension
// is a JSON file in builtin/, embedded and decoded at init into the
// read-only registry (Lookup, Names). A new workload is a JSON file too
// (`wlgen scenario run -file`, or Decode), and a Go caller writes a
// Scenario literal. The workload is a JSON merge patch over
// config.Default(), a fault plan included, and a numeric axis binds by
// JSON pointer into each point's spec, through objects and array elements
// alike (/users, /fault/rules/0/prob, /categories/2/access_per_byte/mean).
// A column names a point metric or a total of the point's core.Metrics
// snapshot (nfs.nfsd_util, netsim.drops). The output sets each point's
// trace mode: full records only for the write-availability split, which
// reads every write's start; every other output reads the Analysis that
// the run folds as it goes.
//
//	sc := &scenario.Scenario{
//		Name: "my-sweep",
//		Base: scenario.Workload{
//			Sessions: 50, SessionsPerUser: true,
//			Spec: json.RawMessage(`{
//				"user_types": [{"name": "extremely-heavy", "think_time": {"kind": "constant"}, "fraction": 1}],
//				"system_files": 120, "files_per_user": 60}`),
//		},
//		Sweep: []scenario.Axis{{Name: "users", Values: []float64{1, 2, 4, 8}, Bind: scenario.BindUsers}},
//		Seed:  scenario.Salt{From: scenario.SaltUsers, Mul: 17},
//		Output: scenario.Output{
//			Kind: scenario.KindCurve, Title: "response per byte",
//			X: scenario.MetricUsers, XLabel: "users", Y: scenario.MetricRPB, YLabel: "µs/byte",
//			Columns: []scenario.Column{
//				{Header: "users", Metric: scenario.MetricUsers, Format: scenario.FormatInt},
//				{Header: "µs/byte", Metric: scenario.MetricRPB, Format: scenario.FormatF},
//			},
//		},
//	}
//	res, err := scenario.Run(ctx, sc, scenario.Options{})
//	fmt.Println(res.Render())
//
// Determinism contract: every sweep point derives its seed from Options and
// the scenario's Salt alone and runs an independent generator, so rendered
// output is byte-identical at any Options.Parallelism. The committed golden
// artifact folder (internal/artifact/testdata/golden, gated by TestGolden)
// pins every registered scenario's output to recorded data.
//
// The package orchestrates the DES→workload→trace→analysis pipeline from
// above — one full pipeline run per sweep point — and hands results to the
// presentation layers: every result is Tabular (a machine-readable table),
// and the series-shaped ones are Plottable, which is what lets the artifact
// pipeline (internal/artifact, `wlgen paper`) write a CSV, JSON, and plot
// for every registered scenario.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/dist"
	"uswg/internal/gds"
)

// ErrScenario reports an invalid scenario specification.
var ErrScenario = errors.New("scenario: invalid")

// Output kinds: how a scenario's measurements are reduced and rendered.
const (
	// KindTable renders one row per sweep point with the scenario's columns.
	KindTable = "table"
	// KindCurve plots a metric against the sweep axis and tabulates points.
	KindCurve = "curve"
	// KindGrid crosses two axes: the second (users) axis indexes rows, the
	// first indexes column groups, each rendering the Cells columns.
	KindGrid = "grid"
	// KindCharacterization builds only the initial file system and compares
	// the created files with the spec's category characterization
	// (Table 5.1). No sessions run.
	KindCharacterization = "file-characterization"
	// KindUsage runs the workload and sets the Analysis's per-category
	// usage against the spec inputs (Table 5.2).
	KindUsage = "usage-characterization"
	// KindUserTypes renders the scenario's population as a table
	// (Table 5.4). Nothing runs.
	KindUserTypes = "user-types"
	// KindDensities renders the output's distribution panels (Figures
	// 5.1-5.2). Nothing runs.
	KindDensities = "densities"
	// KindHistograms runs one point and histograms per-session usage
	// measures, raw and smoothed (Figures 5.3-5.5).
	KindHistograms = "usage-histograms"
	// KindTransient runs one point with the windowed time-series collector
	// and renders the run minute by minute: per-window throughput, response
	// percentiles, and availability, plus churn/outage/recovery summary
	// lines (fault5.6-5.8). Requires trace_window_us and no sweep axes.
	KindTransient = "transient"
)

// BindUsers is the JSON pointer to the point's simultaneous user count,
// the one bind the engine knows: a grid's row axis must bind it, and it
// never supplies the point's primary axis value.
const BindUsers = "/users"

// Salt sources: what the per-point seed offset is computed from.
const (
	// SaltIndex derives from the point's flat sweep index.
	SaltIndex = "index"
	// SaltUsers derives from the point's user count.
	SaltUsers = "users"
	// SaltValue derives from the point's primary axis value (the first
	// numeric axis not bound to users).
	SaltValue = "value"
)

// Point metrics extractable into columns and curves; any other names a
// core.Metrics total.
const (
	MetricUsers         = "users"             // the point's user count
	MetricValue         = "value"             // the point's primary axis value
	MetricCase          = "case"              // the point's case label
	MetricSessions      = "sessions"          // login sessions executed
	MetricOps           = "ops"               // operations executed
	MetricErrors        = "errors"            // failed operations
	MetricRPB           = "response-per-byte" // byte-weighted µs per byte
	MetricAvailability  = "availability"      // fraction of ops without error
	MetricAccess        = "access-size"       // access size mean(std), B
	MetricResponse      = "response-time"     // response time mean(std), µs
	MetricWriteAvailPre = "write-avail-pre"   // write availability before first failure
	MetricWriteAvailPos = "write-avail-post"  // and at/after it
)

// Cell formats.
const (
	FormatInt     = "int"       // integer count
	FormatF       = "f"         // report.F compact float
	FormatPct     = "pct"       // percentage, 2 decimals
	FormatPct1    = "pct1"      // percentage, 1 decimal
	FormatMeanStd = "mean(std)" // paired mean(std), report.F each
)

// Histogram measures (per-session usage reductions, Figures 5.3-5.5).
const (
	MeasureAccessPerByte = "access-per-byte"
	MeasureAvgFileSize   = "avg-file-size"
	MeasureFiles         = "files-referenced"
)

// Workload is what every point of a scenario shares: a spec patch and the
// formulas that derive a point's session count and file system size from
// its user count and Options.Scale.
type Workload struct {
	// Sessions is the paper session count, multiplied by Options.Scale.
	// 0 keeps the default spec's count.
	Sessions int `json:"sessions,omitempty"`
	// SessionsPerUser multiplies the scaled session count by the point's
	// user count (the user sweeps' sessions(50)*users shape).
	SessionsPerUser bool `json:"sessions_per_user,omitempty"`
	// SessionsFromUsers uses the point's user count as the paper session
	// count (one session per user at full scale — scale5.1).
	SessionsFromUsers bool `json:"sessions_from_users,omitempty"`
	// FileBudget, when positive, splits a total file budget between system
	// and user directories so the category ownership proportions hold
	// (config.BalanceFiles), replacing system_files and files_per_user.
	FileBudget int `json:"file_budget,omitempty"`
	// Spec is a JSON merge patch (RFC 7396) over config.Default(): objects
	// merge key by key, arrays and scalars replace, null clears a pointer
	// or an array, and keys match as config.Decode matches them. A fault
	// plan is its "fault" key. It may not set seed, sessions or trace.mode,
	// which the seed salt, the formulas above and the output derive.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Case is one named variant on a case axis (outage shapes, degraded wires,
// candidate file systems): a spec patch applied over the workload's, like
// Workload.Spec. An empty patch runs the workload as it is.
type Case struct {
	Label string          `json:"label"`
	Spec  json.RawMessage `json:"spec,omitempty"`
}

// Axis is one sweep dimension: either numeric Values bound into the spec
// (Bind), or named Cases patching it. The sweep grid is the cross product
// of all axes, first axis outermost in flat index order.
type Axis struct {
	Name string `json:"name"`
	// Values are the numeric points (mutually exclusive with Cases).
	Values []float64 `json:"values,omitempty"`
	// Cases are named spec patches (at most one case axis).
	Cases []Case `json:"cases,omitempty"`
	// Bind is the JSON pointer (RFC 6901) each value is set at. A token
	// names a field as a spec patch's key does, or indexes an existing
	// array element (/fault/rules/0/prob, /user_types/1/fraction); the
	// leaf must be a number field.
	Bind string `json:"bind,omitempty"`
}

// Salt computes the per-point seed offset: seed(point) = Options seed +
// Mul*source + Add, so parallel sweep points stay independent and
// reproducible. The zero value adds nothing (single-point scenarios).
type Salt struct {
	// From selects the source (Salt* constants; empty means no offset
	// beyond Add).
	From string `json:"from,omitempty"`
	// Mul scales the source (0 means 1).
	Mul uint64 `json:"mul,omitempty"`
	// Add is a constant offset.
	Add uint64 `json:"add,omitempty"`
}

// offset computes the salt for one point.
func (s Salt) offset(idx, users int, value float64) uint64 {
	var src uint64
	switch s.From {
	case SaltIndex:
		src = uint64(idx)
	case SaltUsers:
		src = uint64(users)
	case SaltValue:
		src = uint64(value)
	default:
		return s.Add
	}
	mul := s.Mul
	if mul == 0 {
		mul = 1
	}
	return mul*src + s.Add
}

// Column maps one extracted metric to a rendered table column.
type Column struct {
	Header string `json:"header"`
	Metric string `json:"metric"`
	Format string `json:"format,omitempty"`
}

// HistPanel is one per-session usage histogram (Figures 5.3-5.5 style).
type HistPanel struct {
	Title   string  `json:"title"`
	XLabel  string  `json:"xlabel"`
	Max     float64 `json:"max"`
	Bins    int     `json:"bins"`
	Measure string  `json:"measure"`
}

// DensityPanel is one labeled distribution rendered as an ASCII density.
type DensityPanel struct {
	Label string          `json:"label"`
	Dist  config.DistSpec `json:"dist"`
}

// Density compiles the panel's distribution; it fails for a distribution
// with no PDF to plot (tables, constants, truncations).
func (p DensityPanel) Density() (dist.Density, error) {
	d, err := gds.Compile(p.Dist)
	if err != nil {
		return nil, fmt.Errorf("scenario: density %q: %w", p.Label, err)
	}
	den, ok := d.(dist.Density)
	if !ok {
		return nil, fmt.Errorf("%w: density %q: a %s distribution has no PDF", ErrScenario, p.Label, p.Dist.Kind)
	}
	return den, nil
}

// Output is the scenario's output contract: what is measured per point and
// how the result renders.
type Output struct {
	Kind string `json:"kind"`
	// Title heads the rendered result. KindUsage and KindHistograms treat
	// it as a format string receiving the session count.
	Title string `json:"title,omitempty"`
	// X and XLabel/YLabel parameterize KindCurve: X is MetricUsers or
	// MetricValue, Y the plotted metric.
	X      string `json:"x,omitempty"`
	Y      string `json:"y,omitempty"`
	XLabel string `json:"xlabel,omitempty"`
	YLabel string `json:"ylabel,omitempty"`
	// Columns render one cell per point row (table, curve's sidecar table).
	Columns []Column `json:"columns,omitempty"`
	// RowHeader, ColFormat, and Cells parameterize KindGrid: each column
	// group's headers come from the Cells' Header templates with the
	// column-axis value (formatted with ColFormat) substituted for %s.
	RowHeader string   `json:"row_header,omitempty"`
	ColFormat string   `json:"col_format,omitempty"`
	Cells     []Column `json:"cells,omitempty"`
	// Panels and Smooth parameterize KindHistograms.
	Panels []HistPanel `json:"panels,omitempty"`
	Smooth int         `json:"smooth,omitempty"`
	// Densities parameterize KindDensities.
	Densities []DensityPanel `json:"densities,omitempty"`
}

// Scenario is one declarative experiment.
type Scenario struct {
	// Name is the registry identifier (e.g. "fig5.6").
	Name string `json:"name"`
	// Aliases resolve to this scenario in the registry (fig5.4/fig5.5 →
	// fig5.3).
	Aliases []string `json:"aliases,omitempty"`
	// Base holds the workload knobs shared by every point.
	Base Workload `json:"workload"`
	// Sweep lists the axes; empty runs a single point.
	Sweep []Axis `json:"sweep,omitempty"`
	// Seed derives each point's seed offset.
	Seed Salt `json:"seed_salt,omitempty"`
	// Output is the measurement and rendering contract.
	Output Output `json:"output"`
}

var pointMetrics = map[string]bool{
	MetricUsers: true, MetricValue: true, MetricCase: true,
	MetricSessions: true, MetricOps: true, MetricErrors: true,
	MetricRPB: true, MetricAvailability: true,
	MetricAccess: true, MetricResponse: true,
	MetricWriteAvailPre: true, MetricWriteAvailPos: true,
}

// validMetric reports whether name is a point metric or a snapshot total.
func validMetric(name string) bool {
	return pointMetrics[name] || slices.Contains(core.MetricNames(), name)
}

var validFormats = map[string]bool{
	"": true, FormatInt: true, FormatF: true, FormatPct: true,
	FormatPct1: true, FormatMeanStd: true,
}

var validMeasures = map[string]bool{
	MeasureAccessPerByte: true, MeasureAvgFileSize: true, MeasureFiles: true,
}

func validateColumns(cols []Column, what string) error {
	if len(cols) == 0 {
		return fmt.Errorf("%w: %s need at least one column", ErrScenario, what)
	}
	for _, c := range cols {
		if !validMetric(c.Metric) {
			return fmt.Errorf("%w: %s: unknown metric %q", ErrScenario, what, c.Metric)
		}
		if !validFormats[c.Format] {
			return fmt.Errorf("%w: %s: unknown format %q", ErrScenario, what, c.Format)
		}
		// The pair metrics render mean(std) and the case metric renders its
		// label; any other format would be a validated no-op, so reject the
		// mismatch instead of silently ignoring the knob.
		switch c.Metric {
		case MetricAccess, MetricResponse:
			if c.Format != "" && c.Format != FormatMeanStd {
				return fmt.Errorf("%w: %s: metric %q renders mean(std); format %q does not apply", ErrScenario, what, c.Metric, c.Format)
			}
		case MetricCase:
			if c.Format != "" {
				return fmt.Errorf("%w: %s: metric %q renders its label; format %q does not apply", ErrScenario, what, c.Metric, c.Format)
			}
		default:
			if c.Format == FormatMeanStd {
				return fmt.Errorf("%w: %s: format %q only applies to %q and %q", ErrScenario, what, FormatMeanStd, MetricAccess, MetricResponse)
			}
		}
	}
	return nil
}

// checkFormatString rejects titles/headers whose fmt verbs do not match the
// argument they will receive: a user-edited JSON title with a stray % (or a
// missing verb) must fail validation, not corrupt the rendered output with
// "%!"-noise at run time.
func checkFormatString(format, what string, arg any) error {
	if strings.Contains(fmt.Sprintf(format, arg), "%!") {
		return fmt.Errorf("%w: %s %q must format exactly one %T argument (escape literal %% as %%%%)", ErrScenario, what, format, arg)
	}
	return nil
}

// validateSweep checks the axes' shape: each has a name and either values
// or cases, at most one selects cases, and the grid's point count fits an
// int. Whether a bind, a value or a case fits the spec is for the compiled
// points to show.
func (sc *Scenario) validateSweep() error {
	cases, size := 0, 1
	for i := range sc.Sweep {
		ax := &sc.Sweep[i]
		if ax.Name == "" {
			return fmt.Errorf("%w: axis %d has no name", ErrScenario, i)
		}
		switch {
		case len(ax.Values) > 0 && len(ax.Cases) > 0:
			return fmt.Errorf("%w: axis %q has both values and cases", ErrScenario, ax.Name)
		case len(ax.Cases) > 0:
			cases++
			if cases > 1 {
				return fmt.Errorf("%w: more than one case axis", ErrScenario)
			}
			if ax.Bind != "" {
				return fmt.Errorf("%w: case axis %q cannot bind", ErrScenario, ax.Name)
			}
			for _, c := range ax.Cases {
				if c.Label == "" {
					return fmt.Errorf("%w: axis %q has a case with no label", ErrScenario, ax.Name)
				}
			}
		case len(ax.Values) == 0:
			return fmt.Errorf("%w: axis %q has neither values nor cases", ErrScenario, ax.Name)
		}
		n := axisLen(ax)
		if size > math.MaxInt/n {
			return fmt.Errorf("%w: the sweep grid has too many points", ErrScenario)
		}
		size *= n
	}
	return nil
}

// needsLog reports whether the output reads full records: only the
// write-availability split does.
func (sc *Scenario) needsLog() bool {
	out := &sc.Output
	for _, c := range slices.Concat(out.Columns, out.Cells, []Column{{Metric: out.Y}}) {
		if c.Metric == MetricWriteAvailPre || c.Metric == MetricWriteAvailPos {
			return true
		}
	}
	return false
}

// Validate checks the scenario's structure, then the specs it compiles:
// point 0 and every point that moves one axis off it, so each axis value
// and case compiles once — O(sum of axis lengths), never the grid. Each
// compiled spec must pass config.Spec.Validate, except under the
// render-only kinds (user-types, densities), which run nothing.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("%w: missing name", ErrScenario)
	}
	switch sc.Seed.From {
	case "", SaltIndex, SaltUsers, SaltValue:
	default:
		return fmt.Errorf("%w: unknown seed salt source %q", ErrScenario, sc.Seed.From)
	}
	if err := sc.validateSweep(); err != nil {
		return err
	}

	out := &sc.Output
	renderOnly := out.Kind == KindUserTypes || out.Kind == KindDensities
	var first *config.Spec
	for _, idx := range sc.checkedPoints() {
		ps, err := sc.compilePoint(Options{}, idx)
		if err != nil {
			return err
		}
		if !renderOnly {
			if err := ps.spec.Validate(); err != nil {
				return fmt.Errorf("scenario: %s: %w", sc.pointName(idx), err)
			}
		}
		// The value salt converts the primary axis value, which the
		// checked points take in full, to an unsigned integer. A
		// fractional value (probabilities, rates) would collapse onto its
		// neighbour's offset and silently correlate their seeds, and Go
		// leaves the conversion of a negative or too-large value to the
		// platform — reject them all.
		if v := ps.value; sc.Seed.From == SaltValue && (!(v >= 0 && v < 1<<64) || v != math.Trunc(v)) {
			return fmt.Errorf("%w: seed salt %q needs non-negative integer axis values; %v is not one (salt from %q or %q instead)",
				ErrScenario, SaltValue, v, SaltIndex, SaltUsers)
		}
		if first == nil {
			first = ps.spec
		}
	}

	switch out.Kind {
	case KindTable:
		return validateColumns(out.Columns, "table columns")
	case KindCurve:
		if out.X != MetricUsers && out.X != MetricValue {
			return fmt.Errorf("%w: curve x must be %q or %q, got %q", ErrScenario, MetricUsers, MetricValue, out.X)
		}
		if !validMetric(out.Y) || out.Y == MetricCase {
			return fmt.Errorf("%w: curve y: bad metric %q", ErrScenario, out.Y)
		}
		if len(sc.Sweep) == 0 {
			return fmt.Errorf("%w: a curve needs a sweep axis", ErrScenario)
		}
		return validateColumns(out.Columns, "curve columns")
	case KindGrid:
		if len(sc.Sweep) != 2 || len(sc.Sweep[0].Values) == 0 || len(sc.Sweep[1].Values) == 0 {
			return fmt.Errorf("%w: a grid needs exactly two numeric axes", ErrScenario)
		}
		if sc.Sweep[1].Bind != BindUsers {
			return fmt.Errorf("%w: a grid's second (row) axis must bind %q", ErrScenario, BindUsers)
		}
		if out.RowHeader == "" {
			return fmt.Errorf("%w: grid needs a row_header", ErrScenario)
		}
		if err := validateColumns(out.Cells, "grid cells"); err != nil {
			return err
		}
		for _, cell := range out.Cells {
			if err := checkFormatString(cell.Header, "grid cell header", "x"); err != nil {
				return err
			}
		}
		return nil
	case KindCharacterization:
		return nil
	case KindUsage:
		return checkFormatString(out.Title, "usage title", 1)
	case KindUserTypes:
		if len(first.UserTypes) == 0 {
			return fmt.Errorf("%w: user-types output needs user_types", ErrScenario)
		}
		return nil
	case KindDensities:
		if len(out.Densities) == 0 {
			return fmt.Errorf("%w: densities output needs panels", ErrScenario)
		}
		for _, p := range out.Densities {
			if _, err := p.Density(); err != nil {
				return err
			}
		}
		return nil
	case KindHistograms:
		if len(out.Panels) == 0 {
			return fmt.Errorf("%w: histograms output needs panels", ErrScenario)
		}
		if err := checkFormatString(out.Title, "histograms title", 1); err != nil {
			return err
		}
		if out.Smooth < 1 {
			return fmt.Errorf("%w: histograms need a smooth window >= 1", ErrScenario)
		}
		for _, p := range out.Panels {
			if !validMeasures[p.Measure] {
				return fmt.Errorf("%w: histogram %q: unknown measure %q", ErrScenario, p.Title, p.Measure)
			}
			if p.Bins < 1 || p.Max <= 0 {
				return fmt.Errorf("%w: histogram %q: bad bins/max %d/%v", ErrScenario, p.Title, p.Bins, p.Max)
			}
		}
		return nil
	case KindTransient:
		if first.Trace.WindowUS <= 0 {
			return fmt.Errorf("%w: transient output needs a positive trace window_us", ErrScenario)
		}
		if len(sc.Sweep) > 0 {
			return fmt.Errorf("%w: transient output runs a single point; it cannot sweep", ErrScenario)
		}
		return nil
	case "":
		return fmt.Errorf("%w: missing output kind", ErrScenario)
	default:
		return fmt.Errorf("%w: unknown output kind %q", ErrScenario, out.Kind)
	}
}

// Encode writes the scenario as indented JSON — the `dump` format any
// built-in exports to and `Decode` round-trips.
func (sc *Scenario) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return nil
}

// JSON returns the scenario's serialized form.
func (sc *Scenario) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := sc.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a scenario from JSON and validates it. Unknown fields are
// rejected so a typoed knob fails loudly instead of silently running the
// default, and so is anything after the one scenario object, so two files
// concatenated into one cannot silently run only the first.
func Decode(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the scenario object", ErrScenario)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Load reads and validates a scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: load: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

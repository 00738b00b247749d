package scenario

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/fault"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/report"
	"uswg/internal/rng"
	"uswg/internal/stats"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// Options tune a scenario run: the zero value reproduces the thesis's
// parameters.
type Options struct {
	// Seed overrides the default seed when nonzero.
	Seed uint64
	// Scale multiplies paper session counts: finite and >= 0, where 0 means
	// 1.0.
	Scale float64
	// Parallelism bounds how many sweep points run concurrently (0 means
	// GOMAXPROCS). Output is byte-identical at any setting.
	Parallelism int
}

// Validate rejects options no run can honor: a negative, infinite, or NaN
// Scale.
func (o Options) Validate() error {
	if !(o.Scale >= 0) || math.IsInf(o.Scale, 1) {
		return fmt.Errorf("%w: scale %v must be finite and >= 0 (0 means 1.0)", ErrScenario, o.Scale)
	}
	return nil
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1991
}

// EffectiveSeed is the base seed a run with these options derives every
// point seed from — the thesis default when Seed is 0. The artifact
// manifest records it so a results folder is reproducible from its own
// metadata.
func (o Options) EffectiveSeed() uint64 { return o.seed() }

// sessions scales a paper session count, keeping a sane minimum.
func (o Options) sessions(paper int) int {
	s := o.Scale
	if s == 0 {
		s = 1
	}
	n := int(math.Round(float64(paper) * s))
	if n < 4 {
		n = 4
	}
	return n
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Result is a rendered scenario outcome.
type Result interface {
	Render() string
}

// Stats summarize how much simulated work a scenario run performed — the
// per-scenario accounting the artifact pipeline records in its manifest.
// Render-only kinds (user-types, densities) report zero points.
type Stats struct {
	// Points is the number of generator runs executed (the sweep grid size;
	// 1 for single-point kinds; 0 for render-only kinds).
	Points int `json:"points"`
	trace.Counters
}

// Tabular is implemented by results whose data reduces to one table — the
// structured form `wlgen scenario run -json/-csv` exports. Render stays the
// human view; Table is the machine view of the same numbers.
type Tabular interface {
	Table() (title string, headers []string, rows [][]string)
}

// TableResult is a title plus one row per sweep point.
type TableResult struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render prints the table.
func (r *TableResult) Render() string {
	return r.Title + "\n" + report.Table(r.Headers, r.Rows)
}

// Table exports the rendered rows.
func (r *TableResult) Table() (string, []string, [][]string) {
	return r.Title, r.Headers, r.Rows
}

// CurveResult is an ASCII plot plus the tabulated points.
type CurveResult struct {
	Title, XLabel, YLabel string
	XS, YS                []float64
	Headers               []string
	Rows                  [][]string
}

// Render plots the curve and tabulates the points.
func (r *CurveResult) Render() string {
	return r.Plot().ASCII(60, 12) + "\n" + report.Table(r.Headers, r.Rows)
}

// Table exports the curve's tabulated points.
func (r *CurveResult) Table() (string, []string, [][]string) {
	return r.Title, r.Headers, r.Rows
}

// TransientResult is the windowed time-series of one run: one row per
// window plus the run's churn/outage/recovery summary lines.
type TransientResult struct {
	Title string
	// WidthUS is the window width, virtual µs.
	WidthUS float64
	// Windows holds the reduced series (interior gaps kept, trailing empty
	// windows trimmed).
	Windows []trace.WindowStats
	// Summary lines follow the table: network retry counters, client churn,
	// server restarts, and the measured time to recover.
	Summary []string
}

// transientHeaders label the per-window table columns.
var transientHeaders = []string{"t (s)", "ops", "errors", "mean (µs)", "p50 (µs)", "p95 (µs)", "avail"}

func (r *TransientResult) rows() [][]string {
	rows := make([][]string, len(r.Windows))
	for i, w := range r.Windows {
		row := []string{fmt.Sprintf("%.0f", w.Start/1e6), fmt.Sprint(w.Ops)}
		if w.Ops > 0 {
			row = append(row,
				fmt.Sprint(w.Errors),
				report.F(w.MeanResponse), report.F(w.P50), report.F(w.P95),
				fmt.Sprintf("%.2f%%", 100*w.Availability))
		} else {
			row = append(row, "-", "-", "-", "-", "0.00%")
		}
		rows[i] = row
	}
	return rows
}

// Render prints the windowed series and the summary lines.
func (r *TransientResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteString("\n")
	b.WriteString(report.Table(transientHeaders, r.rows()))
	for _, line := range r.Summary {
		b.WriteString("\n")
		b.WriteString(line)
	}
	return b.String()
}

// Table exports the per-window series.
func (r *TransientResult) Table() (string, []string, [][]string) {
	return r.Title, transientHeaders, r.rows()
}

// ForEachPoint runs fn(0..n-1) — one independent, independently-seeded
// generator run per index — across up to Options.Parallelism goroutines:
// each fn writes only its own index's slot, the first error by index wins
// (what a sequential loop would have returned), and a cancelled context
// stops new points from starting. The engine fans sweep points out through
// it, and the artifact pipeline reuses it for whole-scenario fan-out.
func ForEachPoint(ctx context.Context, opts Options, n int, fn func(i int) error) error {
	run := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(i)
	}
	workers := opts.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes a scenario and returns its rendered result. Every sweep
// point derives its seed from opts and the scenario alone, so output is
// byte-identical at any opts.Parallelism.
func Run(ctx context.Context, sc *Scenario, opts Options) (Result, error) {
	res, _, err := RunWithStats(ctx, sc, opts)
	return res, err
}

// RunWithStats executes a scenario like Run and additionally reports run
// statistics — points executed and the trace counters summed across them —
// for the artifact manifest.
func RunWithStats(ctx context.Context, sc *Scenario, opts Options) (Result, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if sc == nil {
		return nil, Stats{}, fmt.Errorf("%w: nil scenario", ErrScenario)
	}
	if err := sc.Validate(); err != nil {
		return nil, Stats{}, err
	}
	switch sc.Output.Kind {
	case KindTable, KindCurve, KindGrid:
		return runSweep(ctx, sc, opts)
	case KindCharacterization:
		res, err := runCharacterization(sc, opts)
		return res, Stats{Points: 1}, err
	case KindUsage:
		return runUsage(sc, opts)
	case KindUserTypes:
		res, err := renderUserTypes(sc)
		return res, Stats{}, err
	case KindDensities:
		res, err := renderDensityPanels(sc)
		return res, Stats{}, err
	case KindHistograms:
		return runHistograms(sc, opts)
	case KindTransient:
		return runTransient(sc, opts)
	default:
		return nil, Stats{}, fmt.Errorf("%w: unknown output kind %q", ErrScenario, sc.Output.Kind)
	}
}

// ------------------------------------------------------------ point compile

// pointSpec is one sweep point's compiled configuration.
type pointSpec struct {
	spec      *config.Spec
	users     int
	value     float64 // primary axis value (first numeric non-users axis)
	caseLabel string
}

// gridSize returns the flat point count (1 with no axes).
func (sc *Scenario) gridSize() int {
	n := 1
	for i := range sc.Sweep {
		n *= axisLen(&sc.Sweep[i])
	}
	return n
}

// axisLen returns one axis's point count.
func axisLen(ax *Axis) int {
	if len(ax.Cases) > 0 {
		return len(ax.Cases)
	}
	return len(ax.Values)
}

// coords decomposes a flat index, first axis outermost.
func (sc *Scenario) coords(idx int) []int {
	out := make([]int, len(sc.Sweep))
	for i := len(sc.Sweep) - 1; i >= 0; i-- {
		n := axisLen(&sc.Sweep[i])
		out[i] = idx % n
		idx /= n
	}
	return out
}

// checkedPoints returns the flat indices Validate compiles: point 0, then
// for each axis every point that moves that axis alone off point 0.
func (sc *Scenario) checkedPoints() []int {
	points := []int{0}
	stride := sc.gridSize()
	for i := range sc.Sweep {
		n := axisLen(&sc.Sweep[i])
		stride /= n
		for j := 1; j < n; j++ {
			points = append(points, j*stride)
		}
	}
	return points
}

// pointName names a checked point by the axis it moves off point 0.
func (sc *Scenario) pointName(idx int) string {
	for i, c := range sc.coords(idx) {
		if c == 0 {
			continue
		}
		ax := &sc.Sweep[i]
		if len(ax.Cases) > 0 {
			return fmt.Sprintf("axis %q case %q", ax.Name, ax.Cases[c].Label)
		}
		return fmt.Sprintf("axis %q value %v", ax.Name, ax.Values[c])
	}
	return "the first point"
}

// compilePoint builds the spec for one flat sweep index in one sequence:
// config.Default(), the workload patch, then each axis in sweep order (a
// case's patch, or a value at its JSON pointer), the session and file
// formulas, the fault template with its axis-bound parameters (dropped
// where drop_when_zero holds), and the seed salt. The scenario is only
// read, so parallel points may share a registered one.
func (sc *Scenario) compilePoint(opts Options, idx int) (*pointSpec, error) {
	w := &sc.Base
	spec := config.Default()
	if len(w.Spec) > 0 {
		if err := applyPatch(spec, w.Spec); err != nil {
			return nil, fmt.Errorf("%w: workload spec: %w", ErrScenario, err)
		}
	}

	// The fault template is bound on a private copy: the registered
	// scenario must stay immutable under parallel points.
	var plan fault.Plan
	if sc.Fault != nil {
		plan = sc.Fault.Plan
		plan.Rules = slices.Clone(plan.Rules)
	}
	var (
		caseLabel        string
		value            float64
		haveValue        bool
		bound, boundZero = false, true
	)
	pt := sc.coords(idx)
	for i := range sc.Sweep {
		ax := &sc.Sweep[i]
		if len(ax.Cases) > 0 {
			c := &ax.Cases[pt[i]]
			caseLabel = c.Label
			if len(c.Spec) > 0 {
				if err := applyPatch(spec, c.Spec); err != nil {
					return nil, fmt.Errorf("%w: axis %q case %q: %w", ErrScenario, ax.Name, c.Label, err)
				}
			}
			continue
		}
		v := ax.Values[pt[i]]
		if ax.Bind != BindUsers && !haveValue {
			value, haveValue = v, true
		}
		if ax.Bind == BindFaultProb || ax.Bind == BindFaultLatency {
			bound, boundZero = true, boundZero && v == 0
			for ri := range plan.Rules {
				r := &plan.Rules[ri]
				switch {
				case r.Name != ax.Rule:
				case ax.Bind == BindFaultProb:
					r.Prob = v
				default:
					r.Latency = v
				}
			}
			continue
		}
		patch, err := pointerPatch(ax.Bind, v)
		if err == nil {
			err = applyPatch(spec, patch)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: axis %q value %v: %w", ErrScenario, ax.Name, v, err)
		}
	}
	if !haveValue && len(sc.Sweep) > 0 && len(sc.Sweep[0].Values) > 0 {
		value = sc.Sweep[0].Values[pt[0]]
	}

	users := spec.Users
	switch {
	case w.SessionsFromUsers:
		spec.Sessions = opts.sessions(users)
	case w.Sessions > 0:
		n := opts.sessions(w.Sessions)
		if w.SessionsPerUser {
			n *= users
		}
		spec.Sessions = n
	}
	if w.FileBudget > 0 {
		spec.SystemFiles, spec.FilesPerUser = config.BalanceFiles(spec.Categories, w.FileBudget, users)
	}
	if sc.Fault != nil {
		if spec.Fault != nil {
			return nil, fmt.Errorf("%w: both the fault template and a spec patch set fault", ErrScenario)
		}
		// drop_when_zero: the healthy point of a fault sweep runs fault-free.
		if !(sc.Fault.DropWhenZero && bound && boundZero) {
			spec.Fault = &plan
		}
	}

	spec.Seed = opts.seed() + sc.Seed.offset(idx, users, value)
	return &pointSpec{spec: spec, users: users, value: value, caseLabel: caseLabel}, nil
}

// --------------------------------------------------------------- point runs

// pointRun is one executed sweep point plus its measurement context.
type pointRun struct {
	*pointSpec
	res *core.Result
	gen *core.Generator

	writeSplit     [2]float64 // pre/post write availability, lazily computed
	haveWriteSplit bool
}

// runPoint compiles and executes one point of the grid.
func (sc *Scenario) runPoint(opts Options, idx int) (*pointRun, error) {
	ps, err := sc.compilePoint(opts, idx)
	if err != nil {
		return nil, err
	}
	gen, err := core.NewGenerator(ps.spec)
	if err != nil {
		return nil, err
	}
	res, err := gen.Run()
	if err != nil {
		return nil, err
	}
	return &pointRun{pointSpec: ps, res: res, gen: gen}, nil
}

// writeAvailability splits write/create availability at the onset of the
// point's first failure (the outage-shape contract: a sticky fault's
// post-onset write availability collapses, a transient one's recovers).
// Validate has made every point of a scenario that asks for it keep full
// records.
func (p *pointRun) writeAvailability() [2]float64 {
	if p.haveWriteSplit {
		return p.writeSplit
	}
	log := p.gen.Log()
	onset := -1.0
	log.Each(func(rec *trace.Record) {
		if rec.Err != "" && (onset < 0 || rec.Start < onset) {
			onset = rec.Start
		}
	})
	var preOK, preAll, postOK, postAll int
	log.Each(func(rec *trace.Record) {
		if rec.Op != trace.OpWrite && rec.Op != trace.OpCreate {
			return
		}
		if onset < 0 || rec.Start < onset {
			preAll++
			if rec.Err == "" {
				preOK++
			}
		} else {
			postAll++
			if rec.Err == "" {
				postOK++
			}
		}
	})
	p.writeSplit = [2]float64{1, 1}
	if preAll > 0 {
		p.writeSplit[0] = float64(preOK) / float64(preAll)
	}
	if postAll > 0 {
		p.writeSplit[1] = float64(postOK) / float64(postAll)
	}
	p.haveWriteSplit = true
	return p.writeSplit
}

// metric extracts one scalar measurement.
func (p *pointRun) metric(name string) (float64, error) {
	a := p.res.Analysis
	switch name {
	case MetricUsers:
		return float64(p.users), nil
	case MetricValue:
		return p.value, nil
	case MetricSessions:
		return float64(p.res.Sessions), nil
	case MetricOps:
		return float64(a.Ops), nil
	case MetricErrors:
		return float64(a.Errors), nil
	case MetricRPB:
		return a.MeanResponsePerByte(), nil
	case MetricAvailability:
		return a.Availability(), nil
	case MetricStalls:
		srvs := p.gen.Servers()
		if len(srvs) == 0 {
			return 0, fmt.Errorf("%w: metric %q needs the NFS file system", ErrScenario, name)
		}
		var n int64
		for _, s := range srvs {
			n += s.Stalls()
		}
		return float64(n), nil
	case MetricNFSDWait:
		srvs := p.gen.Servers()
		if len(srvs) == 0 {
			return 0, fmt.Errorf("%w: metric %q needs the NFS file system", ErrScenario, name)
		}
		if len(srvs) == 1 {
			return srvs[0].MeanNFSDWait(), nil
		}
		// Fleet: calls-weighted mean, so an idle island does not dilute the
		// wait the workload actually experienced.
		var wait float64
		var calls int64
		for _, s := range srvs {
			wait += s.MeanNFSDWait() * float64(s.Calls())
			calls += s.Calls()
		}
		if calls == 0 {
			return 0, nil
		}
		return wait / float64(calls), nil
	case MetricNFSDUtil:
		srvs := p.gen.Servers()
		if len(srvs) == 0 {
			return 0, fmt.Errorf("%w: metric %q needs the NFS file system", ErrScenario, name)
		}
		if len(srvs) == 1 {
			return srvs[0].NFSDUtilization(), nil
		}
		var util float64
		for _, s := range srvs {
			util += s.NFSDUtilization()
		}
		return util / float64(len(srvs)), nil
	case MetricDrops:
		links := p.gen.Links()
		if len(links) == 0 {
			return 0, fmt.Errorf("%w: metric %q needs the NFS file system", ErrScenario, name)
		}
		var n int64
		for _, l := range links {
			n += l.Drops()
		}
		return float64(n), nil
	case MetricRetransmits:
		links := p.gen.Links()
		if len(links) == 0 {
			return 0, fmt.Errorf("%w: metric %q needs the NFS file system", ErrScenario, name)
		}
		var n int64
		for _, l := range links {
			n += l.Retransmits()
		}
		return float64(n), nil
	case MetricMaterialized:
		return float64(p.gen.MaterializedUsers()), nil
	case MetricBuildOps:
		return float64(p.gen.BuildOps()), nil
	case MetricWriteAvailPre:
		return p.writeAvailability()[0], nil
	case MetricWriteAvailPos:
		return p.writeAvailability()[1], nil
	default:
		return 0, fmt.Errorf("%w: unknown metric %q", ErrScenario, name)
	}
}

// formatValue renders one scalar with a cell format.
func formatValue(v float64, format string) string {
	switch format {
	case FormatInt:
		return fmt.Sprint(int64(v))
	case FormatPct:
		return fmt.Sprintf("%.2f%%", 100*v)
	case FormatPct1:
		return fmt.Sprintf("%.1f%%", 100*v)
	default:
		return report.F(v)
	}
}

// cell renders one column's cell for the point.
func (p *pointRun) cell(c Column) (string, error) {
	switch c.Metric {
	case MetricCase:
		return p.caseLabel, nil
	case MetricAccess:
		s := p.res.Analysis.AccessSize
		return fmt.Sprintf("%s(%s)", report.F(s.Mean()), report.F(s.Std())), nil
	case MetricResponse:
		s := p.res.Analysis.Response
		return fmt.Sprintf("%s(%s)", report.F(s.Mean()), report.F(s.Std())), nil
	default:
		v, err := p.metric(c.Metric)
		if err != nil {
			return "", err
		}
		return formatValue(v, c.Format), nil
	}
}

// ------------------------------------------------------------- sweep kinds

// runSweep executes the full point grid and renders a table, curve, or grid.
func runSweep(ctx context.Context, sc *Scenario, opts Options) (Result, Stats, error) {
	n := sc.gridSize()
	runs := make([]*pointRun, n)
	err := ForEachPoint(ctx, opts, n, func(i int) (err error) {
		runs[i], err = sc.runPoint(opts, i)
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Points: n}
	for _, p := range runs {
		stats.Counters.Add(p.res.Analysis.Counters())
	}

	switch sc.Output.Kind {
	case KindGrid:
		res, err := renderGrid(sc, runs)
		return res, stats, err
	case KindCurve:
		rows, err := renderRows(sc.Output.Columns, runs)
		if err != nil {
			return nil, Stats{}, err
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, p := range runs {
			if xs[i], err = p.metric(sc.Output.X); err != nil {
				return nil, Stats{}, err
			}
			if ys[i], err = p.metric(sc.Output.Y); err != nil {
				return nil, Stats{}, err
			}
		}
		return &CurveResult{
			Title: sc.Output.Title, XLabel: sc.Output.XLabel, YLabel: sc.Output.YLabel,
			XS: xs, YS: ys,
			Headers: headersOf(sc.Output.Columns), Rows: rows,
		}, stats, nil
	default: // KindTable
		rows, err := renderRows(sc.Output.Columns, runs)
		if err != nil {
			return nil, Stats{}, err
		}
		return &TableResult{Title: sc.Output.Title, Headers: headersOf(sc.Output.Columns), Rows: rows}, stats, nil
	}
}

func headersOf(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Header
	}
	return out
}

func renderRows(cols []Column, runs []*pointRun) ([][]string, error) {
	rows := make([][]string, len(runs))
	for i, p := range runs {
		row := make([]string, len(cols))
		for j, c := range cols {
			s, err := p.cell(c)
			if err != nil {
				return nil, err
			}
			row[j] = s
		}
		rows[i] = row
	}
	return rows, nil
}

// renderGrid crosses the column axis (axis 0) with the users row axis
// (axis 1): headers substitute each column value into the cell templates,
// rows render the cells per column group — the fault5.1 layout.
func renderGrid(sc *Scenario, runs []*pointRun) (Result, error) {
	colAx, rowAx := &sc.Sweep[0], &sc.Sweep[1]
	colFormat := sc.Output.ColFormat
	headers := []string{sc.Output.RowHeader}
	for _, cv := range colAx.Values {
		for _, cell := range sc.Output.Cells {
			headers = append(headers, fmt.Sprintf(cell.Header, formatValue(cv, colFormat)))
		}
	}
	rows := make([][]string, len(rowAx.Values))
	for ri, rv := range rowAx.Values {
		row := []string{fmt.Sprint(int(rv))}
		for ci := range colAx.Values {
			p := runs[ci*len(rowAx.Values)+ri]
			for _, cell := range sc.Output.Cells {
				s, err := p.cell(cell)
				if err != nil {
					return nil, err
				}
				row = append(row, s)
			}
		}
		rows[ri] = row
	}
	return &TableResult{Title: sc.Output.Title, Headers: headers, Rows: rows}, nil
}

// ---------------------------------------------------------- one-shot kinds

// runCharacterization builds the initial file system only and compares the
// created inventory with the spec's category characterization (Table 5.1).
func runCharacterization(sc *Scenario, opts Options) (Result, error) {
	ps, err := sc.compilePoint(opts, 0)
	if err != nil {
		return nil, err
	}
	spec := ps.spec
	tables, err := gds.BuildTables(spec)
	if err != nil {
		return nil, err
	}
	fsys := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	clock := &vfs.ManualClock{}
	inv, err := fsc.Build(clock, fsys, spec, tables, rng.Derive(spec.Seed, "fsc"))
	if err != nil {
		return nil, err
	}
	st, err := inv.Stats(clock, fsys, spec)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(spec.Categories))
	for i, c := range spec.Categories {
		rows[i] = []string{
			c.Name(),
			report.F(c.FileSize.Mean), report.F(c.PercentFiles),
			fmt.Sprint(st[i].Files), report.F(st[i].MeanSize), report.F(st[i].PercentFiles),
		}
	}
	return &TableResult{
		Title:   sc.Output.Title,
		Headers: []string{"category", "spec size", "spec %", "files", "mean size", "%"},
		Rows:    rows,
	}, nil
}

// runUsage runs the workload with a full-record log (Validate requires
// it) and reduces it to per-category usage set against the spec inputs
// (Table 5.2).
func runUsage(sc *Scenario, opts Options) (Result, Stats, error) {
	run, err := sc.runPoint(opts, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	spec, gen := run.spec, run.gen
	stats := Stats{Points: 1, Counters: run.res.Analysis.Counters()}

	// Aggregate per (session, file): usage measures are per-login-session
	// quantities, so bytes moved on a file must not accumulate across the
	// sessions that share it. First-reference order keeps the float sums
	// deterministic.
	type sessFile struct {
		session int
		path    string
	}
	type fileUse struct {
		bytes int64
		size  int64
	}
	perCat := make([]map[sessFile]*fileUse, len(spec.Categories))
	perCatOrder := make([][]*fileUse, len(spec.Categories))
	sessions := make([]map[int]bool, len(spec.Categories))
	for i := range perCat {
		perCat[i] = make(map[sessFile]*fileUse)
		sessions[i] = make(map[int]bool)
	}
	gen.Log().Each(func(rec *trace.Record) {
		if rec.Category < 0 || rec.Category >= len(perCat) || rec.Err != "" {
			return
		}
		sessions[rec.Category][rec.Session] = true
		key := sessFile{session: rec.Session, path: rec.Path}
		fu, ok := perCat[rec.Category][key]
		if !ok {
			fu = &fileUse{}
			perCat[rec.Category][key] = fu
			perCatOrder[rec.Category] = append(perCatOrder[rec.Category], fu)
		}
		fu.bytes += rec.Bytes
		if rec.FileSize > fu.size {
			fu.size = rec.FileSize
		}
	})

	rows := make([][]string, len(spec.Categories))
	for i, c := range spec.Categories {
		var obsAccPerByte, obsFiles, obsPct float64
		obsPct = 100 * float64(len(sessions[i])) / float64(spec.Sessions)
		if n := len(sessions[i]); n > 0 {
			obsFiles = float64(len(perCat[i])) / float64(n)
		}
		var apbSum float64
		var apbN int
		for _, fu := range perCatOrder[i] {
			if fu.size > 0 && fu.bytes > 0 {
				apbSum += float64(fu.bytes) / float64(fu.size)
				apbN++
			}
		}
		if apbN > 0 {
			obsAccPerByte = apbSum / float64(apbN)
		}
		rows[i] = []string{
			c.Name(),
			report.F(c.AccessPerByte.Mean), report.F(c.FilesAccessed.Mean), report.F(c.PercentUsers),
			report.F(obsAccPerByte), report.F(obsFiles), report.F(obsPct),
		}
	}
	return &TableResult{
		Title: fmt.Sprintf(sc.Output.Title, spec.Sessions),
		Headers: []string{"category", "spec a/B", "spec files", "spec %users",
			"obs a/B", "obs files", "obs %sessions"},
		Rows: rows,
	}, stats, nil
}

// renderUserTypes tabulates the scenario's population (Table 5.4).
func renderUserTypes(sc *Scenario) (Result, error) {
	ps, err := sc.compilePoint(Options{}, 0)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(ps.spec.UserTypes))
	for i, u := range ps.spec.UserTypes {
		mean := u.ThinkTime.Mean
		if u.ThinkTime.Kind == config.KindConstant {
			mean = u.ThinkTime.Value
		}
		rows[i] = []string{u.Name, report.F(mean)}
	}
	return &TableResult{
		Title:   sc.Output.Title,
		Headers: []string{"user type", "think time (µs)"},
		Rows:    rows,
	}, nil
}

// renderDensityPanels samples the output's distributions (Figures 5.1-5.2)
// into a DensitiesResult, which renders the same ASCII panels and exports
// the sampled points as its table.
func renderDensityPanels(sc *Scenario) (Result, error) {
	out := &DensitiesResult{Title: sc.Output.Title, Width: 60, Height: 12}
	for _, p := range sc.Output.Densities {
		d, err := p.Density()
		if err != nil {
			return nil, err
		}
		xs, ys := report.SampleDensity(d, 0, 100, 60)
		out.Panels = append(out.Panels, DensityCurveData{Label: p.Label, XS: xs, YS: ys})
	}
	return out, nil
}

// runHistograms runs one point and histograms per-session usage measures,
// raw and smoothed (Figures 5.3-5.5), into a HistogramsResult.
func runHistograms(sc *Scenario, opts Options) (Result, Stats, error) {
	run, err := sc.runPoint(opts, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	a := run.res.Analysis

	measure := func(name string) func(trace.SessionUsage) float64 {
		switch name {
		case MeasureAvgFileSize:
			return func(s trace.SessionUsage) float64 { return s.AvgFileSize }
		case MeasureFiles:
			return func(s trace.SessionUsage) float64 { return float64(s.FilesReferenced) }
		default: // MeasureAccessPerByte
			return func(s trace.SessionUsage) float64 { return s.AccessPerByte }
		}
	}
	out := &HistogramsResult{
		Title: fmt.Sprintf(sc.Output.Title, run.spec.Sessions),
		Width: 60, Height: 10,
	}
	for _, p := range sc.Output.Panels {
		h, err := stats.NewHistogram(0, p.Max, p.Bins)
		if err != nil {
			return nil, Stats{}, err
		}
		for _, v := range a.SessionValues(measure(p.Measure)) {
			h.Add(v)
		}
		raw := make([]float64, len(h.Counts))
		copy(raw, h.Counts)
		out.Panels = append(out.Panels, HistPanelData{
			Title: p.Title, XLabel: p.XLabel,
			Centers: h.Centers(), Raw: raw,
			Smoothed: h.Smoothed(sc.Output.Smooth).Counts,
		})
	}
	return out, Stats{Points: 1, Counters: a.Counters()}, nil
}

// runTransient runs one point with the windowed collector attached and
// renders the run as a time series: the view where a server outage is a
// response spike, a crash is a throughput dip, and recovery is the window
// where response returns to its pre-fault baseline.
func runTransient(sc *Scenario, opts Options) (Result, Stats, error) {
	run, err := sc.runPoint(opts, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	gen, res := run.gen, run.res
	wins := gen.Windows().Finish()

	out := &TransientResult{
		Title:   sc.Output.Title,
		WidthUS: run.spec.Trace.WindowUS,
		Windows: wins,
	}
	line := func(format string, args ...any) {
		out.Summary = append(out.Summary, fmt.Sprintf(format, args...))
	}
	a := res.Analysis
	line("run: %d sessions, %d ops, %.2f%% available, %.0f s virtual",
		res.Sessions, a.Ops, 100*a.Availability(), res.VirtualDuration/1e6)
	if churn := gen.Churn(); churn.Crashes > 0 || churn.Reboots > 0 || churn.Departed > 0 {
		line("churn: %d workstation crashes, %d cold reboots, %d truncated sessions, %d departed users",
			churn.Crashes, churn.Reboots, churn.TruncatedSessions, churn.Departed)
	}
	if links := gen.Links(); len(links) > 0 && run.spec.Fault != nil {
		// A fleet's wire is every island's link.
		var drops, retransmits, giveUps int64
		var blocked float64
		for _, l := range links {
			drops += l.Drops()
			retransmits += l.Retransmits()
			giveUps += l.GiveUps()
			blocked += l.BlockedTime()
		}
		line("network: %d drops, %d retransmits, %d give-ups, %.1f s blocked in retry holds",
			drops, retransmits, giveUps, blocked/1e6)
	}
	if fe := gen.Faults(); fe != nil && fe.OutageDrops() > 0 {
		line("outage: %d calls swallowed by the dead server", fe.OutageDrops())
	}
	if srv := gen.Server(); srv != nil && srv.Restarts() > 0 {
		line("server: %d restarts (block cache dropped)", srv.Restarts())
	}

	// Time to recover: from the moment the last server outage clears to the
	// end of the first window whose response has returned to the pre-fault
	// baseline (ops-weighted mean response of the windows fully before the
	// first outage, spike threshold 1.5x). Resolution is one window width.
	if run.spec.Fault != nil && len(run.spec.Fault.ServerOutages) > 0 {
		onset, clear := math.Inf(1), 0.0
		for _, o := range run.spec.Fault.ServerOutages {
			onset = math.Min(onset, o.Start)
			clear = math.Max(clear, o.End)
		}
		line("outage window: %.0f-%.0f s", onset/1e6, clear/1e6)
		var preOps int64
		var preSum float64
		for _, w := range wins {
			if w.End <= onset {
				preOps += w.Ops
				preSum += w.MeanResponse * float64(w.Ops)
			}
		}
		baseline := 0.0
		if preOps > 0 {
			baseline = preSum / float64(preOps)
			line("baseline response: %s µs (pre-outage mean)", report.F(baseline))
		}
		recovered := false
		for _, w := range wins {
			if w.Start < clear || w.Ops == 0 || w.Errors > 0 {
				continue
			}
			if baseline > 0 && w.MeanResponse > 1.5*baseline {
				continue
			}
			line("time to recover: %.0f s (response back to baseline by t=%.0f s)",
				(w.End-clear)/1e6, w.End/1e6)
			recovered = true
			break
		}
		if !recovered {
			line("time to recover: not recovered within the run")
		}
	}
	return out, Stats{Points: 1, Counters: a.Counters()}, nil
}

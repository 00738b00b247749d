package scenario

import (
	"fmt"

	"uswg/internal/config"
	"uswg/internal/fault"
)

// Builder composes a Scenario fluently. Every method returns the builder;
// Build validates the result (MustBuild panics — for statically known
// scenarios like the built-ins). A ~30-line Builder chain replaces what used
// to be a compiled experiment driver; see examples/custom-scenario.
type Builder struct {
	sc Scenario
}

// New starts a scenario with the given registry name.
func New(name string) *Builder {
	return &Builder{sc: Scenario{Name: name}}
}

// Alias adds registry aliases resolving to this scenario.
func (b *Builder) Alias(names ...string) *Builder {
	b.sc.Aliases = append(b.sc.Aliases, names...)
	return b
}

// ------------------------------------------------------------ workload knobs

// Users fixes the simultaneous user count.
func (b *Builder) Users(n int) *Builder { b.sc.Base.Users = n; return b }

// Sessions sets the paper session count (scaled by Options.Scale at run).
func (b *Builder) Sessions(paper int) *Builder { b.sc.Base.Sessions = paper; return b }

// SessionsPerUser sets the paper session count and multiplies it by the
// point's user count (the user sweeps' sessions(50)*users shape).
func (b *Builder) SessionsPerUser(paper int) *Builder {
	b.sc.Base.Sessions = paper
	b.sc.Base.SessionsPerUser = true
	return b
}

// SessionsFromUsers uses the point's user count as the paper session count.
func (b *Builder) SessionsFromUsers() *Builder { b.sc.Base.SessionsFromUsers = true; return b }

// Files sizes the initial file system directly.
func (b *Builder) Files(system, perUser int) *Builder {
	b.sc.Base.SystemFiles = system
	b.sc.Base.FilesPerUser = perUser
	return b
}

// FileBudget splits a total file budget by category ownership proportions.
func (b *Builder) FileBudget(total int) *Builder { b.sc.Base.FileBudget = total; return b }

// Population sets the simulated user types (think-time overrides live in
// each type's ThinkTime DistSpec).
func (b *Builder) Population(types []config.UserType) *Builder {
	b.sc.Base.UserTypes = types
	return b
}

// AccessSize sets an exponential access-size distribution with this mean.
func (b *Builder) AccessSize(mean float64) *Builder { b.sc.Base.AccessSizeMean = mean; return b }

// Stream selects the streaming trace sink (O(active sessions) memory).
func (b *Builder) Stream() *Builder { b.sc.Base.Trace = config.TraceStream; return b }

// LogTrace selects the full-record log sink (required by write-availability
// metrics and usage characterization).
func (b *Builder) LogTrace() *Builder { b.sc.Base.Trace = config.TraceLog; return b }

// Window tees every record into the windowed time-series collector with
// this window width, virtual µs (required by the transient output).
func (b *Builder) Window(us float64) *Builder { b.sc.Base.TraceWindowUS = us; return b }

// NFSDs overrides the simulated server's daemon count.
func (b *Builder) NFSDs(n int) *Builder { b.sc.Base.NFSDs = n; return b }

// FS replaces the whole file-system spec.
func (b *Builder) FS(fs config.FSSpec) *Builder { b.sc.Base.FS = &fs; return b }

// Topology replaces the whole scale-out topology block.
func (b *Builder) Topology(t config.Topology) *Builder { b.sc.Base.Topology = &t; return b }

// topology returns the workload's topology block, creating it on demand.
func (b *Builder) topology() *config.Topology {
	if b.sc.Base.Topology == nil {
		b.sc.Base.Topology = &config.Topology{}
	}
	return b.sc.Base.Topology
}

// Servers sets the island (server) count.
func (b *Builder) Servers(n int) *Builder { b.topology().Servers = n; return b }

// ClientPool multiplexes all users over k pooled clients per island.
func (b *Builder) ClientPool(k int) *Builder { b.topology().ClientPool = k; return b }

// Placement sets the namespace placement strategy (shard or replicate).
func (b *Builder) Placement(p string) *Builder { b.topology().Placement = p; return b }

// MaxOps bounds operations per session.
func (b *Builder) MaxOps(n int) *Builder { b.sc.Base.MaxOpsPerSession = n; return b }

// LazyUsers defers each user's materialization (session engine, rng streams,
// file tree, client binding) to its first arrival — O(active users) memory
// and setup cost. Deterministic always; bit-identical to the eager default
// inside the no-eviction, simultaneous-arrival boundary DESIGN.md documents.
func (b *Builder) LazyUsers() *Builder { b.sc.Base.LazyUsers = true; return b }

// Salt sets the per-point seed derivation: seed + mul*source + add.
func (b *Builder) Salt(from string, mul, add uint64) *Builder {
	b.sc.Seed = Salt{From: from, Mul: mul, Add: add}
	return b
}

// -------------------------------------------------------------------- axes

// SweepUsers appends a numeric axis bound to the user count.
func (b *Builder) SweepUsers(counts ...int) *Builder {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	b.sc.Sweep = append(b.sc.Sweep, Axis{Name: "users", Values: vals, Bind: BindUsers})
	return b
}

// SweepServers appends a numeric axis bound to the island count.
func (b *Builder) SweepServers(counts ...int) *Builder {
	vals := make([]float64, len(counts))
	for i, c := range counts {
		vals[i] = float64(c)
	}
	b.sc.Sweep = append(b.sc.Sweep, Axis{Name: "servers", Values: vals, Bind: BindServers})
	return b
}

// SweepValue appends a numeric axis with the given bind target.
func (b *Builder) SweepValue(name, bind string, values ...float64) *Builder {
	b.sc.Sweep = append(b.sc.Sweep, Axis{Name: name, Values: values, Bind: bind})
	return b
}

// Rule names the fault rule the most recently added axis parameterizes.
func (b *Builder) Rule(name string) *Builder {
	if n := len(b.sc.Sweep); n > 0 {
		b.sc.Sweep[n-1].Rule = name
	}
	return b
}

// SweepCases appends a case axis of named fault-plan variants.
func (b *Builder) SweepCases(name string, cases ...Case) *Builder {
	b.sc.Sweep = append(b.sc.Sweep, Axis{Name: name, Cases: cases})
	return b
}

// Fault sets the axis-parameterized fault-plan template. dropWhenZero omits
// the plan at points where every bound parameter is zero.
func (b *Builder) Fault(plan fault.Plan, dropWhenZero bool) *Builder {
	b.sc.Fault = &FaultSpec{Plan: plan, DropWhenZero: dropWhenZero}
	return b
}

// ----------------------------------------------------------------- outputs

// Table renders one row per sweep point.
func (b *Builder) Table(title string) *Builder {
	b.sc.Output.Kind = KindTable
	b.sc.Output.Title = title
	return b
}

// Curve plots metric y against x (MetricUsers or MetricValue) and
// tabulates the points with the Col columns.
func (b *Builder) Curve(title, x, xlabel, ylabel, y string) *Builder {
	b.sc.Output.Kind = KindCurve
	b.sc.Output.Title = title
	b.sc.Output.X = x
	b.sc.Output.XLabel = xlabel
	b.sc.Output.YLabel = ylabel
	b.sc.Output.Y = y
	return b
}

// Grid crosses the first (column) axis with the users (row) axis; each
// column group renders the Cell columns, headers formatted with the column
// value (colFormat).
func (b *Builder) Grid(title, rowHeader, colFormat string) *Builder {
	b.sc.Output.Kind = KindGrid
	b.sc.Output.Title = title
	b.sc.Output.RowHeader = rowHeader
	b.sc.Output.ColFormat = colFormat
	return b
}

// Col appends a point column (tables and curves).
func (b *Builder) Col(header, metric, format string) *Builder {
	b.sc.Output.Columns = append(b.sc.Output.Columns, Column{Header: header, Metric: metric, Format: format})
	return b
}

// Cell appends a grid cell column; its header is a template receiving the
// formatted column-axis value for %s.
func (b *Builder) Cell(header, metric, format string) *Builder {
	b.sc.Output.Cells = append(b.sc.Output.Cells, Column{Header: header, Metric: metric, Format: format})
	return b
}

// Characterization builds only the initial file system and compares it with
// the category characterization (Table 5.1).
func (b *Builder) Characterization(title string) *Builder {
	b.sc.Output.Kind = KindCharacterization
	b.sc.Output.Title = title
	return b
}

// Usage runs with a full-record log and reduces per-category usage
// (Table 5.2). The title is a format string receiving the session count.
func (b *Builder) Usage(title string) *Builder {
	b.sc.Output.Kind = KindUsage
	b.sc.Output.Title = title
	return b
}

// UserTypesTable renders the population as a table (Table 5.4).
func (b *Builder) UserTypesTable(title string) *Builder {
	b.sc.Output.Kind = KindUserTypes
	b.sc.Output.Title = title
	return b
}

// Densities renders distribution panels (Figures 5.1-5.2).
func (b *Builder) Densities(title string, panels ...DensityPanel) *Builder {
	b.sc.Output.Kind = KindDensities
	b.sc.Output.Title = title
	b.sc.Output.Densities = panels
	return b
}

// Transient runs one point and renders the windowed time series plus
// churn/outage/recovery summary lines (fault5.6-5.8). Needs Window.
func (b *Builder) Transient(title string) *Builder {
	b.sc.Output.Kind = KindTransient
	b.sc.Output.Title = title
	return b
}

// Histograms runs one point and histograms per-session usage measures
// (Figures 5.3-5.5). The title is a format string receiving the session
// count.
func (b *Builder) Histograms(title string, smooth int, panels ...HistPanel) *Builder {
	b.sc.Output.Kind = KindHistograms
	b.sc.Output.Title = title
	b.sc.Output.Smooth = smooth
	b.sc.Output.Panels = panels
	return b
}

// Build validates and returns the scenario.
func (b *Builder) Build() (*Scenario, error) {
	sc := b.sc // copy; further builder use must not alias the result
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// MustBuild returns the scenario or panics on a validation error — for
// statically known scenarios (built-ins, examples).
func (b *Builder) MustBuild() *Scenario {
	sc, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return sc
}

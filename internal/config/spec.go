// Package config defines the serializable experiment specification the
// workload generator consumes: distribution specs (the GDS's input), file
// categories (Table 5.1), per-category usage measures (Table 5.2), user
// types (Table 5.4), and the target file system. The package holds data
// only; compiling DistSpecs into samplers is the GDS's job (package gds).
// A Spec is the single input to the DES→workload→trace→analysis pipeline:
// everything downstream, through to the analysis tables, is a deterministic
// function of (Spec, seed).
package config

import (
	"errors"
	"fmt"
	"math"

	"uswg/internal/fault"
	"uswg/internal/nfs"
	"uswg/internal/vfs"
)

// ErrSpec reports an invalid specification.
var ErrSpec = errors.New("config: invalid spec")

// Distribution kinds accepted in a DistSpec.
const (
	KindExponential = "exponential"
	KindConstant    = "constant"
	KindUniform     = "uniform"
	KindPhaseExp    = "phase-exp"
	KindGamma       = "gamma"
	KindTableCDF    = "table-cdf"
	KindTablePDF    = "table-pdf"
)

// ExpStageSpec is one phase of a phase-type exponential: weight w, mean
// theta, offset s (thesis §5.1: f(x) = sum w_i exp(theta_i, x - s_i)).
type ExpStageSpec struct {
	W      float64 `json:"w"`
	Theta  float64 `json:"theta"`
	Offset float64 `json:"offset,omitempty"`
}

// GammaStageSpec is one stage of a multi-stage gamma: weight, shape alpha,
// scale theta, offset.
type GammaStageSpec struct {
	W      float64 `json:"w"`
	Alpha  float64 `json:"alpha"`
	Theta  float64 `json:"theta"`
	Offset float64 `json:"offset,omitempty"`
}

// DistSpec describes one distribution in a form the GDS can compile. The
// thesis's GDS accepts phase-type exponential and multi-stage gamma
// families, plus tabular PDF or CDF values; exponential, constant, and
// uniform are convenience kinds for mean-value-only characterizations like
// Tables 5.1 and 5.2.
type DistSpec struct {
	// Kind selects the family (one of the Kind* constants).
	Kind string `json:"kind"`
	// Mean is the exponential mean.
	Mean float64 `json:"mean,omitempty"`
	// Value is the constant value.
	Value float64 `json:"value,omitempty"`
	// Lo and Hi bound the uniform.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// ExpStages parameterize a phase-type exponential.
	ExpStages []ExpStageSpec `json:"exp_stages,omitempty"`
	// GammaStages parameterize a multi-stage gamma.
	GammaStages []GammaStageSpec `json:"gamma_stages,omitempty"`
	// Xs and Ps hold tabular PDF or CDF values at sample points Xs.
	Xs []float64 `json:"xs,omitempty"`
	Ps []float64 `json:"ps,omitempty"`
	// Min and Max truncate samples when Max > Min.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// Exp returns an exponential DistSpec with the given mean.
func Exp(mean float64) DistSpec { return DistSpec{Kind: KindExponential, Mean: mean} }

// Const returns a constant DistSpec.
func Const(v float64) DistSpec { return DistSpec{Kind: KindConstant, Value: v} }

// Validate checks the spec's structural invariants (full numeric validation
// happens when the GDS compiles it against package dist).
func (d DistSpec) Validate() error {
	switch d.Kind {
	case KindExponential:
		if d.Mean <= 0 || math.IsNaN(d.Mean) {
			return fmt.Errorf("%w: exponential mean %v must be positive", ErrSpec, d.Mean)
		}
	case KindConstant:
		if d.Value < 0 || math.IsNaN(d.Value) {
			return fmt.Errorf("%w: constant value %v must be non-negative", ErrSpec, d.Value)
		}
	case KindUniform:
		if !(d.Hi > d.Lo) {
			return fmt.Errorf("%w: uniform range [%v, %v] is empty", ErrSpec, d.Lo, d.Hi)
		}
	case KindPhaseExp:
		if len(d.ExpStages) == 0 {
			return fmt.Errorf("%w: phase-exp needs stages", ErrSpec)
		}
	case KindGamma:
		if len(d.GammaStages) == 0 {
			return fmt.Errorf("%w: gamma needs stages", ErrSpec)
		}
	case KindTableCDF, KindTablePDF:
		if len(d.Xs) < 2 || len(d.Xs) != len(d.Ps) {
			return fmt.Errorf("%w: table needs matching xs/ps with at least 2 points", ErrSpec)
		}
	case "":
		return fmt.Errorf("%w: missing distribution kind", ErrSpec)
	default:
		return fmt.Errorf("%w: unknown distribution kind %q", ErrSpec, d.Kind)
	}
	if d.Max != 0 || d.Min != 0 {
		if !(d.Max > d.Min) {
			return fmt.Errorf("%w: truncation range [%v, %v] is empty", ErrSpec, d.Min, d.Max)
		}
	}
	return nil
}

// File type, owner, and type-of-use labels from Table 5.1.
const (
	FileDir   = "DIR"
	FileReg   = "REG"
	FileNotes = "NOTES"
	FileOther = "OTHER"

	OwnerUser  = "USER"
	OwnerOther = "OTHER"

	UseRdOnly = "RDONLY"
	UseNew    = "NEW"
	UseRdWrt  = "RD-WRT"
	UseTemp   = "TEMP"
)

// Access pattern labels. The thesis models sequential access only (§4.2);
// AccessRandom is the §6.2 extension for database-like files, where each
// read is preceded by a seek to a random offset.
const (
	AccessSequential = "sequential"
	AccessRandom     = "random"
)

// Category is one file category: the (file type, owner, type of use) triple
// the thesis characterizes files and usage by, with its Table 5.1 file
// distribution inputs (for the FSC) and Table 5.2 usage inputs (for the
// USIM).
type Category struct {
	// FileType is DIR, REG, NOTES, or OTHER (user-definable).
	FileType string `json:"file_type"`
	// Owner is USER or OTHER.
	Owner string `json:"owner"`
	// Use is RDONLY, NEW, RD-WRT, or TEMP.
	Use string `json:"use"`

	// FileSize is the distribution of sizes for files created by the FSC.
	FileSize DistSpec `json:"file_size"`
	// PercentFiles is this category's share of the initial file system, %.
	PercentFiles float64 `json:"percent_files"`

	// AccessPerByte is the distribution of how many times each byte of an
	// accessed file is transferred (Table 5.2 "accesses").
	AccessPerByte DistSpec `json:"access_per_byte"`
	// FilesAccessed is the distribution of how many files of this
	// category a user touches per session.
	FilesAccessed DistSpec `json:"files_accessed"`
	// PercentUsers is the share of users who access this category, %.
	PercentUsers float64 `json:"percent_users"`

	// Access selects the access pattern: AccessSequential (the default
	// when empty, per §4.2) or AccessRandom (the §6.2 extension).
	Access string `json:"access,omitempty"`
}

// Name returns the canonical "TYPE/OWNER/USE" label.
func (c *Category) Name() string {
	return c.FileType + "/" + c.Owner + "/" + c.Use
}

// RandomAccess reports whether the category uses the random-access
// extension.
func (c *Category) RandomAccess() bool { return c.Access == AccessRandom }

// IsDir reports whether the category holds directories.
func (c *Category) IsDir() bool { return c.FileType == FileDir }

// Writes reports whether the category's type of use involves writing.
func (c *Category) Writes() bool {
	return c.Use == UseNew || c.Use == UseRdWrt || c.Use == UseTemp
}

// Validate checks the category.
func (c *Category) Validate() error {
	if c.FileType == "" || c.Owner == "" || c.Use == "" {
		return fmt.Errorf("%w: category %q is missing a label", ErrSpec, c.Name())
	}
	if c.PercentFiles < 0 || c.PercentFiles > 100 {
		return fmt.Errorf("%w: category %s percent_files %v out of [0, 100]", ErrSpec, c.Name(), c.PercentFiles)
	}
	if c.PercentUsers < 0 || c.PercentUsers > 100 {
		return fmt.Errorf("%w: category %s percent_users %v out of [0, 100]", ErrSpec, c.Name(), c.PercentUsers)
	}
	if err := c.FileSize.Validate(); err != nil {
		return fmt.Errorf("category %s file_size: %w", c.Name(), err)
	}
	if err := c.AccessPerByte.Validate(); err != nil {
		return fmt.Errorf("category %s access_per_byte: %w", c.Name(), err)
	}
	if err := c.FilesAccessed.Validate(); err != nil {
		return fmt.Errorf("category %s files_accessed: %w", c.Name(), err)
	}
	switch c.Access {
	case "", AccessSequential, AccessRandom:
	default:
		return fmt.Errorf("%w: category %s access %q", ErrSpec, c.Name(), c.Access)
	}
	return nil
}

// UserType is one row of Table 5.4: a named user type with its think-time
// distribution (inter-I/O-request time).
type UserType struct {
	Name string `json:"name"`
	// ThinkTime is the distribution of delays between operations, µs.
	ThinkTime DistSpec `json:"think_time"`
	// Fraction is this type's share of the simulated population (the
	// fractions across UserTypes must sum to 1).
	Fraction float64 `json:"fraction"`
	// Lifecycle makes this type's workstations dynamic: seeded arrival,
	// departure, and crash/reboot times instead of the steady-state
	// always-on population. Nil keeps the thesis's fixed fleet. Simulated
	// modes only (local or NFS): the lifecycle runs on the DES.
	Lifecycle *Lifecycle `json:"lifecycle,omitempty"`
}

// Validate checks the user type.
func (u UserType) Validate() error {
	if u.Name == "" {
		return fmt.Errorf("%w: user type with empty name", ErrSpec)
	}
	if u.Fraction < 0 || u.Fraction > 1 {
		return fmt.Errorf("%w: user type %s fraction %v out of [0, 1]", ErrSpec, u.Name, u.Fraction)
	}
	if err := u.ThinkTime.Validate(); err != nil {
		return fmt.Errorf("user type %s think_time: %w", u.Name, err)
	}
	if err := u.Lifecycle.Validate(); err != nil {
		return fmt.Errorf("user type %s lifecycle: %w", u.Name, err)
	}
	return nil
}

// Lifecycle describes the dynamic population behaviour of one user class:
// when its workstations boot, when they leave, and how often they crash.
// All four distributions are optional and sampled once per user from the
// lifecycle rng stream (derived from the run seed and the user index), so
// the whole timeline is a pure function of the spec — deterministic at any
// sweep parallelism.
type Lifecycle struct {
	// Arrive is the distribution of boot times, virtual µs from run start.
	// A user arriving after 0 boots cold: its caches are not pre-warmed,
	// so the login storm of a shared arrival window hits the server. Nil
	// means present (and warmed) from the start.
	Arrive *DistSpec `json:"arrive,omitempty"`
	// Depart is the distribution of leave times, virtual µs from run
	// start. A departing user finishes its current session's logout sweep,
	// then stops issuing sessions. Nil means the user never departs.
	Depart *DistSpec `json:"depart,omitempty"`
	// MTTF is the distribution of time-to-failure, µs of uptime until the
	// workstation crashes mid-session. Nil disables crashes.
	MTTF *DistSpec `json:"mttf,omitempty"`
	// MTTR is the distribution of repair time, µs from crash to reboot.
	// Nil with MTTF set means instant reboot.
	MTTR *DistSpec `json:"mttr,omitempty"`
	// MaxCrashes bounds crash/reboot cycles per user (0 means unlimited).
	MaxCrashes int `json:"max_crashes,omitempty"`
}

// Validate checks the lifecycle (nil is valid: a static population).
func (l *Lifecycle) Validate() error {
	if l == nil {
		return nil
	}
	if l.Arrive == nil && l.Depart == nil && l.MTTF == nil {
		return fmt.Errorf("%w: lifecycle sets none of arrive/depart/mttf", ErrSpec)
	}
	for _, d := range []struct {
		name string
		spec *DistSpec
	}{{"arrive", l.Arrive}, {"depart", l.Depart}, {"mttf", l.MTTF}, {"mttr", l.MTTR}} {
		if d.spec == nil {
			continue
		}
		if err := d.spec.Validate(); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}
	if l.MTTR != nil && l.MTTF == nil {
		return fmt.Errorf("%w: lifecycle mttr without mttf", ErrSpec)
	}
	if l.MaxCrashes < 0 {
		return fmt.Errorf("%w: lifecycle max_crashes %d", ErrSpec, l.MaxCrashes)
	}
	return nil
}

// Trace sink modes. Either way the run folds its Analysis online through a
// trace.Summarizer, so both modes yield the same Analysis; the mode only
// decides whether the records are also kept.
const (
	// TraceLog also tees every record into a full trace.Log — required for
	// JSONL serialization, replay, and the reductions that read records
	// after the run. The default.
	TraceLog = "log"
	// TraceStream keeps no records: O(sessions) memory instead of
	// O(records), which is what makes 1000-user populations reachable.
	TraceStream = "stream"
)

// TraceSpec selects how the run's usage records are consumed.
type TraceSpec struct {
	// Mode is TraceLog (default when empty) or TraceStream.
	Mode string `json:"mode,omitempty"`
	// WindowUS, when positive, additionally folds every record into a
	// windowed time-series collector (trace.Windows) with this window
	// width in virtual µs — the transient-response view: per-window
	// response percentiles, throughput, and availability. Composes with
	// either mode via a tee; it never changes the primary sink's records.
	// A width is finite and at least 1 µs, the resolution of record times.
	WindowUS float64 `json:"window_us,omitempty"`
}

// Streaming reports whether the spec keeps no records.
func (t TraceSpec) Streaming() bool { return t.Mode == TraceStream }

// Validate checks the trace spec.
func (t TraceSpec) Validate() error {
	if t.WindowUS != 0 && !(t.WindowUS >= 1 && !math.IsInf(t.WindowUS, 1)) {
		return fmt.Errorf("%w: trace window_us %v must be 0 (off) or a finite width of at least 1 µs", ErrSpec, t.WindowUS)
	}
	switch t.Mode {
	case "", TraceLog, TraceStream:
		return nil
	default:
		return fmt.Errorf("%w: unknown trace mode %q", ErrSpec, t.Mode)
	}
}

// File system kinds.
const (
	FSLocal = "local" // simulated local UNIX file system (MemFS + LocalCost)
	FSNFS   = "nfs"   // simulated SUN NFS (client + server + shared wire)
	FSReal  = "real"  // host file system under a sandbox root
)

// FSSpec selects and parameterizes the file system under test.
type FSSpec struct {
	Kind string `json:"kind"`
	// Local parameterizes the simulated local file system; the all-zero
	// block means vfs.DefaultLocalCostConfig().
	Local vfs.LocalCostConfig `json:"local,omitempty"`
	// Server and Client parameterize the simulated NFS: every island's
	// server and every client (wire model included) is built from them.
	Server nfs.ServerConfig `json:"server,omitempty"`
	Client nfs.ClientConfig `json:"client,omitempty"`
	// Topology is the fleet shape: island count, pooled clients and
	// placement. Nil keeps the thesis's single server with one client per
	// user.
	Topology *Topology `json:"topology,omitempty"`
	// RealRoot is the host directory for the real mode.
	RealRoot string `json:"real_root,omitempty"`
}

// Validate checks the file system spec.
func (f FSSpec) Validate() error {
	switch f.Kind {
	case FSLocal:
		if f.Topology != nil {
			return fmt.Errorf("%w: topology requires fs kind %q, not %q", ErrSpec, FSNFS, f.Kind)
		}
		// An all-zero block means vfs.DefaultLocalCostConfig().
		if f.Local == (vfs.LocalCostConfig{}) {
			return nil
		}
		return f.Local.Validate()
	case FSNFS:
		if err := f.Topology.Validate(); err != nil {
			return err
		}
		if err := f.Server.Validate(); err != nil {
			return err
		}
		return f.Client.Validate()
	case FSReal:
		if f.Topology != nil {
			return fmt.Errorf("%w: topology requires fs kind %q, not %q", ErrSpec, FSNFS, f.Kind)
		}
		if f.RealRoot == "" {
			return fmt.Errorf("%w: real file system needs real_root", ErrSpec)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown file system kind %q", ErrSpec, f.Kind)
	}
}

// Spec is a complete experiment specification.
type Spec struct {
	// Name labels the experiment.
	Name string `json:"name"`
	// Seed makes the whole run reproducible.
	Seed uint64 `json:"seed"`

	// Users is the number of users using the computer simultaneously (the
	// thesis's load-intensity knob, the x-axis of Figures 5.6-5.11).
	Users int `json:"users"`
	// Sessions is the total number of login sessions to simulate across
	// all users (the thesis's experiments use 600, then 50 per point).
	Sessions int `json:"sessions"`
	// UserTypes is the simulated population (Table 5.4); fractions sum to 1.
	UserTypes []UserType `json:"user_types"`

	// AccessSize is the distribution of bytes per file I/O system call
	// (the thesis assumes exponential, mean 1024).
	AccessSize DistSpec `json:"access_size"`
	// Categories holds the merged Table 5.1/5.2 characterization.
	Categories []Category `json:"categories"`

	// SystemFiles and FilesPerUser size the initial file system the FSC
	// creates: how many candidate files exist in the system directory and
	// in each user's directory.
	SystemFiles  int `json:"system_files"`
	FilesPerUser int `json:"files_per_user"`

	// MaxOpsPerSession bounds a session (a safety valve against extreme
	// samples; 0 means the built-in default of 10000).
	MaxOpsPerSession int `json:"max_ops_per_session,omitempty"`

	// FS selects the file system under test.
	FS FSSpec `json:"fs"`

	// Trace selects whether the run also keeps a full-record log (the
	// default) or only streams (see TraceSpec).
	Trace TraceSpec `json:"trace,omitempty"`

	// LazyUsers defers every per-user construction cost — the FSC's private
	// file tree, the user's NFS client or router binding, cache warming, and
	// the session arena — until the user's first arrival (lifecycle arrive
	// draw, or t=0 for users with sessions), and reclaims it when the user's
	// stream ends. Resident state becomes O(active users) instead of
	// O(spec users), which is what makes 100k+ sparse populations tractable.
	// Off (eager) reproduces the published construction exactly; lazy runs
	// are always deterministic, and bit-equal to eager ones when no cache
	// evicts and arrivals are simultaneous — per-user file sizes are
	// pre-drawn on the eager stream, every other per-user draw comes from a
	// private rng stream, and t=0 materialization replays eager inode order
	// (see DESIGN.md, "Lazy user materialization"). Simulated modes only
	// (local or NFS, one session stream per user).
	LazyUsers bool `json:"lazy_users,omitempty"`

	// Fault attaches a fault plan to the measured run: errno injection,
	// latency spikes, partial writes, lost messages, and server stalls at
	// every suspendable layer (see package fault). Nil runs a healthy
	// system — the thesis's testbed. Setup (FSC) and cache warming always
	// run fault-free; only the measured sessions see the plan.
	Fault *fault.Plan `json:"fault,omitempty"`

	// Ext enables the thesis's §6.2 future-work extensions. The zero
	// value reproduces the published model exactly.
	Ext Extensions `json:"ext,omitempty"`
}

// Extensions are the §6.2 future-work features, all off by default.
type Extensions struct {
	// Locality introduces first-order (Markov) dependence in the
	// operation stream: with this probability the next operation targets
	// the same file as the previous one, instead of an independent draw.
	// 0 keeps the thesis's independence assumption (§3.1.4).
	Locality float64 `json:"locality,omitempty"`

	// ThinkFactors make user behaviour time-dependent: think-time samples
	// are multiplied by the factor for the current phase of a cycle of
	// ThinkPeriod microseconds (e.g. 24 factors with a 24-hour period
	// model the [CS85] time-of-day variation). Empty disables.
	ThinkFactors []float64 `json:"think_factors,omitempty"`
	// ThinkPeriod is the cycle length for ThinkFactors, µs.
	ThinkPeriod float64 `json:"think_period,omitempty"`

	// ConcurrentSessions gives every user this many simultaneous login
	// sessions (the window-system behaviour: several windows, possibly
	// background jobs). 0 or 1 keeps one session at a time per user.
	ConcurrentSessions int `json:"concurrent_sessions,omitempty"`
}

// Validate checks the extensions.
func (e Extensions) Validate() error {
	if e.Locality < 0 || e.Locality >= 1 || math.IsNaN(e.Locality) {
		return fmt.Errorf("%w: locality %v out of [0, 1)", ErrSpec, e.Locality)
	}
	if len(e.ThinkFactors) > 0 {
		if e.ThinkPeriod <= 0 {
			return fmt.Errorf("%w: think_factors need a positive think_period", ErrSpec)
		}
		for i, f := range e.ThinkFactors {
			if f < 0 || math.IsNaN(f) {
				return fmt.Errorf("%w: think_factors[%d] = %v", ErrSpec, i, f)
			}
		}
	}
	if e.ConcurrentSessions < 0 {
		return fmt.Errorf("%w: concurrent_sessions %d", ErrSpec, e.ConcurrentSessions)
	}
	return nil
}

// Concurrency returns the per-user simultaneous session count (at least 1).
func (e Extensions) Concurrency() int {
	if e.ConcurrentSessions > 1 {
		return e.ConcurrentSessions
	}
	return 1
}

// ThinkFactorAt returns the think-time multiplier in effect at virtual time
// t (1 when the extension is off).
func (e Extensions) ThinkFactorAt(t float64) float64 {
	if len(e.ThinkFactors) == 0 || e.ThinkPeriod <= 0 {
		return 1
	}
	phase := math.Mod(t, e.ThinkPeriod) / e.ThinkPeriod
	if phase < 0 {
		phase += 1
	}
	i := int(phase * float64(len(e.ThinkFactors)))
	if i >= len(e.ThinkFactors) {
		i = len(e.ThinkFactors) - 1
	}
	return e.ThinkFactors[i]
}

// Validate checks the whole spec.
func (s *Spec) Validate() error {
	if s.Users < 1 {
		return fmt.Errorf("%w: users %d must be at least 1", ErrSpec, s.Users)
	}
	if s.Sessions < 1 {
		return fmt.Errorf("%w: sessions %d must be at least 1", ErrSpec, s.Sessions)
	}
	if len(s.UserTypes) == 0 {
		return fmt.Errorf("%w: no user types", ErrSpec)
	}
	var fsum float64
	names := make(map[string]bool, len(s.UserTypes))
	for _, u := range s.UserTypes {
		if err := u.Validate(); err != nil {
			return err
		}
		if names[u.Name] {
			return fmt.Errorf("%w: duplicate user type %q", ErrSpec, u.Name)
		}
		names[u.Name] = true
		fsum += u.Fraction
	}
	if math.Abs(fsum-1) > 1e-6 {
		return fmt.Errorf("%w: user type fractions sum to %v, want 1", ErrSpec, fsum)
	}
	if err := s.AccessSize.Validate(); err != nil {
		return fmt.Errorf("access_size: %w", err)
	}
	if len(s.Categories) == 0 {
		return fmt.Errorf("%w: no file categories", ErrSpec)
	}
	catNames := make(map[string]bool, len(s.Categories))
	var psum float64
	for _, c := range s.Categories {
		if err := c.Validate(); err != nil {
			return err
		}
		if catNames[c.Name()] {
			return fmt.Errorf("%w: duplicate category %s", ErrSpec, c.Name())
		}
		catNames[c.Name()] = true
		psum += c.PercentFiles
	}
	if math.Abs(psum-100) > 0.5 {
		return fmt.Errorf("%w: category percent_files sum to %v, want 100", ErrSpec, psum)
	}
	if s.SystemFiles < 0 || s.FilesPerUser < 1 {
		return fmt.Errorf("%w: system_files %d / files_per_user %d", ErrSpec, s.SystemFiles, s.FilesPerUser)
	}
	if s.MaxOpsPerSession < 0 {
		return fmt.Errorf("%w: max_ops_per_session %d", ErrSpec, s.MaxOpsPerSession)
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	if err := s.Trace.Validate(); err != nil {
		return err
	}
	if err := s.Ext.Validate(); err != nil {
		return err
	}
	if s.HasLifecycle() {
		if s.FS.Kind == FSReal {
			return fmt.Errorf("%w: lifecycle requires a simulated file system, not %q", ErrSpec, FSReal)
		}
		if s.Ext.Concurrency() > 1 {
			return fmt.Errorf("%w: lifecycle and concurrent_sessions > 1 are mutually exclusive", ErrSpec)
		}
	}
	if s.LazyUsers {
		if s.FS.Kind == FSReal {
			return fmt.Errorf("%w: lazy_users requires a simulated file system, not %q", ErrSpec, FSReal)
		}
		if s.Ext.Concurrency() > 1 {
			return fmt.Errorf("%w: lazy_users and concurrent_sessions > 1 are mutually exclusive", ErrSpec)
		}
	}
	return s.FS.Validate()
}

// HasLifecycle reports whether any user type carries a lifecycle — whether
// the population is dynamic.
func (s *Spec) HasLifecycle() bool {
	for i := range s.UserTypes {
		if s.UserTypes[i].Lifecycle != nil {
			return true
		}
	}
	return false
}

// MaxOps returns the per-session operation bound, applying the default.
func (s *Spec) MaxOps() int {
	if s.MaxOpsPerSession > 0 {
		return s.MaxOpsPerSession
	}
	return 10000
}

// Package gds implements the Graphic Distribution Specifier: the part of
// the workload generator that turns distribution specifications into the
// CDF tables the FSC and USIM sample from (thesis §4.1.1). It compiles the
// serializable specs of package config into package dist distributions
// and fits phase-type exponential and multi-stage gamma families to
// empirical samples. The thesis's Figure 5.1/5.2 example parameterizations
// are the fig5.1 and fig5.2 scenarios' density panels.
//
// The thesis's GDS displayed densities under X11; here rendering is ASCII
// (package report), which the thesis itself anticipates: "If the X11 window
// system is not supported, the GDS can still be used to specify
// distributions."
//
// In the DES→workload→trace→analysis pipeline the GDS opens the workload
// stage: it is the bridge from declarative spec (package config) to the
// samplers (package dist) the FSC and USIM consume.
package gds

import (
	"fmt"
	"math"

	"uswg/internal/config"
	"uswg/internal/dist"
)

// Compile turns a DistSpec into a sampleable distribution, applying
// truncation when the spec requests it.
func Compile(spec config.DistSpec) (dist.Distribution, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var (
		d   dist.Distribution
		err error
	)
	switch spec.Kind {
	case config.KindExponential:
		d, err = dist.NewExponential(spec.Mean)
	case config.KindConstant:
		d = dist.Constant{V: spec.Value}
	case config.KindUniform:
		d, err = dist.NewUniform(spec.Lo, spec.Hi)
	case config.KindPhaseExp:
		stages := make([]dist.ExpStage, len(spec.ExpStages))
		for i, s := range spec.ExpStages {
			stages[i] = dist.ExpStage{W: s.W, Theta: s.Theta, Offset: s.Offset}
		}
		d, err = dist.NewPhaseTypeExp(stages)
	case config.KindGamma:
		stages := make([]dist.GammaStage, len(spec.GammaStages))
		for i, s := range spec.GammaStages {
			stages[i] = dist.GammaStage{W: s.W, Alpha: s.Alpha, Theta: s.Theta, Offset: s.Offset}
		}
		d, err = dist.NewMultiStageGamma(stages)
	case config.KindTableCDF:
		d, err = dist.NewCDFTable(spec.Xs, spec.Ps)
	case config.KindTablePDF:
		d, err = dist.FromPDFTable(spec.Xs, spec.Ps)
	default:
		return nil, fmt.Errorf("%w: kind %q", config.ErrSpec, spec.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("gds: compile %s: %w", spec.Kind, err)
	}
	if spec.Max > spec.Min {
		d, err = dist.NewTruncated(d, spec.Min, spec.Max)
		if err != nil {
			return nil, fmt.Errorf("gds: truncate %s: %w", spec.Kind, err)
		}
	}
	return d, nil
}

// TablePoints is the default CDF table resolution.
const TablePoints = 512

// Table compiles a spec and tabulates its CDF over [0, hi], where hi covers
// at least 99.9% of the mass — the "Generate CDF tables" step of the block
// diagram. Constants are returned as two-point tables.
func Table(spec config.DistSpec) (*dist.CDFTable, error) {
	d, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return TableOf(d)
}

// TableOf tabulates an already-compiled distribution.
func TableOf(d dist.Distribution) (*dist.CDFTable, error) {
	if c, ok := d.(dist.Constant); ok {
		// A point mass: a degenerate two-point table.
		eps := math.Max(math.Abs(c.V)*1e-9, 1e-9)
		return dist.NewCDFTable([]float64{c.V - eps, c.V}, []float64{0, 1})
	}
	hi := upperBound(d)
	if hi <= 0 {
		return nil, fmt.Errorf("gds: cannot bound distribution with mean %v", d.Mean())
	}
	t, err := dist.TableFor(d, 0, hi, TablePoints)
	if err != nil {
		return nil, fmt.Errorf("gds: tabulate: %w", err)
	}
	return t, nil
}

// upperBound finds a table upper limit covering at least 99.9% of the mass.
func upperBound(d dist.Distribution) float64 {
	const coverage = 0.999
	mean := d.Mean()
	if mean <= 0 {
		mean = 1
	}
	if c, ok := d.(dist.Cumulative); ok {
		hi := mean
		for i := 0; i < 64 && c.CDF(hi) < coverage; i++ {
			hi *= 2
		}
		return hi
	}
	// Without a CDF, ten means covers 99.99% of an exponential and most
	// unimodal positives of comparable spread.
	return 10 * mean
}

// FitFamily names a fit target.
type FitFamily string

// Fit families supported by the GDS.
const (
	FamilyExponential FitFamily = "exponential"
	FamilyPhaseExp    FitFamily = "phase-exp"
	FamilyGamma       FitFamily = "gamma"
)

// Fit fits the named family to empirical samples and returns the fitted
// distribution as a DistSpec (so it can be saved in an experiment spec) and
// as a compiled distribution. stages is ignored for the exponential family.
func Fit(samples []float64, family FitFamily, stages int) (config.DistSpec, dist.Distribution, error) {
	switch family {
	case FamilyExponential:
		d, err := dist.FitExponential(samples)
		if err != nil {
			return config.DistSpec{}, nil, fmt.Errorf("gds: fit: %w", err)
		}
		return config.Exp(d.Theta), d, nil
	case FamilyPhaseExp:
		d, err := dist.FitPhaseTypeExp(samples, stages)
		if err != nil {
			return config.DistSpec{}, nil, fmt.Errorf("gds: fit: %w", err)
		}
		spec := config.DistSpec{Kind: config.KindPhaseExp}
		for _, s := range d.Stages() {
			spec.ExpStages = append(spec.ExpStages, config.ExpStageSpec{W: s.W, Theta: s.Theta, Offset: s.Offset})
		}
		return spec, d, nil
	case FamilyGamma:
		d, err := dist.FitMultiStageGamma(samples, stages)
		if err != nil {
			return config.DistSpec{}, nil, fmt.Errorf("gds: fit: %w", err)
		}
		spec := config.DistSpec{Kind: config.KindGamma}
		for _, s := range d.Stages() {
			spec.GammaStages = append(spec.GammaStages, config.GammaStageSpec{W: s.W, Alpha: s.Alpha, Theta: s.Theta, Offset: s.Offset})
		}
		return spec, d, nil
	default:
		return config.DistSpec{}, nil, fmt.Errorf("%w: unknown fit family %q", config.ErrSpec, family)
	}
}

// TableSet compiles every distribution an experiment spec references into
// CDF tables, keyed the way the USIM and FSC look them up. It is the
// "Generate CDF tables" output of the GDS in the block diagram, and a
// convenient early validation of the whole spec.
type TableSet struct {
	// AccessSize is the per-call transfer size table.
	AccessSize *dist.CDFTable
	// ThinkTime maps user type name to its think-time table.
	ThinkTime map[string]*dist.CDFTable
	// FileSize, AccessPerByte, and FilesAccessed map category index to
	// that category's tables.
	FileSize      []*dist.CDFTable
	AccessPerByte []*dist.CDFTable
	FilesAccessed []*dist.CDFTable
}

// BuildTables compiles all distributions in the spec.
func BuildTables(spec *config.Spec) (*TableSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ts := &TableSet{ThinkTime: make(map[string]*dist.CDFTable, len(spec.UserTypes))}
	var err error
	if ts.AccessSize, err = Table(spec.AccessSize); err != nil {
		return nil, fmt.Errorf("access_size: %w", err)
	}
	for _, u := range spec.UserTypes {
		if ts.ThinkTime[u.Name], err = Table(u.ThinkTime); err != nil {
			return nil, fmt.Errorf("user type %s think_time: %w", u.Name, err)
		}
	}
	n := len(spec.Categories)
	ts.FileSize = make([]*dist.CDFTable, n)
	ts.AccessPerByte = make([]*dist.CDFTable, n)
	ts.FilesAccessed = make([]*dist.CDFTable, n)
	for i, c := range spec.Categories {
		if ts.FileSize[i], err = Table(c.FileSize); err != nil {
			return nil, fmt.Errorf("category %s file_size: %w", c.Name(), err)
		}
		if ts.AccessPerByte[i], err = Table(c.AccessPerByte); err != nil {
			return nil, fmt.Errorf("category %s access_per_byte: %w", c.Name(), err)
		}
		if ts.FilesAccessed[i], err = Table(c.FilesAccessed); err != nil {
			return nil, fmt.Errorf("category %s files_accessed: %w", c.Name(), err)
		}
	}
	return ts, nil
}

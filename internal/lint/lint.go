// Package lint implements wlint, the repo's determinism linter: a
// go/analysis-style multichecker whose analyzers machine-enforce the
// invariants every figure in this reproduction is gated on — byte-identical
// rendered output at any -parallel, rng streams that are a pure function of
// (seed, label), ULP-stable float folds, and an allocation-free CPS hot
// path. The rules grew up as code-review lore across the lazy-materialization,
// arena, and fleet-routing PRs; this package turns them into checked code.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, positional diagnostics, testdata fixtures with `// want`
// expectations) but is built purely on the standard library's go/ast,
// go/types, and go/importer, because this build environment vendors no
// external modules. Packages are loaded with `go list -export -deps -json`
// and type-checked from source against the build cache's gc export data, so
// wlint sees exactly the types the compiler does.
//
// Suppression is explicit and audited: a `//wlint:allow <analyzer> <reason>`
// comment on the diagnostic's line (or the line directly above it) silences
// that one finding; there is no file-wide form. The reason is mandatory,
// unknown analyzer names are themselves diagnosed, and an allow that no
// longer suppresses anything is reported as stale — annotations cannot rot
// silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named determinism rule. Run inspects a single
// type-checked package through the Pass and reports findings; the driver
// owns suppression, ordering, and exit status.
type Analyzer struct {
	Name string
	Doc  string

	// Applies filters packages by import path before Run is invoked.
	// nil means the analyzer runs on every loaded package. Analyzers
	// scoped to specific packages also accept any path under the lint
	// testdata tree, so fixtures can stand in for in-scope packages.
	Applies func(importPath string) bool

	Run func(*Pass)
}

// A Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos. The driver may later suppress it via a
// //wlint:allow annotation.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding, resolved to a file position.
// DriverName identifies diagnostics issued by the driver itself (malformed
// or stale allow annotations); those cannot be suppressed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// DriverName is the pseudo-analyzer name under which the driver reports
// problems with the annotations themselves.
const DriverName = "wlint"

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{MapRange, RNGDiscipline, FloatFold, HotAlloc}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

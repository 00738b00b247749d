package lint_test

import (
	"strings"
	"testing"

	"uswg/internal/lint"
	"uswg/internal/lint/analysistest"
)

const fixtures = "uswg/internal/lint/testdata/src/"

func TestMapRangeFixture(t *testing.T) {
	analysistest.Run(t, fixtures+"maprange", lint.MapRange)
}

func TestRNGDisciplineFixture(t *testing.T) {
	analysistest.Run(t, fixtures+"rngdiscipline", lint.RNGDiscipline)
}

func TestFloatFoldFixture(t *testing.T) {
	analysistest.Run(t, fixtures+"floatfold", lint.FloatFold)
}

func TestHotAllocFixture(t *testing.T) {
	analysistest.Run(t, fixtures+"hotalloc", lint.HotAlloc)
}

// TestAllowAudit drives the driver's annotation handling end to end on the
// allow fixture: the used annotation suppresses its finding silently, while
// the stale, malformed, and unknown-analyzer annotations each surface as a
// driver diagnostic, in position order. The first stale one sits before the
// package clause, where an annotation covers nothing.
func TestAllowAudit(t *testing.T) {
	pkgs, err := lint.Load(fixtures + "allow")
	if err != nil {
		t.Fatalf("loading allow fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags := lint.RunPackage(pkgs[0], lint.All)
	want := []string{
		"stale //wlint:allow maprange",
		"stale //wlint:allow maprange",
		"malformed annotation",
		`unknown analyzer "nosuchanalyzer"`,
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != lint.DriverName {
			t.Errorf("diagnostic %d analyzer = %q, want %q", i, diags[i].Analyzer, lint.DriverName)
		}
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
	if line := diags[0].Pos.Line; line != 1 {
		t.Errorf("first stale annotation reported at line %d, want the one before the package clause (line 1)", line)
	}
}

// TestLoadTypes sanity-checks the stdlib-only loader: a real repo package
// parses, type-checks against gc export data, and exposes its scope.
func TestLoadTypes(t *testing.T) {
	pkgs, err := lint.Load("uswg/internal/rng")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types.Scope().Lookup("DeriveSeed") == nil {
		t.Errorf("rng scope is missing DeriveSeed; loader type info is incomplete")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Errorf("loader produced no Uses info")
	}
}

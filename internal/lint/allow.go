package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression annotation:
//
//	//wlint:allow <analyzer> <reason>
//
// On the diagnostic's line or the line directly above it, the annotation
// silences that analyzer's finding there, and nowhere else. The reason is
// part of the syntax — an annotation without one is itself a diagnostic, so
// every suppression carries its audit trail in the source.
const allowPrefix = "wlint:allow"

type allowAnnotation struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// collectAllows extracts every //wlint:allow annotation in the package and
// returns driver diagnostics for malformed ones (missing reason, unknown
// analyzer name). Malformed annotations suppress nothing.
func collectAllows(pkg *Package) ([]*allowAnnotation, []Diagnostic) {
	var allows []*allowAnnotation
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: DriverName,
						Message:  "malformed annotation: need //wlint:allow <analyzer> <reason>",
					})
					continue
				}
				name := fields[0]
				if ByName(name) == nil {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: DriverName,
						Message:  fmt.Sprintf("unknown analyzer %q in //wlint:allow", name),
					})
					continue
				}
				allows = append(allows, &allowAnnotation{
					pos:      pos,
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return allows, diags
}

// applyAllows drops every diagnostic covered by an annotation, marking the
// annotation used; it then reports annotations that suppressed nothing for
// an analyzer that actually ran — a stale allow is dead weight that would
// otherwise hide a future regression silently.
func applyAllows(diags []Diagnostic, allows []*allowAnnotation, ran map[string]bool) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.analyzer != d.Analyzer || a.pos.Filename != d.Pos.Filename {
				continue
			}
			if a.pos.Line == d.Pos.Line || a.pos.Line == d.Pos.Line-1 {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, a := range allows {
		if !a.used && ran[a.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      a.pos,
				Analyzer: DriverName,
				Message:  "stale //wlint:allow " + a.analyzer + ": nothing to suppress here (remove the annotation)",
			})
		}
	}
	return kept
}

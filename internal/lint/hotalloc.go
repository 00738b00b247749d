package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotPathPackages are the CPS kernel and the layers whose per-op work runs
// under it. A func literal or a method value created there escapes onto
// the event heap (Hold and Acquire store continuations), so each one is a
// per-op allocation. The fix is a pooled op state that binds one
// continuation when it is made and is told its next step by a method
// expression, which allocates nothing.
var hotPathPackages = map[string]bool{
	"uswg/internal/sim":    true,
	"uswg/internal/usim":   true,
	"uswg/internal/nfs":    true,
	"uswg/internal/netsim": true,
	"uswg/internal/vfs":    true,
}

// setupPrefixes name the construction/bind entry points where allocating a
// closure is the sanctioned idiom: it happens once per object (or once per
// user stream), not once per op. A func literal or method value inside any
// top-level function whose name starts with one of these — or inside a
// package-level declaration — is not flagged.
var setupPrefixes = []string{
	"New", "new",
	"Init", "init",
	"Setup", "setup",
	"Bind", "bind",
	"Build", "build",
	"Make", "make",
	"With",
	"Attach", "attach",
	"Register", "register",
}

// HotAlloc flags continuation allocation on the CPS hot path: any func
// literal, and any method value (x.m not called at once, which binds x in a
// new closure), created outside a constructor/bind/setup function in the
// sim, usim, nfs, netsim, or vfs packages. Fixes move the state into a
// pooled struct with one once-bound continuation and pass method
// expressions as its steps (see DESIGN.md, "Trace sinks & session arena");
// bindings that demonstrably run off the per-op path (once per pooled state
// made, once-per-stream boot) carry a //wlint:allow with the argument.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no per-op closure or method-value allocation in the CPS hot-path packages",
	Applies: func(importPath string) bool {
		return hotPathPackages[importPath] || inLintTestdata(importPath)
	},
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue // package-level var/const initializers run once at init
			}
			if isSetupName(fd.Name.Name) {
				continue
			}
			callees := map[ast.Expr]bool{} // a call's callee is visited after its call
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					callees[ast.Unparen(n.Fun)] = true
				case *ast.FuncLit:
					pass.Reportf(n.Pos(), "func literal in %s allocates a continuation on the CPS hot path; move its state into a pooled op state and pass a method expression as the step of its one continuation, or //wlint:allow hotalloc <why off the per-op path>", fd.Name.Name)
				case *ast.SelectorExpr:
					if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !callees[n] {
						pass.Reportf(n.Pos(), "method value %s in %s allocates a bound continuation on the CPS hot path; pass a method expression as the step of a pooled state's one continuation, or //wlint:allow hotalloc <why off the per-op path>", types.ExprString(n), fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

func isSetupName(name string) bool {
	for _, p := range setupPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

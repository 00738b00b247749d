package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one loaded, parsed, and type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *listPkgError
}

type listPkgError struct {
	Err string
}

// Load resolves the given go-list package patterns, parses each matched
// package's non-test sources, and type-checks them against the build
// cache's gc export data (produced by `go list -export`), so the types the
// analyzers see are the compiler's own. Test files are deliberately out of
// scope: the determinism contract binds rendered output, and test-only
// wall-clock or rand use is sanctioned (rngdiscipline's "sanctioned test
// files" carve-out falls out of the load itself).
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, gf := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", gf, err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

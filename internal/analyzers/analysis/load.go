package analysis

import (
	"bytes"
	"encoding/json"
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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// Result is the outcome of one Load: every package that matched the patterns
// (Analyzed) plus the shared FileSet positions resolve through.
type Result struct {
	Fset *token.FileSet
	// Analyzed holds the pattern-matched packages in `go list` order
	// (dependencies first), the ones RunAnalyzers visits.
	Analyzed []*Package
	// ByPath indexes every source-loaded package (matched or in-module
	// dependency) by import path.
	ByPath map[string]*Package
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool (run in dir) and type-checks every
// matched package from source. Standard-library dependencies are imported
// from the compiler's export data (`go list -export`), which the toolchain
// produces offline; in-module dependencies are type-checked from source too,
// so type objects are shared across packages and analyzers can compare them
// by identity.
//
// Packages under testdata directories are loadable by explicit relative path
// (e.g. "./testdata/src/a") even though wildcard patterns skip them — that is
// how analyzer fixtures with deliberate violations stay out of "./..." runs.
func Load(dir string, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	res := &Result{Fset: fset, ByPath: make(map[string]*Package)}
	exports := make(map[string]string)
	checked := make(map[string]*types.Package)
	imp := &loadImporter{
		checked: checked,
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok || f == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}

	// go list -deps emits dependencies before dependents, so one in-order
	// pass type-checks every in-module package with its imports resolved.
	for _, lp := range pkgs {
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
			continue
		}
		if len(lp.GoFiles) == 0 {
			// Test-only packages (external _test packages, directories that
			// hold nothing but *_test.go) legitimately list with no GoFiles;
			// there is nothing to analyze, so skip rather than fail.
			continue
		}
		pkg, err := checkPackage(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		res.ByPath[lp.ImportPath] = pkg
		if !lp.DepOnly {
			res.Analyzed = append(res.Analyzed, pkg)
		}
	}
	if len(res.Analyzed) == 0 {
		return nil, fmt.Errorf("go list %s: matched no packages", strings.Join(patterns, " "))
	}
	return res, nil
}

// listPackages resolves patterns to `go list` metadata: every matched package
// and its dependencies, dependencies first, with the compiler export data of
// each standard-library package.
func listPackages(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Standard,Export,DepOnly,Incomplete,Error",
		"-deps", "--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, lp *listPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	cfg := &types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := cfg.Check(lp.ImportPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Name:       lp.Name,
		Dir:        lp.Dir,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// loadImporter resolves imports during type checking: in-module packages come
// from the source-checked cache, everything else from gc export data.
type loadImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (li *loadImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := li.checked[path]; ok {
		return p, nil
	}
	return li.gc.Import(path)
}

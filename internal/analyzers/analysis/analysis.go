// Package analysis is a self-contained, stdlib-only reimplementation of the
// subset of golang.org/x/tools/go/analysis that the kernelvet analyzer suite
// needs. The build environment bakes in only the Go toolchain (no module
// proxy), so the canonical x/tools framework cannot be vendored; this package
// mirrors its Analyzer/Pass API closely enough that migrating the analyzers
// onto x/tools later is a mechanical import swap.
//
// Differences from x/tools kept deliberately (and documented here):
//
//   - Packages are loaded per invocation with `go list -export -deps` plus
//     go/parser and go/types (see load.go); there is no incremental fact
//     store, so analyzers are package-local. All kernel invariants the suite
//     checks live inside one package (internal/timewarp), which makes
//     package-local analysis exact for them.
//   - Test files are not analyzed: the suite checks kernel invariants, and
//     tests legitimately poke kernel state from foreign goroutines.
//   - There are no Facts or Requires; each analyzer recomputes the shared
//     helpers (annotations, call graph) it needs. The helpers are cheap
//     relative to type checking.
//
// Beyond the driver, the package holds the shared machinery the analyzers
// build on: the go list loader (load.go), the //kernelvet: annotation
// parser (annot.go) and a package-local call graph (callgraph.go). No
// analyzer is path-sensitive: lock discipline, the one invariant that would
// need a control flow graph, is checked by the race detector instead.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Run reports findings through the
// Pass and returns an error only for infrastructure failures (a finding is
// never an error).
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// //kernelvet:allow <name> suppressions.
	Name string
	// Doc is a one-paragraph description shown by cmd/kernelvet.
	Doc string
	// Run executes the analyzer on one package.
	Run func(*Pass) error
}

// Pass hands one package's syntax and types to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Fset is shared by every package of a Load, so positions from any
	// loaded package resolve through it.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files, with comments.
	Files []*ast.File
	// Pkg and TypesInfo are the type-checked package and its usage maps
	// (Types, Defs, Uses, Selections, Implicits, Instances are populated).
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package directory on disk; analyzers that shell out to the
	// go tool (noalloc's escape-analysis pass) run there.
	Dir string
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: what RunAnalyzers hands back to drivers.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// RunAnalyzers runs every analyzer over every analyzed (non-dependency)
// package of res and returns the merged findings sorted by position. An
// analyzer returning an error aborts the run: infrastructure must not fail
// silently into a "clean" report.
func RunAnalyzers(res *Result, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range res.Analyzed {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Dir:       pkg.Dir,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: name,
					Pos:      res.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Deduplicate identical findings (generic instantiations can visit one
	// site once per shape).
	out := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out, nil
}

// Package noalloc implements the kernelvet hot-path allocation analyzer.
//
// Rule: a function annotated //kernelvet:noalloc — the Time Warp kernel's
// per-event hot paths, where a single heap allocation multiplied by millions
// of events dominates the profile — must not introduce heap escapes. The
// check is grounded in the real compiler, not a heuristic: the analyzer runs
//
//	go build -o /dev/null -gcflags='-m -m' .
//
// in the package directory and parses the escape-analysis report ("escapes
// to heap" / "moved to heap" lines), flagging every escape whose position
// falls inside a noalloc function body.
//
// The report has one known gap, closed from the syntax instead: an append
// that starts from a fresh slice — a nil first argument, a conversion of nil
// such as []T(nil), or an empty composite literal such as []T{} — always
// allocates a new backing array, yet go1.24 prints no escape line for the
// nil forms. Every such append in a noalloc body is flagged once, at the
// call, in place of any escape line inside it.
//
// Filtered as noise:
//
//   - string constants (`"..." escapes to heap`) — these are panic/error
//     messages on paths that terminate the run, not per-event allocations;
//   - escapes positioned inside the arguments of a panic(...) call, for the
//     same reason (the fmt.Sprintf boxing happens only when dying);
//   - sites carrying //kernelvet:allow noalloc <reason>, the escape hatch
//     for amortized growth (e.g. doubling a reusable scratch buffer).
//
// Unlike the other analyzers this one shells out to the go tool, so it needs
// the package to build on its own; it silently skips packages with no
// noalloc annotations rather than paying that cost everywhere.
package noalloc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analyzers/analysis"
)

const name = "noalloc"

// Analyzer is the hot-path allocation analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "//kernelvet:noalloc functions must not introduce heap escapes (checked against go build -gcflags=-m)",
	Run:  run,
}

// escapeRE matches one escape-analysis line. With -m -m the compiler prints
// each site twice (once with a trailing colon introducing an indented
// explanation); the trailing colon is stripped and the duplicates deduped.
var escapeRE = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (?:(.*) escapes to heap|moved to heap: (.*?)):?$`)

type noallocFunc struct {
	obj  *types.Func
	body *ast.BlockStmt
}

func run(pass *analysis.Pass) error {
	ann := analysis.ParseAnnotations(pass)

	var funcs []noallocFunc
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if _, ok := ann.FuncDirective(fn, analysis.VerbNoalloc); ok {
				funcs = append(funcs, noallocFunc{obj: fn, body: fd.Body})
			}
		}
	}
	if len(funcs) == 0 {
		return nil
	}

	out, err := escapeReport(pass.Dir)
	if err != nil {
		return fmt.Errorf("noalloc: escape analysis of %s: %v", pass.Dir, err)
	}

	// The compiler names files relative to its own working directory; match
	// them to the package's parsed files by base name, which is unique within
	// a package.
	files := make(map[string]*token.File)
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf != nil {
			files[filepath.Base(tf.Name())] = tf
		}
	}

	// One walk per body collects the panic-argument ranges and flags every
	// append to a fresh slice; escape lines inside either are not reported.
	// A panic call is visited before its arguments, so an append inside one
	// already sees its range.
	var panicRanges, appendRanges []posRange
	for _, nf := range funcs {
		ast.Inspect(nf.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			switch {
			case !ok:
			case isBuiltin(pass, call, "panic"):
				panicRanges = append(panicRanges, posRange{from: call.Lparen, to: call.Rparen + 1})
			case isBuiltin(pass, call, "append") && isFresh(pass.TypesInfo, call.Args[0]):
				appendRanges = append(appendRanges, posRange{from: call.Pos(), to: call.End()})
				if !insideAny(call.Pos(), panicRanges) && !ann.AllowsAt(pass.Fset, call.Pos(), nf.obj, name) {
					pass.Reportf(call.Pos(), "append to a fresh slice allocates in //kernelvet:noalloc function %s", nf.obj.Name())
				}
			}
			return true
		})
	}

	seen := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		m := escapeRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		desc := m[4]
		if desc == "" {
			desc = "moved to heap: " + m[5]
		} else {
			desc += " escapes to heap"
		}
		if strings.HasPrefix(desc, `"`) {
			continue // string constant: a panic or error message
		}
		tf := files[filepath.Base(m[1])]
		if tf == nil {
			continue // another package's file (vendored test dep etc.)
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		if lineNo < 1 || lineNo > tf.LineCount() {
			continue
		}
		pos := tf.LineStart(lineNo) + token.Pos(colNo-1)
		key := fmt.Sprintf("%s:%d:%d:%s", m[1], lineNo, colNo, desc)
		if seen[key] {
			continue
		}
		seen[key] = true

		for _, nf := range funcs {
			if pos < nf.body.Pos() || pos >= nf.body.End() {
				continue
			}
			if insideAny(pos, panicRanges) || insideAny(pos, appendRanges) {
				break
			}
			if ann.AllowsAt(pass.Fset, pos, nf.obj, name) {
				break
			}
			pass.Reportf(pos, "%s in //kernelvet:noalloc function %s", desc, nf.obj.Name())
			break
		}
	}
	return nil
}

// isFresh reports whether e is nil, a conversion of nil (such as []T(nil))
// or an empty composite literal: a slice with no backing array to reuse.
func isFresh(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.IsNil() {
		return true
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		tv, ok := info.Types[e.Fun]
		return ok && tv.IsType() && len(e.Args) == 1 && isFresh(info, e.Args[0])
	}
	return false
}

// isBuiltin reports whether call calls the named builtin function.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, builtin string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != builtin {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// escapeReport builds the package in dir with escape-analysis diagnostics on
// and returns the compiler's stderr. A failed build is an error: the caller's
// package must compile for the report to mean anything.
func escapeReport(dir string) (string, error) {
	cmd := exec.Command("go", "build", "-o", "/dev/null", "-gcflags=-m -m", ".")
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%v\n%s", err, buf.String())
	}
	return buf.String(), nil
}

// posRange is a half-open [from, to) source range.
type posRange struct {
	from, to token.Pos
}

func insideAny(pos token.Pos, ranges []posRange) bool {
	for _, r := range ranges {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}

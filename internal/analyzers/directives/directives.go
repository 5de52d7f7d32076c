// Package directives implements the kernelvet vocabulary validator.
//
// The other analyzers silently ignore malformed annotations — a misspelled
// verb or a misplaced //kernelvet:owner simply fails to constrain anything,
// which is the worst possible failure mode for a checker. This analyzer
// closes that hole: every comment starting with //kernelvet: must be a
// well-formed directive in a position where it means something:
//
//	owner <domain>            exactly one arg, on a struct field
//	goroutine <domain>        exactly one arg, in a function doc comment
//	deterministic             no args, in a function doc comment
//	noalloc                   no args, in a function doc comment
//	single-threaded           no args, in a function doc comment
//	wire                      no args, in a type declaration's doc comment
//	allow <analyzer> <reason> in a function doc comment or on/above the
//	                          offending line; the analyzer must be a known
//	                          analyzer name and the reason is mandatory
package directives

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the vocabulary validator.
var Analyzer = &analysis.Analyzer{
	Name: "directives",
	Doc:  "//kernelvet: comments must be well-formed directives in meaningful positions",
	Run:  run,
}

// Allowable are the analyzer names //kernelvet:allow accepts.
var Allowable = map[string]bool{
	"atomics":     true,
	"ownership":   true,
	"determinism": true,
	"noalloc":     true,
	"wiresafe":    true,
}

// placement describes where a directive comment physically sits.
type placement int

const (
	placeOther placement = iota // free-standing or trailing a statement
	placeFuncDoc
	placeField
	placeTypeDoc
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		placements := classify(file)
		for _, group := range file.Comments {
			for _, c := range group.List {
				d, ok := analysis.ParseDirective(c)
				if !ok {
					continue
				}
				check(pass, d, placements[c])
			}
		}
	}
	return nil
}

// classify maps each comment of the file to its placement.
func classify(file *ast.File) map[*ast.Comment]placement {
	m := make(map[*ast.Comment]placement)
	mark := func(group *ast.CommentGroup, p placement) {
		if group == nil {
			return
		}
		for _, c := range group.List {
			m[c] = p
		}
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			mark(decl.Doc, placeFuncDoc)
		case *ast.GenDecl:
			if decl.Tok != token.TYPE {
				continue
			}
			// The decl-level doc names a specific type only for an ungrouped
			// declaration; in a group it is ambiguous and the annotation
			// parser ignores it, so leave it placeOther to get it flagged.
			if len(decl.Specs) == 1 {
				mark(decl.Doc, placeTypeDoc)
			}
			for _, spec := range decl.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					mark(ts.Doc, placeTypeDoc)
					mark(ts.Comment, placeTypeDoc)
				}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				mark(field.Doc, placeField)
				mark(field.Comment, placeField)
			}
		}
		return true
	})
	return m
}

func check(pass *analysis.Pass, d analysis.Directive, place placement) {
	switch d.Verb {
	case analysis.VerbOwner:
		if place != placeField {
			pass.Reportf(d.Pos, "kernelvet:owner belongs on a struct field")
			return
		}
		requireArgs(pass, d, 1, "owner <domain>")
	case analysis.VerbGoroutine:
		if place != placeFuncDoc {
			pass.Reportf(d.Pos, "kernelvet:goroutine belongs in a function doc comment")
			return
		}
		requireArgs(pass, d, 1, "goroutine <domain>")
	case analysis.VerbDeterministic, analysis.VerbNoalloc, analysis.VerbSingleThreaded:
		if place != placeFuncDoc {
			pass.Reportf(d.Pos, "kernelvet:%s belongs in a function doc comment", d.Verb)
			return
		}
		requireArgs(pass, d, 0, d.Verb)
	case analysis.VerbWire:
		if place != placeTypeDoc {
			pass.Reportf(d.Pos, "kernelvet:wire belongs in a type declaration's doc comment")
			return
		}
		requireArgs(pass, d, 0, d.Verb)
	case analysis.VerbAllow:
		if place == placeField {
			pass.Reportf(d.Pos, "kernelvet:allow belongs in a function doc comment or on the offending line, not on a struct field")
			return
		}
		if len(d.Args) == 0 || !Allowable[d.Args[0]] {
			pass.Reportf(d.Pos, "kernelvet:allow needs an analyzer name (one of %s)", allowableList())
			return
		}
		if len(d.Args) < 2 {
			pass.Reportf(d.Pos, "kernelvet:allow %s needs a reason explaining why the invariant still holds", d.Args[0])
		}
	default:
		pass.Reportf(d.Pos, "unknown kernelvet directive %q (known: owner, goroutine, deterministic, noalloc, single-threaded, wire, allow)", d.Verb)
	}
}

func requireArgs(pass *analysis.Pass, d analysis.Directive, n int, form string) {
	if len(d.Args) != n {
		pass.Reportf(d.Pos, "kernelvet:%s takes %s, got %d arg(s); the form is //kernelvet:%s",
			d.Verb, plural(n), len(d.Args), form)
	}
}

func plural(n int) string {
	if n == 1 {
		return "exactly one argument"
	}
	return fmt.Sprintf("%d arguments", n)
}

func allowableList() string {
	names := make([]string, 0, len(Allowable))
	for name := range Allowable {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

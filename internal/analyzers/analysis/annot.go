package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The kernelvet annotation vocabulary. Annotations are ordinary Go comment
// directives (no space after //, like //go:noinline), so gofmt preserves them
// and godoc hides them:
//
//	//kernelvet:owner <domain>     on a struct field: only functions reachable
//	                               from the <domain> goroutine entry point may
//	                               touch the field (ownership analyzer).
//	//kernelvet:goroutine <domain> on a function: this is the entry point of
//	                               the <domain> goroutine.
//	//kernelvet:deterministic      on a function: it and its callees must not
//	                               read wall clocks, use global math/rand,
//	                               iterate maps, select, or start goroutines
//	                               (determinism analyzer).
//	//kernelvet:noalloc            on a function: the compiler's escape
//	                               analysis must report no heap allocation in
//	                               its body (noalloc analyzer).
//	//kernelvet:single-threaded    on a function: it runs while no other
//	                               goroutine can observe the structures it
//	                               touches (construction, post-shutdown);
//	                               atomics and ownership do not constrain it.
//	//kernelvet:allow <analyzer> <reason>
//	                               on a function or a single line: suppress
//	                               that analyzer there; the reason is
//	                               mandatory by convention and should say why
//	                               the invariant still holds.
//	//kernelvet:wire               on a type declaration: the type must be
//	                               flat — recursively free of pointers,
//	                               slices, maps, chans, funcs, interfaces and
//	                               strings — so it can cross a serialized
//	                               transport boundary by plain copy (wiresafe
//	                               analyzer).
const (
	VerbOwner          = "owner"
	VerbGoroutine      = "goroutine"
	VerbDeterministic  = "deterministic"
	VerbNoalloc        = "noalloc"
	VerbSingleThreaded = "single-threaded"
	VerbAllow          = "allow"
	VerbWire           = "wire"
)

// DirectivePrefix starts every kernelvet annotation comment.
const DirectivePrefix = "//kernelvet:"

// Directive is one parsed //kernelvet: annotation.
type Directive struct {
	Verb string
	// Args are the whitespace-separated words after the verb; for allow,
	// Args[0] is the analyzer name and the rest is the reason.
	Args []string
	Pos  token.Pos
}

// ParseDirective parses one comment; ok is false for non-kernelvet comments.
// A field starting with "//" ends the directive — it introduces a nested
// remark (analysistest fixtures rely on this to carry `// want` expectations
// on the directive's own line).
func ParseDirective(c *ast.Comment) (d Directive, ok bool) {
	text, found := strings.CutPrefix(c.Text, DirectivePrefix)
	if !found {
		return Directive{}, false
	}
	fields := strings.Fields(text)
	for i, f := range fields {
		if strings.HasPrefix(f, "//") {
			fields = fields[:i]
			break
		}
	}
	if len(fields) == 0 {
		return Directive{Verb: "", Pos: c.Pos()}, true
	}
	return Directive{Verb: fields[0], Args: fields[1:], Pos: c.Pos()}, true
}

// WireType is one //kernelvet:wire annotation on a type declaration.
type WireType struct {
	Obj *types.TypeName
	Pos token.Pos
}

// Annotations is the package's parsed kernelvet vocabulary, shared by the
// analyzers.
type Annotations struct {
	// Funcs maps a function object to the directives in its doc comment.
	Funcs map[*types.Func][]Directive
	// FieldOwner maps an annotated struct field to its owning domain.
	FieldOwner map[*types.Var]string
	// WireTypes lists the //kernelvet:wire type annotations.
	WireTypes []WireType
	// lineAllows records //kernelvet:allow suppressions by file and line:
	// a trailing allow covers its own line, a standalone allow comment
	// covers the following line.
	lineAllows map[string]map[int]map[string]bool
}

// ParseAnnotations extracts every kernelvet directive from the package.
func ParseAnnotations(pass *Pass) *Annotations {
	a := &Annotations{
		Funcs:      make(map[*types.Func][]Directive),
		FieldOwner: make(map[*types.Var]string),
		lineAllows: make(map[string]map[int]map[string]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Doc == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				for _, c := range decl.Doc.List {
					if d, ok := ParseDirective(c); ok {
						a.Funcs[fn] = append(a.Funcs[fn], d)
					}
				}
			case *ast.GenDecl:
				a.parseTypeDecl(pass, decl)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if group == nil {
						continue
					}
					for _, c := range group.List {
						d, ok := ParseDirective(c)
						if !ok || d.Verb != VerbOwner || len(d.Args) != 1 {
							continue
						}
						for _, name := range field.Names {
							if fv, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
								a.FieldOwner[fv] = d.Args[0]
							}
						}
					}
				}
			}
			return true
		})
		for _, group := range file.Comments {
			for _, c := range group.List {
				d, ok := ParseDirective(c)
				if !ok {
					continue
				}
				if d.Verb == VerbAllow && len(d.Args) > 0 {
					pos := pass.Fset.Position(c.Pos())
					lines := a.lineAllows[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						a.lineAllows[pos.Filename] = lines
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = make(map[string]bool)
							lines[line] = set
						}
						set[d.Args[0]] = true
					}
				}
			}
		}
	}
	return a
}

// parseTypeDecl collects //kernelvet:wire directives from a type declaration:
// the GenDecl doc (the common `type X struct` form) applies to a sole spec,
// and per-spec docs/comments cover grouped declarations.
func (a *Annotations) parseTypeDecl(pass *Pass, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE {
		return
	}
	collect := func(group *ast.CommentGroup, spec *ast.TypeSpec) {
		if group == nil || spec == nil {
			return
		}
		for _, c := range group.List {
			d, ok := ParseDirective(c)
			if !ok || d.Verb != VerbWire {
				continue
			}
			if tn, ok := pass.TypesInfo.Defs[spec.Name].(*types.TypeName); ok {
				a.WireTypes = append(a.WireTypes, WireType{Obj: tn, Pos: d.Pos})
			}
		}
	}
	if len(decl.Specs) == 1 {
		spec, _ := decl.Specs[0].(*ast.TypeSpec)
		collect(decl.Doc, spec)
	}
	for _, s := range decl.Specs {
		if spec, ok := s.(*ast.TypeSpec); ok {
			collect(spec.Doc, spec)
			collect(spec.Comment, spec)
		}
	}
}

// FuncDirective returns fn's directive with the given verb, if any.
func (a *Annotations) FuncDirective(fn *types.Func, verb string) (Directive, bool) {
	for _, d := range a.Funcs[fn] {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncAllows reports whether fn's doc carries //kernelvet:allow <analyzer>.
func (a *Annotations) FuncAllows(fn *types.Func, analyzer string) bool {
	for _, d := range a.Funcs[fn] {
		if d.Verb == VerbAllow && len(d.Args) > 0 && d.Args[0] == analyzer {
			return true
		}
	}
	return false
}

// LineAllows reports whether the line holding pos carries (or follows) a
// //kernelvet:allow <analyzer> comment.
func (a *Annotations) LineAllows(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	p := fset.Position(pos)
	return a.lineAllows[p.Filename][p.Line][analyzer]
}

// AllowsAt reports whether the diagnostic site is suppressed for analyzer,
// either by a line-level allow at pos or a function-level allow on the
// enclosing function.
func (a *Annotations) AllowsAt(fset *token.FileSet, pos token.Pos, enclosing *types.Func, analyzer string) bool {
	if a.LineAllows(fset, pos, analyzer) {
		return true
	}
	return enclosing != nil && a.FuncAllows(enclosing, analyzer)
}

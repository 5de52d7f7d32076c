package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFixture parses a function body and builds its CFG. Bodies reference
// undeclared helpers freely: the builder is purely syntactic.
func buildFixture(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body)
}

// reachableBlocks returns every block reachable from Entry.
func reachableBlocks(g *CFG) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// blockMentioning returns the first block whose nodes mention an identifier.
func blockMentioning(t *testing.T, g *CFG, name string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block mentions %q", name)
	return nil
}

func reachesFrom(start *Block, target *Block) bool {
	seen := map[*Block]bool{start: true}
	work := []*Block{start}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		if b == target {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

func TestIfElseJoin(t *testing.T) {
	g := buildFixture(t, "if c() {\n a() \n} else {\n b() \n}\n d()")
	reach := reachableBlocks(g)
	for _, name := range []string{"a", "b", "d"} {
		if !reach[blockMentioning(t, g, name)] {
			t.Errorf("%s() unreachable", name)
		}
	}
	d := blockMentioning(t, g, "d")
	if !reachesFrom(blockMentioning(t, g, "a"), d) || !reachesFrom(blockMentioning(t, g, "b"), d) {
		t.Error("branches do not rejoin at d()")
	}
	if !reach[g.Exit] {
		t.Error("Exit unreachable")
	}
}

func TestReturnMakesUnreachable(t *testing.T) {
	g := buildFixture(t, "a()\nreturn\nb()")
	reach := reachableBlocks(g)
	if reach[blockMentioning(t, g, "b")] {
		t.Error("statement after return should be unreachable")
	}
	if !reach[g.Exit] {
		t.Error("Exit unreachable")
	}
}

func TestPanicEdges(t *testing.T) {
	g := buildFixture(t, "if c() {\n panic(\"boom\") \n}\n a()")
	reach := reachableBlocks(g)
	if !reach[g.PanicExit] {
		t.Error("PanicExit unreachable despite an explicit panic")
	}
	if !reach[blockMentioning(t, g, "a")] {
		t.Error("code after a conditional panic must stay reachable")
	}
	if len(g.PanicExit.Succs) != 0 {
		t.Error("PanicExit must be a sink")
	}

	g = buildFixture(t, "panic(\"boom\")\nb()")
	reach = reachableBlocks(g)
	if reach[blockMentioning(t, g, "b")] {
		t.Error("statement after an unconditional panic should be unreachable")
	}
	if reach[g.Exit] {
		t.Error("Exit should be unreachable when every path panics")
	}
}

func TestForLoopEdges(t *testing.T) {
	g := buildFixture(t, "for i := 0; c(); i++ {\n if d() {\n continue \n}\n if e() {\n break \n}\n a() \n}\n b()")
	reach := reachableBlocks(g)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if !reach[blockMentioning(t, g, name)] {
			t.Errorf("%s() unreachable", name)
		}
	}
	// The loop body must cycle back to the condition.
	if !reachesFrom(blockMentioning(t, g, "a"), blockMentioning(t, g, "c")) {
		t.Error("no back edge from loop body to condition")
	}
}

func TestInfiniteLoop(t *testing.T) {
	g := buildFixture(t, "for {\n a() \n}")
	reach := reachableBlocks(g)
	if reach[g.Exit] {
		t.Error("Exit reachable through an infinite loop")
	}
	if !reach[blockMentioning(t, g, "a")] {
		t.Error("loop body unreachable")
	}

	g = buildFixture(t, "for {\n if c() {\n break \n}\n a() \n}\n b()")
	reach = reachableBlocks(g)
	if !reach[g.Exit] || !reach[blockMentioning(t, g, "b")] {
		t.Error("break must make the loop exit reachable")
	}
}

func TestRangeLoopEdges(t *testing.T) {
	g := buildFixture(t, "for _, x := range xs {\n a(x) \n}\n b()")
	reach := reachableBlocks(g)
	head := blockMentioning(t, g, "xs")
	if !reach[head] || !reach[blockMentioning(t, g, "a")] || !reach[blockMentioning(t, g, "b")] {
		t.Error("range loop blocks unreachable")
	}
	if !reachesFrom(blockMentioning(t, g, "a"), head) {
		t.Error("no back edge from range body to head")
	}
	if len(head.Succs) != 2 {
		t.Errorf("range head should branch to body and done, got %d successors", len(head.Succs))
	}
}

// TestDeferStatementsAreNodes: defer statements are ordinary nodes of their
// block.
func TestDeferStatementsAreNodes(t *testing.T) {
	g := buildFixture(t, "defer a()\ndefer b()\nc()")
	reach := reachableBlocks(g)
	if !reach[blockMentioning(t, g, "a")] || !reach[blockMentioning(t, g, "b")] {
		t.Error("defer statements should appear in reachable blocks")
	}
}

func TestGotoForward(t *testing.T) {
	g := buildFixture(t, "goto L\na()\nL:\nb()")
	reach := reachableBlocks(g)
	if reach[blockMentioning(t, g, "a")] {
		t.Error("statement jumped over by goto should be unreachable")
	}
	if !reach[blockMentioning(t, g, "b")] {
		t.Error("goto target unreachable")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := buildFixture(t, "switch c() {\ncase 1:\n a()\n fallthrough\ncase 2:\n b()\n}\nd()")
	reach := reachableBlocks(g)
	if !reach[blockMentioning(t, g, "d")] {
		t.Error("code after switch unreachable")
	}
	if !reachesFrom(blockMentioning(t, g, "a"), blockMentioning(t, g, "b")) {
		t.Error("fallthrough edge missing between case bodies")
	}
}

func TestSelectEdges(t *testing.T) {
	g := buildFixture(t, "select {\ncase <-ch:\n a()\ndefault:\n b()\n}\nd()")
	reach := reachableBlocks(g)
	for _, name := range []string{"a", "b", "d"} {
		if !reach[blockMentioning(t, g, name)] {
			t.Errorf("%s() unreachable", name)
		}
	}

	g = buildFixture(t, "a()\nselect {}\nb()")
	reach = reachableBlocks(g)
	if reach[blockMentioning(t, g, "b")] {
		t.Error("code after an empty select should be unreachable")
	}
	if reach[g.Exit] {
		t.Error("Exit should be unreachable past an empty select")
	}
}

// TestDataflowUnion drives the worklist engine with a set-union lattice: the
// state collects every helper called on some path, so Exit's in-state must
// name both branch arms and converge on loops.
func TestDataflowUnion(t *testing.T) {
	names := func(n ast.Node) []string {
		var out []string
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					out = append(out, id.Name)
				}
			}
			return true
		})
		return out
	}
	d := &Dataflow[map[string]bool]{
		Init: map[string]bool{},
		Transfer: func(s map[string]bool, n ast.Node) map[string]bool {
			for _, nm := range names(n) {
				s[nm] = true
			}
			return s
		},
		Join: func(a, b map[string]bool) map[string]bool {
			for k := range b {
				a[k] = true
			}
			return a
		},
		Equal: func(a, b map[string]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Clone: func(s map[string]bool) map[string]bool {
			c := make(map[string]bool, len(s))
			for k := range s {
				c[k] = true
			}
			return c
		},
	}

	g := buildFixture(t, "if c() {\n a() \n} else {\n b() \n}\nfor c() {\n l() \n}")
	in := d.Solve(g)
	exit, ok := in[g.Exit]
	if !ok {
		t.Fatal("Exit not reached by the solver")
	}
	for _, want := range []string{"a", "b", "c", "l"} {
		if !exit[want] {
			t.Errorf("Exit state missing %q", want)
		}
	}

	// A panic-only path must not flow into Exit.
	g = buildFixture(t, "if c() {\n a()\n panic(\"x\") \n}\nb()")
	in = d.Solve(g)
	if !in[g.PanicExit]["a"] {
		t.Error("PanicExit state missing the panicking path's calls")
	}
	if in[g.Exit]["a"] {
		t.Error("Exit state leaked state from the panicking path")
	}
}

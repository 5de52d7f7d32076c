package analysis

import (
	"go/ast"
	"go/token"
)

// cfg.go builds an intraprocedural control-flow graph over a function body.
// It is the substrate of the flow-sensitive guardedby analyzer:
// flow-insensitive AST walks cannot express "this access happens with the
// mutex held on every path".
//
// The graph is statement-granular: each Block holds the statements (and
// branch-condition expressions) that execute unconditionally once the block
// is entered, in order. Design decisions, kept deliberately simple:
//
//   - Exit is the normal-return sink: return statements and falling off the
//     end of the body edge into it. Analyzers check path obligations there.
//   - PanicExit is the abnormal sink: an explicit panic(...) statement edges
//     into it and nowhere else. A panicking path aborts the run, so path
//     obligations are not checked on it;
//     calls that merely may panic are not modeled — that would make every
//     path abnormal and the analysis vacuous.
//   - defer statements appear as ordinary nodes in their block, so analyzers
//     see them syntactically and skip or interpret them as they choose.
//   - Function literals are opaque: a literal's body is its own function with
//     its own CFG (matching the call graph, where a literal is its own node).
//   - goto, labeled break/continue, switch fallthrough, select, and range
//     loops are all modeled; unreachable code after a terminal statement
//     lands in a detached block that no analysis ever reaches.
type CFG struct {
	Entry *Block
	// Exit is the normal-return sink; it holds no nodes.
	Exit *Block
	// PanicExit is the abnormal sink reached by explicit panic statements.
	PanicExit *Block
	Blocks    []*Block
}

// Block is one straight-line run of nodes with explicit successors.
type Block struct {
	Index int
	// Kind labels the block's role for tests and debugging ("entry", "exit",
	// "panic", "if.then", "for.head", ...).
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

// addSucc appends an edge, deduplicating (a switch with several empty cases
// can otherwise produce parallel edges).
func (b *Block) addSucc(s *Block) {
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// BuildCFG constructs the control-flow graph of one function body. It is
// purely syntactic (no type information), so tests can drive it from parsed
// snippets.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*labelBlocks)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.g.PanicExit = b.newBlock("panic")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.jump(b.g.Exit)
	return b.g
}

type cfgBuilder struct {
	g   *CFG
	cur *Block
	// breaks and continues are the innermost-last stacks of branch targets;
	// entries carry the statement label (empty for unlabeled constructs).
	breaks    []branchTarget
	continues []branchTarget
	// labels maps label names to their goto/entry blocks (created lazily so
	// forward gotos resolve).
	labels map[string]*labelBlocks
	// pendingLabel is the label wrapping the next loop/switch/select, so its
	// break/continue targets register under that name.
	pendingLabel string
	// fallthroughTo is the next case block while building a switch case body.
	fallthroughTo *Block
}

type branchTarget struct {
	label string
	block *Block
}

type labelBlocks struct {
	// entry is the block a goto (or the labeled statement itself) enters.
	entry *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge from the current block to target. A nil current block
// (just after a terminal statement) means the edge source is unreachable.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.addSucc(target)
	}
}

// startDetached begins a block with no predecessors: the home of unreachable
// code after return/panic/break, kept so node collection stays total.
func (b *cfgBuilder) startDetached() {
	b.cur = b.newBlock("unreachable")
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.startDetached()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelEntry(name string) *Block {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{entry: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb.entry
}

// takeLabel consumes the pending statement label for a breakable construct.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	b.continues = append(b.continues, branchTarget{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) pushBreakable(label string, brk *Block) {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
}

func (b *cfgBuilder) popBreakable() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func findTarget(stack []branchTarget, label string) *Block {
	if label == "" {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		entry := b.labelEntry(s.Label.Name)
		b.jump(entry)
		b.cur = entry
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.takeLabelledSwitch(s.Init, s.Tag, s.Body, s)
	case *ast.TypeSwitchStmt:
		b.takeLabelledSwitch(s.Init, nil, s.Body, s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.PanicExit)
			b.cur = nil
		}
	default:
		// Assignments, declarations, sends, inc/dec, go and defer
		// statements, empty statements: straight-line nodes.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	b.jump(then)
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.jump(els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(done)
	} else {
		b.jump(done)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(done)
	b.cur = done
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jump(head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.jump(done)
	}
	b.jump(body)
	b.cur = body
	b.pushLoop(label, done, post)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.jump(post)
	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.jump(head)
	}
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head)
	b.cur = head
	// The range expression is the head's node — not the RangeStmt itself,
	// whose subtree includes the body: analyzers scan each node's subtree for
	// effects, and the body's statements already live in their own blocks.
	b.add(s.X)
	b.jump(body)
	b.jump(done)
	b.cur = body
	b.pushLoop(label, done, head)
	b.stmtList(s.Body.List)
	b.popLoop()
	b.jump(head)
	b.cur = done
}

// takeLabelledSwitch builds expression and type switches: init and tag
// evaluate in the incoming block, each case clause gets its own block, and
// fallthrough edges chain case bodies.
func (b *cfgBuilder) takeLabelledSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, sw ast.Stmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	} else if ts, ok := sw.(*ast.TypeSwitchStmt); ok {
		b.add(ts.Assign)
	}
	done := b.newBlock("switch.done")
	var cases []*Block
	hasDefault := false
	for _, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("switch.case")
		cases = append(cases, blk)
		b.jump(blk)
	}
	if !hasDefault {
		b.jump(done)
	}
	b.pushBreakable(label, done)
	saved := b.fallthroughTo
	for i, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		b.cur = cases[i]
		var next *Block
		if i+1 < len(cases) {
			next = cases[i+1]
		}
		// A nested switch inside the body rewrites fallthroughTo; reset it per
		// case so a trailing fallthrough here still chains correctly.
		b.fallthroughTo = next
		b.stmtList(clause.Body)
		b.jump(done)
	}
	b.fallthroughTo = saved
	b.popBreakable()
	b.cur = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	done := b.newBlock("select.done")
	var cases []*Block
	for range s.Body.List {
		blk := b.newBlock("select.case")
		cases = append(cases, blk)
		b.jump(blk)
	}
	if len(cases) == 0 {
		// An empty select blocks forever: done stays unreachable.
		b.cur = done
		return
	}
	b.pushBreakable(label, done)
	for i, cc := range s.Body.List {
		clause := cc.(*ast.CommClause)
		b.cur = cases[i]
		if clause.Comm != nil {
			b.add(clause.Comm)
		}
		b.stmtList(clause.Body)
		b.jump(done)
	}
	b.popBreakable()
	b.cur = done
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breaks, label); t != nil {
			b.jump(t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := findTarget(b.continues, label); t != nil {
			b.jump(t)
		}
		b.cur = nil
	case token.GOTO:
		b.jump(b.labelEntry(label))
		b.cur = nil
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
		}
		b.cur = nil
	}
}

// isPanicCall reports whether e is a call to the panic builtin. Shadowed
// panic identifiers would misclassify here; the kernel does not shadow
// builtins (staticcheck would flag it), and misclassification is conservative
// for leak checks (a path is excused, never invented).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// InspectShallow walks n like ast.Inspect but does not descend into function
// literals: a literal's body belongs to its own function (own CFG, own call
// graph node), so flow-sensitive transfer functions must not interpret its
// statements as part of the enclosing function's path.
func InspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}

package minic

import (
	"fmt"
)

// This file is the pre-compiler's annotation pass, the source-to-source
// transformation of the paper's Section 2: it selects poll-point locations,
// inserts the poll-point "macros" (PollPoint statements), determines which
// functions are migratory, validates that migratory calls occur only in
// resumable positions, builds the resume chains, and runs the live-variable
// analysis to attach a live set to every migration site.

// PollPolicy controls where the pre-compiler inserts poll-points.
// Explicit migrate_here(); intrinsics in the source are always honored
// regardless of policy — the paper lets users select their preferred
// poll-points when they know suitable migration locations.
type PollPolicy struct {
	// Loops inserts a poll-point at the top of every loop body.
	Loops bool
	// FunctionEntry inserts a poll-point at the start of every function
	// body.
	FunctionEntry bool
	// Funcs restricts automatic insertion to the named functions.
	// Empty means all functions. Explicit intrinsics are unaffected.
	Funcs []string
}

// DefaultPolicy matches the paper's practice: poll at loop heads, which
// bounds the time between migration opportunities without paying the
// per-call price of entry polls.
var DefaultPolicy = PollPolicy{Loops: true}

func (p PollPolicy) applies(fn *FuncSymbol) bool {
	if len(p.Funcs) == 0 {
		return true
	}
	for _, n := range p.Funcs {
		if n == fn.Name {
			return true
		}
	}
	return false
}

// Annotate performs the pre-compiler pass on a checked program. After it
// returns, every migratory function has its Sites populated with resume
// chains and live sets.
func Annotate(prog *Program, policy PollPolicy) error {
	for _, fn := range prog.Funcs {
		if policy.applies(fn) {
			insertPolls(fn.Body, policy)
		}
	}

	// A function is migratory if it contains a poll point, or calls a
	// migratory function (fixed point over the call graph).
	for _, fn := range prog.Funcs {
		fn.Migratory = containsPoll(fn.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			if fn.Migratory {
				continue
			}
			if callsMigratory(prog, fn.Body) {
				fn.Migratory = true
				changed = true
			}
		}
	}

	// Build sites (poll points and migratory call statements) with
	// resume chains, and validate call positions.
	var errs ErrorList
	for _, fn := range prog.Funcs {
		if !fn.Migratory {
			// Non-migratory functions may still contain calls; no sites
			// needed, but positions need no validation either.
			continue
		}
		b := &siteBuilder{prog: prog, fn: fn}
		b.walkStmt(fn.Body, nil)
		errs = append(errs, b.errs...)
		fn.Sites = b.sites
	}
	if err := errs.Err(); err != nil {
		return err
	}

	// Live sets.
	for _, fn := range prog.Funcs {
		if fn.Migratory {
			computeLiveSets(fn)
		}
	}
	return nil
}

// insertPolls rewrites loop bodies (and optionally function entry) to
// begin with a PollPoint.
func insertPolls(body *Block, policy PollPolicy) {
	if policy.FunctionEntry {
		pp := &PollPoint{Origin: "entry"}
		pp.Pos = body.Pos
		body.Stmts = append([]Stmt{pp}, body.Stmts...)
	}
	if policy.Loops {
		insertLoopPolls(body)
	}
}

// insertLoopPolls walks statements, prefixing each loop body with a poll.
func insertLoopPolls(s Stmt) {
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			insertLoopPolls(sub)
		}
	case *If:
		insertLoopPolls(st.Then)
		if st.Else != nil {
			insertLoopPolls(st.Else)
		}
	case *While:
		st.Body = prefixPoll(st.Body)
		insertLoopPolls(st.Body)
	case *For:
		st.Body = prefixPoll(st.Body)
		insertLoopPolls(st.Body)
	}
}

// prefixPoll wraps body so it starts with a PollPoint. If body is already
// a block it is modified in place; otherwise a block is created around it.
func prefixPoll(body Stmt) Stmt {
	pp := &PollPoint{Origin: "loop"}
	pp.Pos = body.Position()
	if blk, ok := body.(*Block); ok {
		// Avoid double-insertion when the body already starts with a
		// poll (explicit intrinsic at the loop head).
		if len(blk.Stmts) > 0 {
			if _, already := blk.Stmts[0].(*PollPoint); already {
				return blk
			}
		}
		blk.Stmts = append([]Stmt{pp}, blk.Stmts...)
		return blk
	}
	wrap := &Block{}
	wrap.Pos = body.Position()
	wrap.Stmts = []Stmt{pp, body}
	return wrap
}

func containsPoll(s Stmt) bool {
	switch st := s.(type) {
	case *PollPoint:
		return true
	case *Block:
		for _, sub := range st.Stmts {
			if containsPoll(sub) {
				return true
			}
		}
	case *If:
		if containsPoll(st.Then) {
			return true
		}
		if st.Else != nil && containsPoll(st.Else) {
			return true
		}
	case *While:
		return containsPoll(st.Body)
	case *For:
		return containsPoll(st.Body)
	}
	return false
}

func callsMigratory(prog *Program, s Stmt) bool {
	found := false
	walkStmtExprs(s, func(e Expr) {
		if c, ok := e.(*Call); ok && c.Func != nil && c.Func.Migratory {
			found = true
		}
	})
	return found
}

// walkStmtExprs applies f to every expression in the statement tree.
func walkStmtExprs(s Stmt, f func(Expr)) {
	var we func(Expr)
	we = func(e Expr) {
		if e == nil {
			return
		}
		f(e)
		switch x := e.(type) {
		case *Unary:
			we(x.X)
		case *Postfix:
			we(x.X)
		case *Binary:
			we(x.X)
			we(x.Y)
		case *Assign:
			we(x.X)
			we(x.Y)
		case *Cond:
			we(x.C)
			we(x.X)
			we(x.Y)
		case *Index:
			we(x.X)
			we(x.I)
		case *Member:
			we(x.X)
		case *Call:
			for _, a := range x.Args {
				we(a)
			}
		case *Cast:
			we(x.X)
		case *SizeofExpr:
			we(x.X)
		}
	}
	var ws func(Stmt)
	ws = func(s Stmt) {
		switch st := s.(type) {
		case nil:
		case *Block:
			for _, sub := range st.Stmts {
				ws(sub)
			}
		case *DeclStmt:
			we(st.Init)
		case *ExprStmt:
			we(st.X)
		case *If:
			we(st.Cond)
			ws(st.Then)
			ws(st.Else)
		case *While:
			we(st.Cond)
			ws(st.Body)
		case *For:
			we(st.Init)
			we(st.Cond)
			we(st.Post)
			ws(st.Body)
		case *Return:
			we(st.X)
		}
	}
	ws(s)
}

// siteBuilder assigns site IDs in pre-order, records resume chains, and
// validates that migratory calls appear only in resumable positions:
// an expression statement of the form f(...); or x = f(...); with x a
// simple variable.
type siteBuilder struct {
	prog   *Program
	fn     *FuncSymbol
	sites  []*Site
	nextID int
	errs   ErrorList
}

// migratoryCallOf returns the migratory call in a resumable statement
// expression, or nil. valid is false if the expression contains a
// migratory call in a non-resumable position.
func (b *siteBuilder) migratoryCallOf(e Expr) (call *Call, valid bool) {
	isMig := func(x Expr) *Call {
		if c, ok := x.(*Call); ok && c.Func != nil && c.Func.Migratory {
			return c
		}
		return nil
	}
	var top *Call
	switch x := e.(type) {
	case *Call:
		top = isMig(x)
	case *Assign:
		if x.Op == "=" {
			if _, simple := x.X.(*Ident); simple {
				top = isMig(x.Y)
			}
		}
	}
	// Count migratory calls anywhere in the expression.
	count := 0
	walkStmtExprs(&ExprStmt{X: e}, func(sub Expr) {
		if isMig(sub) != nil {
			count++
		}
	})
	switch {
	case count == 0:
		return nil, true
	case count == 1 && top != nil:
		return top, true
	default:
		return nil, false
	}
}

func (b *siteBuilder) newSite(stmt Stmt, chain []Stmt, call *Call) *Site {
	b.nextID++
	s := &Site{ID: b.nextID, Stmt: stmt, Call: call}
	s.Chain = append(append([]Stmt{}, chain...), stmt)
	b.sites = append(b.sites, s)
	return s
}

// walkStmt traverses in execution pre-order, maintaining the ancestor
// chain.
func (b *siteBuilder) walkStmt(s Stmt, chain []Stmt) {
	switch st := s.(type) {
	case nil:
	case *Block:
		sub := append(chain, st)
		for _, x := range st.Stmts {
			b.walkStmt(x, sub)
		}
	case *PollPoint:
		st.Site = b.newSite(st, chain, nil)
	case *ExprStmt:
		call, valid := b.migratoryCallOf(st.X)
		if !valid {
			b.errs = append(b.errs, errf(st.Position(),
				"call to a migratory function must be a statement f(...); or a simple assignment x = f(...); so execution can resume here"))
			return
		}
		if call != nil {
			st.Site = b.newSite(st, chain, call)
		}
	case *DeclStmt:
		// Declaration initializers are not resumable positions: the
		// DeclStmt both declares and defines, and re-entering it on
		// resume would redeclare the variable.
		b.checkExprHasNoMigratoryCall(st.Init, st.Position())
	case *If:
		sub := append(chain, st)
		b.checkExprHasNoMigratoryCall(st.Cond, st.Position())
		b.walkStmt(st.Then, sub)
		if st.Else != nil {
			b.walkStmt(st.Else, sub)
		}
	case *While:
		sub := append(chain, st)
		b.checkExprHasNoMigratoryCall(st.Cond, st.Position())
		b.walkStmt(st.Body, sub)
	case *For:
		sub := append(chain, st)
		b.checkExprHasNoMigratoryCall(st.Init, st.Position())
		b.checkExprHasNoMigratoryCall(st.Cond, st.Position())
		b.checkExprHasNoMigratoryCall(st.Post, st.Position())
		b.walkStmt(st.Body, sub)
	case *Return:
		b.checkExprHasNoMigratoryCall(st.X, st.Position())
	}
}

func unwrapMigratoryCall(e Expr) *Call {
	if c, ok := e.(*Call); ok && c.Func != nil && c.Func.Migratory {
		return c
	}
	return nil
}

func (b *siteBuilder) checkExprHasNoMigratoryCall(e Expr, pos Pos) {
	if e == nil {
		return
	}
	walkStmtExprs(&ExprStmt{X: e}, func(sub Expr) {
		if c := unwrapMigratoryCall(sub); c != nil {
			b.errs = append(b.errs, errf(pos,
				"call to migratory function %s in a non-resumable position (conditions, initializers, and returns cannot be resumed)", c.Name))
		}
	})
}

// Compile is the full front-end pipeline: parse, check, annotate.
func Compile(src string, policy PollPolicy) (*Program, error) {
	tree, err := Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := Check(tree)
	if err != nil {
		return nil, err
	}
	if err := Annotate(prog, policy); err != nil {
		return nil, err
	}
	return prog, nil
}

// DumpSites renders the migration sites of a program, used by the
// pre-compiler's diagnostic flags.
func DumpSites(prog *Program) string {
	out := ""
	for _, fn := range prog.Funcs {
		if !fn.Migratory {
			continue
		}
		out += fmt.Sprintf("function %s: %d sites\n", fn.Name, len(fn.Sites))
		for _, s := range fn.Sites {
			kind := "poll"
			if s.Call != nil {
				kind = "call"
			}
			out += fmt.Sprintf("  site %d (%s) at %s live:", s.ID, kind, s.Stmt.Position())
			for _, v := range s.Live {
				out += " " + v.Name
			}
			out += "\n"
		}
	}
	return out
}

package minic

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/types"
)

// This file implements the semantic analyzer: symbol binding, type
// checking, and the migration-safety rules. The checker enforces the
// migration-unsafe feature restrictions identified by Smith and Hutchinson
// that a compiler can detect: pointer/integer casts, function pointers,
// unions and varargs (rejected in the parser), and untypeable heap
// allocations.

// builtinSig describes a runtime builtin.
type builtinSig struct {
	result   *types.Type
	params   []*types.Type
	variadic bool
}

var builtins = map[string]builtinSig{
	"malloc": {result: types.PointerTo(types.Void), params: []*types.Type{types.ULong}},
	"free":   {result: types.Void, params: []*types.Type{types.PointerTo(types.Void)}},
	"printf": {result: types.Int, params: []*types.Type{types.PointerTo(types.Char)}, variadic: true},
	"rand":   {result: types.Int},
	"srand":  {result: types.Void, params: []*types.Type{types.UInt}},
	"fabs":   {result: types.Double, params: []*types.Type{types.Double}},
	"sqrt":   {result: types.Double, params: []*types.Type{types.Double}},
	"exit":   {result: types.Void, params: []*types.Type{types.Int}},
	// clock_ms returns wall time in milliseconds; used by self-timing
	// workloads.
	"clock_ms": {result: types.Long},
}

// checker carries the analysis state.
type checker struct {
	prog   *Program
	errs   ErrorList
	fn     *FuncSymbol
	scopes []map[string]*VarSymbol
	loops  int
	// strLits interns string literals to synthetic globals.
	strLits map[string]*VarSymbol
}

// Check analyses a parse tree and produces a checked Program.
func Check(tree *ParseTree) (*Program, error) {
	c := &checker{
		prog: &Program{
			TI:          types.NewTI(),
			funcsByName: map[string]*FuncSymbol{},
		},
		strLits: map[string]*VarSymbol{},
	}
	c.prog.Structs = tree.Structs

	// Verify every struct is complete and not directly self-containing.
	for _, st := range tree.Structs {
		if !st.Complete() {
			c.errorf(Pos{}, "struct %s is declared but never defined", st.TagName)
			continue
		}
		if containsByValue(st, st, map[*types.Type]bool{}) {
			c.errorf(Pos{}, "struct %s contains itself by value", st.TagName)
		}
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}

	// Globals.
	seen := map[string]Pos{}
	for _, g := range tree.Globals {
		if prev, dup := seen[g.Name]; dup {
			c.errorf(g.Pos, "global %s redeclared (previous at %s)", g.Name, prev)
			continue
		}
		seen[g.Name] = g.Pos
		if g.Type.IsVoid() {
			c.errorf(g.Pos, "variable %s has type void", g.Name)
			continue
		}
		sym := &VarSymbol{Name: g.Name, Type: g.Type, Kind: GlobalVar, Pos: g.Pos}
		if g.Init != nil {
			c.globalInit(sym, g)
		}
		// After the initializer: a string literal under its sizeof is a
		// global of its own.
		sym.Index = len(c.prog.Globals)
		c.prog.Globals = append(c.prog.Globals, sym)
		c.prog.TI.Add(g.Type)
	}

	// Function signatures first (so calls can be checked in any order).
	for _, fd := range tree.Funcs {
		if c.prog.funcsByName[fd.Name] != nil {
			c.errorf(fd.Pos, "function %s redefined", fd.Name)
			continue
		}
		if _, isBuiltin := builtins[fd.Name]; isBuiltin {
			c.errorf(fd.Pos, "function %s conflicts with a runtime builtin", fd.Name)
			continue
		}
		if fd.Result.Kind == types.KStruct || fd.Result.Kind == types.KArray {
			c.errorf(fd.Pos, "function %s returns an aggregate; return a pointer instead", fd.Name)
			continue
		}
		fs := &FuncSymbol{Name: fd.Name, Pos: fd.Pos, Result: fd.Result, Body: fd.Body}
		for i, pd := range fd.Params {
			pt := pd.Type
			if pt.Kind == types.KArray {
				// Array parameters adjust to pointers, as in C.
				pt = types.PointerTo(pt.Elem)
			}
			if pt.IsVoid() {
				c.errorf(pd.Pos, "parameter %s has type void", pd.Name)
				continue
			}
			ps := &VarSymbol{Name: pd.Name, Type: pt, Kind: ParamVar, Pos: pd.Pos, Index: i}
			fs.Params = append(fs.Params, ps)
			fs.Locals = append(fs.Locals, ps)
			c.prog.TI.Add(pt)
		}
		c.prog.Funcs = append(c.prog.Funcs, fs)
		c.prog.funcsByName[fd.Name] = fs
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}

	// Function bodies.
	for _, fs := range c.prog.Funcs {
		c.checkFunc(fs)
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}

	if main := c.prog.Func("main"); main == nil {
		c.errorf(Pos{}, "program has no main function")
	} else if len(main.Params) != 0 {
		c.errorf(main.Pos, "main must take no parameters")
	}
	return c.prog, c.errs.Err()
}

// globalInit validates and records a global's initializer. C initializes
// globals before execution, so only constant expressions are accepted:
// literals combined by unary, binary, cast and sizeof operators for
// scalars, string literals for char arrays. The process evaluates them on
// its machine, with the arithmetic the same expression has in a function.
func (c *checker) globalInit(sym *VarSymbol, g *globalDecl) {
	// char buf[N] = "literal";
	if s, ok := g.Init.(*StrLit); ok {
		if g.Type.Kind == types.KArray && g.Type.Elem == types.Char {
			if len(s.Val)+1 > g.Type.Len {
				c.errorf(g.Pos, "initializer string (%d bytes with NUL) exceeds %s", len(s.Val)+1, g.Type)
				return
			}
			sym.Str = s.Val
			return
		}
		c.errorf(g.Pos, "string initializer requires a char array, not %s", g.Type)
		return
	}
	if !constantForm(g.Init) {
		c.errorf(g.Pos, "global initializer for %s is not a compile-time constant", g.Name)
		return
	}
	n := len(c.errs)
	init := c.checkExpr(g.Init)
	if len(c.errs) == n && !g.Type.IsArithmetic() && !(g.Type.IsPointer() && isNullConstant(init)) {
		c.errorf(g.Pos, "cannot initialize %s (type %s) with a constant", g.Name, g.Type)
		return
	}
	if len(c.errs) == n && !literalDivisors(init) {
		c.errorf(g.Pos, "global initializer for %s divides integers by something other than a non-zero integer literal", g.Name)
		return
	}
	sym.Init = c.assignable(init, g.Type, g.Pos)
}

// constantForm reports whether e is built from literals by unary, binary,
// cast and sizeof operators (whose operand is not evaluated).
func constantForm(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *SizeofExpr:
		return true
	case *Unary:
		return (x.Op == "-" || x.Op == "+" || x.Op == "~" || x.Op == "!") && constantForm(x.X)
	case *Binary:
		return constantForm(x.X) && constantForm(x.Y)
	case *Cast:
		return constantForm(x.X)
	}
	return false
}

// literalDivisors reports whether every integer / and % in the checked
// constant expression e divides by a non-zero integer literal, possibly
// signed. Any other divisor may be zero on some machine (sizeof(long) - 4),
// and the process image for that machine could not be built.
func literalDivisors(e Expr) bool {
	switch x := e.(type) {
	case *Unary:
		return literalDivisors(x.X)
	case *Cast:
		return literalDivisors(x.X)
	case *Binary:
		if (x.Op == "/" || x.Op == "%") && x.T.IsInteger() {
			d := x.Y
			if u, ok := d.(*Unary); ok && (u.Op == "-" || u.Op == "+") {
				d = u.X
			}
			if lit, ok := d.(*IntLit); !ok || lit.Val == 0 {
				return false
			}
		}
		return literalDivisors(x.X) && literalDivisors(x.Y)
	}
	return true
}

// containsByValue reports whether struct s transitively contains target as
// a by-value member (which C forbids and layout cannot represent).
func containsByValue(s, target *types.Type, seen map[*types.Type]bool) bool {
	if seen[s] {
		return false
	}
	seen[s] = true
	for _, f := range s.Fields {
		t := f.Type
		for t.Kind == types.KArray {
			t = t.Elem
		}
		if t == target {
			return true
		}
		if t.Kind == types.KStruct && t.Complete() && containsByValue(t, target, seen) {
			return true
		}
	}
	return false
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

// ---- scopes ----

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*VarSymbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(sym *VarSymbol) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		c.errorf(sym.Pos, "%s redeclared in this scope", sym.Name)
		return
	}
	top[sym.Name] = sym
}

func (c *checker) lookup(name string) *VarSymbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	for _, g := range c.prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// ---- functions ----

func (c *checker) checkFunc(fs *FuncSymbol) {
	c.fn = fs
	c.pushScope()
	for _, p := range fs.Params {
		c.declare(p)
	}
	c.numberStmt(fs.Body)
	c.checkBlock(fs.Body)
	c.popScope()
	c.fn = nil
}

// numberStmt assigns pre-order statement IDs.
func (c *checker) numberStmt(s Stmt) {
	if s == nil {
		return
	}
	c.fn.nextStmtID++
	s.setID(c.fn.nextStmtID)
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			c.numberStmt(sub)
		}
	case *If:
		c.numberStmt(st.Then)
		c.numberStmt(st.Else)
	case *While:
		c.numberStmt(st.Body)
	case *For:
		c.numberStmt(st.Body)
	}
}

func (c *checker) checkBlock(b *Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		c.checkBlock(st)

	case *DeclStmt:
		sym := st.Sym
		if sym.Type.IsVoid() {
			c.errorf(sym.Pos, "variable %s has type void", sym.Name)
			return
		}
		if !sizedType(sym.Type) {
			c.errorf(sym.Pos, "variable %s has incomplete type %s", sym.Name, sym.Type)
			return
		}
		sym.Index = len(c.fn.Locals)
		c.fn.Locals = append(c.fn.Locals, sym)
		c.prog.TI.Add(sym.Type)
		// Aggregates are conservatively address-taken: their storage is
		// reachable through decay and member pointers.
		if sym.Type.Kind == types.KArray || sym.Type.Kind == types.KStruct {
			sym.AddrTaken = true
		}
		c.declare(sym)
		if st.Init != nil {
			init := c.checkExpr(st.Init)
			st.Init = c.assignable(init, sym.Type, st.Position())
			c.inferMalloc(st.Init, sym.Type, st.Position())
		}

	case *ExprStmt:
		st.X = c.checkExpr(st.X)

	case *If:
		st.Cond = c.condition(c.checkExpr(st.Cond))
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}

	case *While:
		st.Cond = c.condition(c.checkExpr(st.Cond))
		c.loops++
		c.checkStmt(st.Body)
		c.loops--

	case *For:
		if st.Init != nil {
			st.Init = c.checkExpr(st.Init)
		}
		if st.Cond != nil {
			st.Cond = c.condition(c.checkExpr(st.Cond))
		}
		if st.Post != nil {
			st.Post = c.checkExpr(st.Post)
		}
		c.loops++
		c.checkStmt(st.Body)
		c.loops--

	case *Return:
		if st.X == nil {
			if !c.fn.Result.IsVoid() {
				c.errorf(st.Position(), "return with no value in function returning %s", c.fn.Result)
			}
			return
		}
		if c.fn.Result.IsVoid() {
			c.errorf(st.Position(), "return with a value in void function")
			return
		}
		x := c.checkExpr(st.X)
		st.X = c.assignable(x, c.fn.Result, st.Position())

	case *Break:
		if c.loops == 0 {
			c.errorf(st.Position(), "break outside loop")
		}
	case *Continue:
		if c.loops == 0 {
			c.errorf(st.Position(), "continue outside loop")
		}
	case *Empty, *PollPoint:
		// nothing to check
	}
}

func sizedType(t *types.Type) bool {
	switch t.Kind {
	case types.KStruct:
		return t.Complete()
	case types.KArray:
		return sizedType(t.Elem)
	}
	return true
}

// ---- expression checking ----

// decay converts an array-typed expression to a pointer to its first
// element (and flags the underlying symbol as address-taken).
func (c *checker) decay(e Expr) Expr {
	if e.Type() != nil && e.Type().Kind == types.KArray {
		c.markAddrTaken(e)
		return &Cast{
			exprBase: exprBase{Pos: e.Position(), T: types.PointerTo(e.Type().Elem)},
			To:       types.PointerTo(e.Type().Elem),
			X:        e,
		}
	}
	return e
}

// markAddrTaken records that the storage behind e escapes through a
// pointer, walking to the root variable if there is one.
func (c *checker) markAddrTaken(e Expr) {
	switch x := e.(type) {
	case *Ident:
		if x.Sym != nil {
			x.Sym.AddrTaken = true
		}
	case *StrLit:
		// Synthetic globals are always address-taken.
	case *Index:
		c.markAddrTaken(x.X)
	case *Member:
		if !x.Arrow {
			c.markAddrTaken(x.X)
		}
	case *Cast:
		c.markAddrTaken(x.X)
	}
}

// condition validates an expression used in boolean position.
func (c *checker) condition(e Expr) Expr {
	e = c.decay(e)
	t := e.Type()
	if t == nil {
		return e
	}
	if !t.IsArithmetic() && !t.IsPointer() {
		c.errorf(e.Position(), "condition has non-scalar type %s", t)
	}
	return e
}

// isNullConstant reports whether e is the integer literal 0 (a null
// pointer constant).
func isNullConstant(e Expr) bool {
	il, ok := e.(*IntLit)
	return ok && il.Val == 0
}

// assignable validates and adapts e for assignment to type to.
func (c *checker) assignable(e Expr, to *types.Type, pos Pos) Expr {
	e = c.decay(e)
	from := e.Type()
	if from == nil || to == nil {
		return e
	}
	switch {
	case from == to:
	case from.IsArithmetic() && to.IsArithmetic():
		// Implicit arithmetic conversion, performed at run time.
	case to.IsPointer() && isNullConstant(e):
	case to.IsPointer() && from.IsPointer():
		if !pointerCompatible(from, to) {
			c.errorf(pos, "incompatible pointer assignment: %s to %s", from, to)
		}
	default:
		c.errorf(pos, "cannot assign %s to %s", from, to)
	}
	return e
}

// pointerCompatible allows identical pointers and conversions through
// void* in either direction.
func pointerCompatible(from, to *types.Type) bool {
	return from == to || from.Elem.IsVoid() || to.Elem.IsVoid()
}

// rank orders arithmetic types for the usual arithmetic conversions.
func rank(t *types.Type) int {
	switch t.Prim {
	case arch.Double:
		return 10
	case arch.Float:
		return 9
	case arch.ULongLong:
		return 8
	case arch.LongLong:
		return 7
	case arch.ULong:
		return 6
	case arch.Long:
		return 5
	case arch.UInt:
		return 4
	default:
		return 3 // int and everything promoted to int
	}
}

// promote applies the integer promotions: types below int become int.
func promote(t *types.Type) *types.Type {
	if t.IsInteger() && rank(t) <= 3 {
		switch t.Prim {
		case arch.UInt:
			return types.UInt
		default:
			return types.Int
		}
	}
	return t
}

// commonType computes the usual arithmetic conversion of two types.
func commonType(a, b *types.Type) *types.Type {
	a, b = promote(a), promote(b)
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// checkExpr types an expression tree, returning the (possibly rewritten)
// expression.
func (c *checker) checkExpr(e Expr) Expr {
	switch x := e.(type) {
	case *IntLit:
		x.T = types.Int
		if x.Val > 0x7fffffff {
			x.T = types.PrimType(arch.LongLong)
		}
		return x

	case *FloatLit:
		x.T = types.Double
		return x

	case *StrLit:
		sym, ok := c.strLits[x.Val]
		if !ok {
			sym = &VarSymbol{
				Name:      fmt.Sprintf(".str%d", len(c.strLits)),
				Type:      types.ArrayOf(types.Char, len(x.Val)+1),
				Kind:      GlobalVar,
				Index:     len(c.prog.Globals),
				AddrTaken: true,
				Str:       x.Val,
			}
			c.strLits[x.Val] = sym
			c.prog.Globals = append(c.prog.Globals, sym)
			c.prog.TI.Add(sym.Type)
		}
		x.Sym = sym
		x.T = sym.Type
		x.LValue = true
		return x

	case *Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			c.errorf(x.Pos, "undeclared identifier %s", x.Name)
			x.T = types.Int
			return x
		}
		x.Sym = sym
		x.T = sym.Type
		x.LValue = true
		return x

	case *Unary:
		return c.checkUnary(x)

	case *Postfix:
		x.X = c.checkExpr(x.X)
		t := x.X.Type()
		if t == nil {
			return x
		}
		if !isLValue(x.X) {
			c.errorf(x.Pos, "%s requires an lvalue", x.Op)
		}
		if !t.IsArithmetic() && !t.IsPointer() {
			c.errorf(x.Pos, "%s requires arithmetic or pointer operand, have %s", x.Op, t)
		}
		x.T = t
		return x

	case *Binary:
		return c.checkBinary(x)

	case *Assign:
		return c.checkAssign(x)

	case *Cond:
		x.C = c.condition(c.checkExpr(x.C))
		x.X = c.decay(c.checkExpr(x.X))
		x.Y = c.decay(c.checkExpr(x.Y))
		tx, ty := x.X.Type(), x.Y.Type()
		if tx == nil || ty == nil {
			x.T = types.Int
			return x
		}
		switch {
		case tx.IsArithmetic() && ty.IsArithmetic():
			x.T = commonType(tx, ty)
		case tx.IsPointer() && isNullConstant(x.Y):
			x.T = tx
		case ty.IsPointer() && isNullConstant(x.X):
			x.T = ty
		case tx.IsPointer() && ty.IsPointer() && pointerCompatible(tx, ty):
			x.T = tx
		default:
			c.errorf(x.Pos, "incompatible conditional operands: %s and %s", tx, ty)
			x.T = tx
		}
		return x

	case *Index:
		x.X = c.decay(c.checkExpr(x.X))
		x.I = c.checkExpr(x.I)
		bt := x.X.Type()
		if bt == nil || !bt.IsPointer() {
			c.errorf(x.Pos, "indexed expression is not an array or pointer")
			x.T = types.Int
			return x
		}
		if it := x.I.Type(); it != nil && !it.IsInteger() {
			c.errorf(x.Pos, "array index is not an integer")
		}
		if bt.Elem.IsVoid() {
			c.errorf(x.Pos, "cannot index void pointer")
		}
		x.T = bt.Elem
		x.LValue = true
		return x

	case *Member:
		x.X = c.checkExpr(x.X)
		bt := x.X.Type()
		if bt == nil {
			x.T = types.Int
			return x
		}
		var st *types.Type
		if x.Arrow {
			if !bt.IsPointer() || bt.Elem.Kind != types.KStruct {
				c.errorf(x.Pos, "-> applied to non-pointer-to-struct %s", bt)
				x.T = types.Int
				return x
			}
			st = bt.Elem
		} else {
			if bt.Kind != types.KStruct {
				c.errorf(x.Pos, ". applied to non-struct %s", bt)
				x.T = types.Int
				return x
			}
			st = bt
		}
		idx := st.FieldIndex(x.Name)
		if idx < 0 {
			c.errorf(x.Pos, "struct %s has no field %s", st.TagName, x.Name)
			x.T = types.Int
			return x
		}
		x.FieldIdx = idx
		x.T = st.Fields[idx].Type
		x.LValue = true
		return x

	case *Call:
		return c.checkCall(x)

	case *Cast:
		x.X = c.decay(c.checkExpr(x.X))
		from := x.X.Type()
		to := x.To
		x.T = to
		if from == nil {
			return x
		}
		switch {
		case from == to:
		case from.IsArithmetic() && to.IsArithmetic():
		case from.IsPointer() && to.IsPointer():
			// Any pointer-to-pointer cast is representable in the MSR
			// model (the block identity is unchanged); conversions not
			// involving void* are nonetheless suspicious and rejected
			// to keep the TI table authoritative.
			if !pointerCompatible(from, to) {
				c.errorf(x.Pos, "pointer cast between unrelated types %s and %s (only void* conversions are migration-safe)", from, to)
			}
		case to.IsVoid():
		case from.IsPointer() && to.IsInteger(), from.IsInteger() && to.IsPointer():
			c.errorf(x.Pos, "cast between pointer and integer is migration-unsafe: machine addresses have no meaning after migration")
		default:
			c.errorf(x.Pos, "invalid cast from %s to %s", from, to)
		}
		return x

	case *SizeofExpr:
		if x.X != nil {
			x.X = c.checkExpr(x.X)
			if x.X.Type() != nil && !sizedType(x.X.Type()) {
				c.errorf(x.Pos, "sizeof applied to incomplete type")
			}
		} else if !sizedType(x.Of) {
			c.errorf(x.Pos, "sizeof applied to incomplete type %s", x.Of)
		}
		x.T = types.ULong
		return x
	}
	c.errorf(e.Position(), "internal: unhandled expression %T", e)
	return e
}

func isLValue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return x.LValue
	case *Index, *Member, *StrLit:
		return true
	case *Unary:
		return x.Op == "*"
	}
	return false
}

func (c *checker) checkUnary(x *Unary) Expr {
	switch x.Op {
	case "&":
		x.X = c.checkExpr(x.X)
		if !isLValue(x.X) {
			c.errorf(x.Pos, "cannot take the address of a non-lvalue")
			x.T = types.PointerTo(types.Int)
			return x
		}
		c.markAddrTaken(x.X)
		x.T = types.PointerTo(x.X.Type())
		return x

	case "*":
		x.X = c.decay(c.checkExpr(x.X))
		t := x.X.Type()
		if t == nil || !t.IsPointer() {
			c.errorf(x.Pos, "cannot dereference non-pointer")
			x.T = types.Int
			return x
		}
		if t.Elem.IsVoid() {
			c.errorf(x.Pos, "cannot dereference void pointer")
			x.T = types.Int
			return x
		}
		x.T = t.Elem
		x.LValue = true
		return x

	case "-", "+":
		x.X = c.checkExpr(x.X)
		t := x.X.Type()
		if t == nil || !t.IsArithmetic() {
			c.errorf(x.Pos, "unary %s requires an arithmetic operand", x.Op)
			x.T = types.Int
			return x
		}
		x.T = promote(t)
		return x

	case "!":
		x.X = c.condition(c.checkExpr(x.X))
		x.T = types.Int
		return x

	case "~":
		x.X = c.checkExpr(x.X)
		t := x.X.Type()
		if t == nil || !t.IsInteger() {
			c.errorf(x.Pos, "~ requires an integer operand")
			x.T = types.Int
			return x
		}
		x.T = promote(t)
		return x

	case "++", "--":
		x.X = c.checkExpr(x.X)
		t := x.X.Type()
		if t == nil {
			x.T = types.Int
			return x
		}
		if !isLValue(x.X) {
			c.errorf(x.Pos, "%s requires an lvalue", x.Op)
		}
		if !t.IsArithmetic() && !t.IsPointer() {
			c.errorf(x.Pos, "%s requires arithmetic or pointer operand", x.Op)
		}
		x.T = t
		return x
	}
	c.errorf(x.Pos, "internal: unhandled unary %s", x.Op)
	x.T = types.Int
	return x
}

func (c *checker) checkBinary(x *Binary) Expr {
	if x.Op == "&&" || x.Op == "||" {
		x.X = c.condition(c.checkExpr(x.X))
		x.Y = c.condition(c.checkExpr(x.Y))
		x.T = types.Int
		return x
	}
	x.X = c.decay(c.checkExpr(x.X))
	x.Y = c.decay(c.checkExpr(x.Y))
	tx, ty := x.X.Type(), x.Y.Type()
	if tx == nil || ty == nil {
		x.T = types.Int
		return x
	}
	switch x.Op {
	case "+":
		switch {
		case tx.IsArithmetic() && ty.IsArithmetic():
			x.T = commonType(tx, ty)
		case tx.IsPointer() && ty.IsInteger():
			x.T = tx
		case tx.IsInteger() && ty.IsPointer():
			x.T = ty
		default:
			c.errorf(x.Pos, "invalid operands to + (%s and %s)", tx, ty)
			x.T = types.Int
		}
		return x
	case "-":
		switch {
		case tx.IsArithmetic() && ty.IsArithmetic():
			x.T = commonType(tx, ty)
		case tx.IsPointer() && ty.IsInteger():
			x.T = tx
		case tx.IsPointer() && ty.IsPointer():
			if tx != ty {
				c.errorf(x.Pos, "pointer subtraction of incompatible types %s and %s", tx, ty)
			}
			x.T = types.Long
		default:
			c.errorf(x.Pos, "invalid operands to - (%s and %s)", tx, ty)
			x.T = types.Int
		}
		return x
	case "*", "/":
		if !tx.IsArithmetic() || !ty.IsArithmetic() {
			c.errorf(x.Pos, "invalid operands to %s (%s and %s)", x.Op, tx, ty)
			x.T = types.Int
			return x
		}
		x.T = commonType(tx, ty)
		return x
	case "%", "&", "|", "^":
		if !tx.IsInteger() || !ty.IsInteger() {
			c.errorf(x.Pos, "%s requires integer operands", x.Op)
			x.T = types.Int
			return x
		}
		x.T = commonType(tx, ty)
		return x
	case "<<", ">>":
		if !tx.IsInteger() || !ty.IsInteger() {
			c.errorf(x.Pos, "%s requires integer operands", x.Op)
			x.T = types.Int
			return x
		}
		x.T = promote(tx)
		return x
	case "==", "!=", "<", "<=", ">", ">=":
		switch {
		case tx.IsArithmetic() && ty.IsArithmetic():
			x.Conv = commonType(tx, ty)
		case tx.IsPointer() && ty.IsPointer() && pointerCompatible(tx, ty):
		case tx.IsPointer() && isNullConstant(x.Y):
		case ty.IsPointer() && isNullConstant(x.X):
		default:
			c.errorf(x.Pos, "invalid comparison between %s and %s", tx, ty)
		}
		x.T = types.Int
		return x
	}
	c.errorf(x.Pos, "internal: unhandled binary %s", x.Op)
	x.T = types.Int
	return x
}

func (c *checker) checkAssign(x *Assign) Expr {
	x.X = c.checkExpr(x.X)
	if !isLValue(x.X) {
		c.errorf(x.Pos, "assignment target is not an lvalue")
	}
	lt := x.X.Type()
	if lt != nil && lt.Kind == types.KArray {
		c.errorf(x.Pos, "cannot assign to an array")
	}
	y := c.checkExpr(x.Y)
	if x.Op == "=" {
		x.Y = c.assignable(y, lt, x.Pos)
		c.inferMalloc(x.Y, lt, x.Pos)
		x.T = lt
		return x
	}
	// Compound assignment: validate as the corresponding binary op.
	y = c.decay(y)
	ty := y.Type()
	if lt == nil || ty == nil {
		x.T = lt
		x.Y = y
		return x
	}
	if lt.IsArithmetic() && ty.IsArithmetic() {
		x.Conv = commonType(lt, ty)
	}
	switch x.Op[:len(x.Op)-1] {
	case "+", "-":
		ok := (lt.IsArithmetic() && ty.IsArithmetic()) ||
			(lt.IsPointer() && ty.IsInteger())
		if !ok {
			c.errorf(x.Pos, "invalid operands to %s (%s and %s)", x.Op, lt, ty)
		}
	case "*", "/":
		if !lt.IsArithmetic() || !ty.IsArithmetic() {
			c.errorf(x.Pos, "invalid operands to %s", x.Op)
		}
	default: // %, &, |, ^, <<, >>
		if !lt.IsInteger() || !ty.IsInteger() {
			c.errorf(x.Pos, "%s requires integer operands", x.Op)
		}
	}
	x.Y = y
	x.T = lt
	return x
}

// inferMalloc propagates the element type of a heap allocation from the
// assignment context into the malloc call, unwrapping casts. If rhs is a
// malloc call whose element type cannot be determined, that is a
// migration-safety error: the TI table must know every block's type.
func (c *checker) inferMalloc(rhs Expr, target *types.Type, pos Pos) {
	call := unwrapMalloc(rhs)
	if call == nil {
		return
	}
	// An explicit cast (T*)malloc(...) has priority.
	if cast, ok := rhs.(*Cast); ok && cast.To.IsPointer() && !cast.To.Elem.IsVoid() {
		if !sizedType(cast.To.Elem) {
			c.errorf(pos, "malloc of incomplete type %s", cast.To.Elem)
			return
		}
		call.MallocElem = cast.To.Elem
		c.prog.TI.Add(cast.To.Elem)
		return
	}
	if target != nil && target.IsPointer() && !target.Elem.IsVoid() {
		if !sizedType(target.Elem) {
			c.errorf(pos, "malloc of incomplete type %s", target.Elem)
			return
		}
		call.MallocElem = target.Elem
		c.prog.TI.Add(target.Elem)
		return
	}
	c.errorf(pos, "malloc result must be cast or assigned to a typed pointer so the block's type is known to the TI table")
}

// unwrapMalloc returns the malloc call under optional casts, or nil.
func unwrapMalloc(e Expr) *Call {
	for {
		switch x := e.(type) {
		case *Cast:
			e = x.X
		case *Call:
			if x.Builtin == "malloc" {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

func (c *checker) checkCall(x *Call) Expr {
	// User function?
	if fs := c.prog.funcsByName[x.Name]; fs != nil {
		x.Func = fs
		if len(x.Args) != len(fs.Params) {
			c.errorf(x.Pos, "call to %s with %d arguments, want %d", x.Name, len(x.Args), len(fs.Params))
		}
		for i := range x.Args {
			a := c.checkExpr(x.Args[i])
			if i < len(fs.Params) {
				a = c.assignable(a, fs.Params[i].Type, a.Position())
			}
			x.Args[i] = a
		}
		x.T = fs.Result
		return x
	}
	sig, ok := builtins[x.Name]
	if !ok {
		c.errorf(x.Pos, "call to undefined function %s", x.Name)
		x.T = types.Int
		return x
	}
	x.Builtin = x.Name
	if sig.variadic {
		if len(x.Args) < len(sig.params) {
			c.errorf(x.Pos, "%s requires at least %d arguments", x.Name, len(sig.params))
		}
	} else if len(x.Args) != len(sig.params) {
		c.errorf(x.Pos, "call to %s with %d arguments, want %d", x.Name, len(x.Args), len(sig.params))
	}
	for i := range x.Args {
		a := c.checkExpr(x.Args[i])
		if i < len(sig.params) {
			a = c.assignable(a, sig.params[i], a.Position())
		} else {
			a = c.decay(a)
		}
		x.Args[i] = a
	}
	x.T = sig.result
	return x
}

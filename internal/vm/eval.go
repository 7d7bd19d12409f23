package vm

import (
	"math"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/types"
)

// A function is compiled, once per process, into closures over the facts
// of the process's machine: frame offsets, global addresses, element sizes
// and field offsets are constants; each node's operator and result type
// are fixed; a conversion to the type an operand already has is left out;
// and a load or store calls the scalar codec of its width and byte order.
// One walk compiles each statement together with its expressions (exec.go
// holds the statements, this file the expressions), and then each of the
// function's migration sites gets its resume entry: the compiled form of
// the label the paper's pre-compiler puts at a poll point or call site.
// The code of a function is compiled the first time the process runs it
// and kept in the process's frame layout, so no two processes share code
// and a restored process that never runs compiles nothing.

// expr is a compiled expression. It yields its value in canonical 64-bit
// form:
//
//   - signed integers: sign-extended two's complement;
//   - unsigned integers and pointers: zero-extended;
//   - float: IEEE 754 single bits in the low 32;
//   - double: IEEE 754 double bits;
//   - structs (and non-decayed arrays): the address of the object —
//     aggregates are handled by reference, with assignment copying bytes.
type expr func(f *Frame) (uint64, error)

// test is a compiled expression in boolean position.
type test func(f *Frame) (bool, error)

// compiler compiles the code of one function (or of the global
// initializers, with no frame) for process p.
type compiler struct {
	p    *Process
	m    *arch.Machine
	sp   *memory.Space
	fn   *minic.FuncSymbol
	offs []int // the function's frame offsets
	// parts holds what a site's resume entry re-enters, by statement: a
	// block's compiled statements, a loop's compiled parts, and a call
	// site's compiled expression.
	parts map[minic.Stmt]any
}

// width is an integer type's machine width as the shift that truncates a
// 64-bit value to it, and its signedness.
type width struct {
	shift  uint8
	signed bool
}

func (c *compiler) width(t *types.Type) width {
	k := t.Prim
	if t.IsPointer() {
		k = arch.Ptr
	}
	return width{uint8(64 - 8*c.m.SizeOf(k)), k.IsSigned()}
}

// norm truncates v to the width and sign- or zero-extends it back.
func (w width) norm(v uint64) uint64 {
	if w.signed {
		return uint64(int64(v<<w.shift) >> w.shift)
	}
	return v << w.shift >> w.shift
}

// asFloat is the numeric value of a floating value of type t.
func asFloat(t *types.Type, v uint64) float64 {
	if t.Kind == types.KPrim && t.Prim == arch.Float {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

// floatBits is the canonical form of f at floating type t.
func floatBits(t *types.Type, f float64) uint64 {
	if t.Prim == arch.Float {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// scalarKind is the codec kind of a scalar type; false for an aggregate.
func scalarKind(t *types.Type) (arch.PrimKind, bool) {
	switch t.Kind {
	case types.KPrim:
		return t.Prim, true
	case types.KPointer:
		return arch.Ptr, true
	}
	return 0, false
}

// cvt is the conversion of a value of type from to type to with C
// semantics, or nil where the bits carry over unchanged.
func (c *compiler) cvt(from, to *types.Type) func(uint64) uint64 {
	switch {
	case from == to || to.IsPointer() || !to.IsArithmetic():
		return nil
	case to.IsFloat():
		var fl func(uint64) float64
		switch {
		case from.IsFloat():
			fl = func(v uint64) float64 { return asFloat(from, v) }
		case from.IsInteger() && from.Prim.IsSigned():
			fl = func(v uint64) float64 { return float64(int64(v)) }
		default:
			fl = func(v uint64) float64 { return float64(v) }
		}
		return func(v uint64) uint64 { return floatBits(to, fl(v)) }
	case from.IsFloat():
		// C truncation toward zero (C11 6.3.1.4): exact up to 2^64 for an
		// unsigned target. Out of range is undefined behaviour in C;
		// saturate like common hardware, at 2^64-1 unsigned and at the
		// int64 range otherwise.
		w := c.width(to)
		return func(v uint64) uint64 {
			f := asFloat(from, v)
			switch {
			case math.IsNaN(f):
				return 0
			case !w.signed && f >= 1<<64:
				return w.norm(math.MaxUint64)
			case !w.signed && f >= 1<<63:
				return w.norm(uint64(f))
			case f >= math.MaxInt64:
				return w.norm(math.MaxInt64)
			case f <= math.MinInt64:
				return w.norm(1 << 63)
			}
			return w.norm(uint64(int64(f)))
		}
	}
	w, fw := c.width(to), c.width(from)
	if from.IsInteger() && (w.shift == 0 || (fw.shift >= w.shift && fw.signed == w.signed) || (!fw.signed && fw.shift > w.shift)) {
		return nil // every value of from is already canonical at to
	}
	return w.norm
}

// wrap applies cv to what x yields.
func wrap(x expr, cv func(uint64) uint64) expr {
	if cv == nil {
		return x
	}
	return func(f *Frame) (uint64, error) {
		v, err := x(f)
		return cv(v), err
	}
}

// convOf compiles e converted to type to.
func (c *compiler) convOf(e minic.Expr, to *types.Type) expr {
	return wrap(c.expr(e), c.cvt(e.Type(), to))
}

// konst yields v.
func konst(v uint64) expr { return func(*Frame) (uint64, error) { return v, nil } }

// place is a compiled lvalue: f.Base+off for a local (frame), off itself
// for a global (no base), or base(f)+off.
type place struct {
	base  expr
	frame bool
	off   memory.Address
}

// addr is the code of the place's address.
func (pl place) addr() expr {
	off := uint64(pl.off)
	switch {
	case pl.frame:
		return func(f *Frame) (uint64, error) { return uint64(f.Base) + off, nil }
	case pl.base == nil:
		return func(*Frame) (uint64, error) { return off, nil }
	case off == 0:
		return pl.base
	}
	base := pl.base
	return func(f *Frame) (uint64, error) {
		a, err := base(f)
		return a + off, err
	}
}

// nonNull fails with msg where x yields the null pointer.
func nonNull(x expr, pos minic.Pos, msg string) expr {
	return func(f *Frame) (uint64, error) {
		a, err := x(f)
		if err == nil && a == 0 {
			err = rtErr(pos, "%s", msg)
		}
		return a, err
	}
}

// place compiles the lvalue e.
func (c *compiler) place(e minic.Expr) place {
	switch x := e.(type) {
	case *minic.Ident:
		if x.Sym.Kind == minic.GlobalVar {
			return place{off: c.p.globalAddrs[x.Sym.Index]}
		}
		return place{frame: true, off: memory.Address(c.offs[x.Sym.Index])}
	case *minic.StrLit:
		return place{off: c.p.globalAddrs[x.Sym.Index]}
	case *minic.Unary:
		if x.Op == "*" {
			return place{base: nonNull(c.expr(x.X), x.Position(), "null pointer dereference")}
		}
	case *minic.Index:
		base, idx := c.expr(x.X), c.expr(x.I)
		es := uint64(x.X.Type().Elem.SizeOf(c.m))
		pos := x.Position()
		return place{base: func(f *Frame) (uint64, error) {
			b, err := base(f)
			if err != nil {
				return 0, err
			}
			i, err := idx(f)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, rtErr(pos, "indexing null pointer")
			}
			return b + i*es, nil
		}}
	case *minic.Member:
		if x.Arrow {
			off := x.X.Type().Elem.OffsetOf(c.m, x.FieldIdx)
			return place{base: nonNull(c.expr(x.X), x.Position(), "member access through null pointer"), off: memory.Address(off)}
		}
		pl := c.place(x.X)
		pl.off += memory.Address(x.X.Type().OffsetOf(c.m, x.FieldIdx))
		return pl
	case *minic.Cast:
		// Decay casts of array lvalues appear in lvalue positions only
		// through checker rewrites; other casts are not lvalues.
		return c.place(x.X)
	}
	pos := e.Position()
	return place{base: func(*Frame) (uint64, error) { return 0, rtErr(pos, "expression is not an lvalue") }}
}

// access is how compiled code reaches the object at a place: rd yields
// its value (a scalar read through its codec, an aggregate's address), at
// yields the place's address, and wr the bytes at that address to store
// into, past the write barrier. A local is a constant offset in its
// frame's view and a global one in the space's view of the globals, so
// neither has an address to compute (at is nil) or translates one per
// access; any other place, behind a pointer or an index, goes through
// Bytes and Writable, which check it.
type access struct {
	rd, at expr
	wr     func(f *Frame, a uint64) ([]byte, error)
}

// access compiles the access to the object of type t at pl.
func (c *compiler) access(pl place, t *types.Type) access {
	k, scalar := scalarKind(t)
	n, off, sp, ld := t.SizeOf(c.m), int(pl.off), c.sp, c.m.Load(k)
	var ac access
	switch {
	case pl.frame:
		ac.rd = func(f *Frame) (uint64, error) { return ld(f.view.Read(off, n)), nil }
		ac.wr = func(f *Frame, _ uint64) ([]byte, error) { return f.view.Write(off, n), nil }
	case pl.base == nil:
		g, off := sp.Globals(), int(pl.off-memory.GlobalBase)
		ac.rd = func(*Frame) (uint64, error) { return ld(g.Read(off, n)), nil }
		ac.wr = func(*Frame, uint64) ([]byte, error) { return g.Write(off, n), nil }
	default:
		at := pl.addr()
		ac.at, ac.rd = at, func(f *Frame) (uint64, error) {
			a, err := at(f)
			if err != nil {
				return 0, err
			}
			b, err := sp.Bytes(memory.Address(a), n)
			if err != nil {
				return 0, err
			}
			return ld(b), nil
		}
		ac.wr = func(_ *Frame, a uint64) ([]byte, error) { return sp.Writable(memory.Address(a), n) }
	}
	if !scalar {
		ac.rd = pl.addr()
	}
	return ac
}

// addr evaluates the address of ac's place in f, where it has one.
func (ac access) addr(f *Frame) (uint64, error) {
	if ac.at == nil {
		return 0, nil
	}
	return ac.at(f)
}

// storer is the store through ac of a value of type t at the address ac's
// place has in f: a scalar written through its codec, an aggregate copied
// from the address it is.
func (c *compiler) storer(ac access, t *types.Type) func(f *Frame, a, v uint64) error {
	k, ok := scalarKind(t)
	if !ok {
		sp, n := c.sp, t.SizeOf(c.m)
		return func(f *Frame, a, v uint64) error {
			src, err := sp.Bytes(memory.Address(v), n)
			if err != nil {
				return err
			}
			b, err := ac.wr(f, a)
			copy(b, src)
			return err
		}
	}
	st := c.m.Store(k)
	return func(f *Frame, a, v uint64) error {
		b, err := ac.wr(f, a)
		if err == nil {
			st(b, v)
		}
		return err
	}
}

// assign compiles the store of y, of type t, at pl: of what y yields, or
// with op set, of op of the value at pl and what y yields (a compound
// assignment, which reads the bytes it writes). The address is evaluated
// before y. It yields what it stores.
func (c *compiler) assign(pl place, t *types.Type, y expr, op func(old, y uint64) (uint64, error)) expr {
	k, _ := scalarKind(t)
	ac, ld, st := c.access(pl, t), c.m.Load(k), c.m.Store(k)
	store := c.storer(ac, t)
	return func(f *Frame) (uint64, error) {
		a, err := ac.addr(f)
		if err != nil {
			return 0, err
		}
		v, err := y(f)
		switch {
		case err != nil:
			return 0, err
		case op == nil:
			return v, store(f, a, v)
		}
		b, err := ac.wr(f, a)
		if err == nil {
			if v, err = op(ld(b), v); err == nil {
				st(b, v)
			}
		}
		return v, err
	}
}

// expr compiles e.
func (c *compiler) expr(e minic.Expr) expr {
	switch x := e.(type) {
	case *minic.IntLit:
		return konst(c.width(x.T).norm(x.Val))
	case *minic.FloatLit:
		return konst(math.Float64bits(x.Val))
	case *minic.SizeofExpr:
		t := x.Of
		if t == nil {
			t = x.X.Type()
		}
		return konst(c.width(types.ULong).norm(uint64(t.SizeOf(c.m))))
	case *minic.StrLit:
		// Non-decayed string literal (aggregate reference).
		return c.place(x).addr()
	case *minic.Ident, *minic.Index, *minic.Member:
		return c.access(c.place(e), e.Type()).rd
	case *minic.Unary:
		return c.unary(x)
	case *minic.Postfix:
		return c.incDec(x.X, x.Op, true)
	case *minic.Binary:
		return c.binaryExpr(x)
	case *minic.Assign:
		if x.Op == "=" {
			return c.assign(c.place(x.X), x.X.Type(), c.convOf(x.Y, x.X.Type()), nil)
		}
		return c.compound(x)
	case *minic.Cond:
		cond, a, b := c.test(x.C), c.convOf(x.X, x.T), c.convOf(x.Y, x.T)
		return func(f *Frame) (uint64, error) {
			ok, err := cond(f)
			if err != nil {
				return 0, err
			}
			if ok {
				return a(f)
			}
			return b(f)
		}
	case *minic.Call:
		return c.call(x)
	case *minic.Cast:
		if x.X.Type().Kind == types.KArray {
			// Array decay: the value is the array's address.
			return c.place(x.X).addr()
		}
		return c.convOf(x.X, x.To)
	}
	pos := e.Position()
	return func(*Frame) (uint64, error) { return 0, rtErr(pos, "internal: unhandled expression %T", e) }
}

func (c *compiler) unary(x *minic.Unary) expr {
	t := x.T
	switch x.Op {
	case "&":
		return c.place(x.X).addr()
	case "*":
		return c.access(c.place(x), t).rd
	case "+":
		return c.convOf(x.X, t)
	case "-":
		v := c.convOf(x.X, t)
		if t.IsFloat() {
			return wrap(v, func(a uint64) uint64 { return floatBits(t, -asFloat(t, a)) })
		}
		w := c.width(t)
		return wrap(v, func(a uint64) uint64 { return w.norm(-a) })
	case "~":
		w := c.width(t)
		return wrap(c.convOf(x.X, t), func(a uint64) uint64 { return w.norm(^a) })
	case "!":
		return boolValue(c.test(x))
	}
	return c.incDec(x.X, x.Op, false) // ++ and --
}

// incDec compiles ++ or -- of the lvalue target: load it, step it by one
// for arithmetic and pointer types, store it back, and yield the old value
// (post) or the new one. The load reads the view the store writes.
func (c *compiler) incDec(target minic.Expr, op string, post bool) expr {
	t := target.Type()
	k, _ := scalarKind(t)
	ac, ld, st := c.access(c.place(target), t), c.m.Load(k), c.m.Store(k)
	d := uint64(1)
	if op == "--" {
		d = ^uint64(0)
	}
	var step func(uint64) uint64
	switch {
	case t.IsPointer():
		es := uint64(t.Elem.SizeOf(c.m))
		step = func(v uint64) uint64 { return v + d*es }
	case t.IsFloat():
		delta := float64(int64(d))
		step = func(v uint64) uint64 { return floatBits(t, asFloat(t, v)+delta) }
	default:
		w := c.width(t)
		step = func(v uint64) uint64 { return w.norm(v + d) }
	}
	return func(f *Frame) (uint64, error) {
		a, err := ac.addr(f)
		if err != nil {
			return 0, err
		}
		b, err := ac.wr(f, a)
		if err != nil {
			return 0, err
		}
		old := ld(b)
		upd := step(old)
		st(b, upd)
		if post {
			return old, nil
		}
		return upd, nil
	}
}

// boolValue yields 1 where t holds and 0 where it does not.
func boolValue(t test) expr {
	return func(f *Frame) (uint64, error) {
		ok, err := t(f)
		if ok {
			return 1, err
		}
		return 0, err
	}
}

// binaryExpr compiles a binary operator in value position.
func (c *compiler) binaryExpr(x *minic.Binary) expr {
	lt, rt := x.X.Type(), x.Y.Type()
	var op func(a, b uint64) (uint64, error)
	var l, r expr
	switch {
	case cmpMasks[x.Op] != 0 || x.Op == "&&" || x.Op == "||":
		return boolValue(c.test(x))
	case lt.IsPointer() || rt.IsPointer():
		op, l, r = c.pointerArith(x.Op, lt, rt, x.T, x.Position()), c.expr(x.X), c.expr(x.Y)
	default:
		op, l, r = c.arith(x.Op, x.T, x.Position()), c.convOf(x.X, x.T), c.convOf(x.Y, x.T)
		if x.Op == "<<" || x.Op == ">>" {
			r = c.expr(x.Y) // the count is not converted
		}
	}
	return func(f *Frame) (uint64, error) {
		a, err := l(f)
		if err != nil {
			return 0, err
		}
		b, err := r(f)
		if err != nil {
			return 0, err
		}
		return op(a, b)
	}
}

// compound compiles an arithmetic or pointer compound assignment. It
// computes at the checker's common type and converts back to the
// target's; a pointer target (p += n) keeps its type.
func (c *compiler) compound(x *minic.Assign) expr {
	lt, rt := x.X.Type(), x.Y.Type()
	opName := x.Op[:len(x.Op)-1]
	y := c.expr(x.Y)
	var op func(a, b uint64) (uint64, error)
	if lt.IsPointer() {
		op = c.pointerArith(opName, lt, rt, lt, x.Position())
	} else {
		ct := x.Conv
		if opName != "<<" && opName != ">>" {
			y = wrap(y, c.cvt(rt, ct))
		}
		inner, in, out := c.arith(opName, ct, x.Position()), c.cvt(lt, ct), c.cvt(ct, lt)
		op = func(a, b uint64) (uint64, error) {
			v, err := inner(apply(in, a), b)
			return apply(out, v), err
		}
	}
	return c.assign(c.place(x.X), lt, y, op)
}

func apply(cv func(uint64) uint64, v uint64) uint64 {
	if cv == nil {
		return v
	}
	return cv(v)
}

// pointerArith is pointer + integer, integer + pointer, pointer - integer
// and pointer - pointer (an element count of type res).
func (c *compiler) pointerArith(op string, lt, rt, res *types.Type, pos minic.Pos) func(a, b uint64) (uint64, error) {
	switch {
	case op == "-" && lt.IsPointer() && rt.IsPointer():
		es, w := int64(lt.Elem.SizeOf(c.m)), c.width(res)
		return func(a, b uint64) (uint64, error) { return w.norm(uint64((int64(a) - int64(b)) / es)), nil }
	case op == "+" || op == "-":
		pt := lt
		if rt.IsPointer() {
			pt = rt
		}
		es := uint64(pt.Elem.SizeOf(c.m))
		if op == "-" {
			es = -es
		}
		if rt.IsPointer() {
			return func(a, b uint64) (uint64, error) { return b + a*es, nil }
		}
		return func(a, b uint64) (uint64, error) { return a + b*es, nil }
	}
	return func(a, b uint64) (uint64, error) { return 0, rtErr(pos, "invalid pointer operation %s", op) }
}

// arith is an arithmetic operator at type t, on operands converted to t
// (but a shift count, which is not).
func (c *compiler) arith(op string, t *types.Type, pos minic.Pos) func(a, b uint64) (uint64, error) {
	if t.IsFloat() {
		var fop func(a, b float64) float64
		switch op {
		case "+":
			fop = func(a, b float64) float64 { return a + b }
		case "-":
			fop = func(a, b float64) float64 { return a - b }
		case "*":
			fop = func(a, b float64) float64 { return a * b }
		case "/":
			fop = func(a, b float64) float64 { return a / b }
		default:
			return func(a, b uint64) (uint64, error) { return 0, rtErr(pos, "invalid floating operation %s", op) }
		}
		return func(a, b uint64) (uint64, error) { return floatBits(t, fop(asFloat(t, a), asFloat(t, b))), nil }
	}
	w := c.width(t)
	switch op {
	case "+":
		return func(a, b uint64) (uint64, error) { return w.norm(a + b), nil }
	case "-":
		return func(a, b uint64) (uint64, error) { return w.norm(a - b), nil }
	case "*":
		return func(a, b uint64) (uint64, error) { return w.norm(a * b), nil }
	case "&":
		return func(a, b uint64) (uint64, error) { return a & b, nil }
	case "|":
		return func(a, b uint64) (uint64, error) { return a | b, nil }
	case "^":
		return func(a, b uint64) (uint64, error) { return a ^ b, nil }
	case "<<":
		return func(a, b uint64) (uint64, error) { return w.norm(a << (b & 63)), nil }
	case ">>":
		if w.signed {
			return func(a, b uint64) (uint64, error) { return w.norm(uint64(int64(a) >> (b & 63))), nil }
		}
		return func(a, b uint64) (uint64, error) { return w.norm(a >> (b & 63)), nil }
	case "/", "%":
		rem := op == "%"
		return func(a, b uint64) (uint64, error) {
			switch {
			case b == 0:
				return 0, rtErr(pos, "division by zero")
			case w.signed && rem:
				return w.norm(uint64(int64(a) % int64(b))), nil
			case w.signed:
				return w.norm(uint64(int64(a) / int64(b))), nil
			case rem:
				return w.norm(a % b), nil
			}
			return w.norm(a / b), nil
		}
	}
	return func(a, b uint64) (uint64, error) { return 0, rtErr(pos, "invalid integer operation %s", op) }
}

// cmpMasks maps a comparison to the orderings it holds for: less (1),
// equal (2), greater (4) and unordered, a NaN operand (8).
var cmpMasks = map[string]uint8{"<": 1, "<=": 3, ">": 4, ">=": 6, "==": 2, "!=": 13}

func orderOf[T int64 | uint64 | float64](a, b T) uint8 {
	switch {
	case a < b:
		return 1
	case a == b:
		return 2
	case a > b:
		return 4
	}
	return 8
}

// test compiles e in boolean position.
func (c *compiler) test(e minic.Expr) test {
	switch x := e.(type) {
	case *minic.Binary:
		switch x.Op {
		case "&&":
			l, r := c.test(x.X), c.test(x.Y)
			return func(f *Frame) (bool, error) {
				ok, err := l(f)
				if err != nil || !ok {
					return false, err
				}
				return r(f)
			}
		case "||":
			l, r := c.test(x.X), c.test(x.Y)
			return func(f *Frame) (bool, error) {
				ok, err := l(f)
				if err != nil || ok {
					return ok, err
				}
				return r(f)
			}
		}
		if mask := cmpMasks[x.Op]; mask != 0 {
			return c.compare(x, mask)
		}
	case *minic.Unary:
		if x.Op == "!" {
			t := c.test(x.X)
			return func(f *Frame) (bool, error) {
				ok, err := t(f)
				return !ok, err
			}
		}
	}
	v, t := c.expr(e), e.Type()
	if t.IsFloat() {
		return func(f *Frame) (bool, error) {
			a, err := v(f)
			return asFloat(t, a) != 0, err
		}
	}
	return func(f *Frame) (bool, error) {
		a, err := v(f)
		return a != 0, err
	}
}

// compare compiles a comparison: of arithmetic operands at the checker's
// conversion type, of pointers as unsigned addresses.
func (c *compiler) compare(x *minic.Binary, mask uint8) test {
	ct := x.Conv
	l, r := c.expr(x.X), c.expr(x.Y)
	var order func(a, b uint64) uint8
	switch {
	case ct == nil:
		order = orderOf[uint64]
	case ct.IsFloat():
		l, r = c.convOf(x.X, ct), c.convOf(x.Y, ct)
		order = func(a, b uint64) uint8 { return orderOf(asFloat(ct, a), asFloat(ct, b)) }
	case ct.Prim.IsSigned():
		l, r = c.convOf(x.X, ct), c.convOf(x.Y, ct)
		order = func(a, b uint64) uint8 { return orderOf(int64(a), int64(b)) }
	default:
		l, r = c.convOf(x.X, ct), c.convOf(x.Y, ct)
		order = orderOf[uint64]
	}
	return func(f *Frame) (bool, error) {
		a, err := l(f)
		if err != nil {
			return false, err
		}
		b, err := r(f)
		if err != nil {
			return false, err
		}
		return mask&order(a, b) != 0, nil
	}
}

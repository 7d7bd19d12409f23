package vm

import (
	"math"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/types"
)

// value is an expression result in canonical 64-bit form:
//
//   - signed integers: sign-extended two's complement;
//   - unsigned integers and pointers: zero-extended;
//   - float: IEEE 754 single bits in the low 32;
//   - double: IEEE 754 double bits;
//   - structs (and non-decayed arrays): the address of the object —
//     aggregates are handled by reference, with assignment copying bytes.
type value struct {
	t    *types.Type
	bits uint64
}

func intValue(t *types.Type, v int64) value { return value{t: t, bits: uint64(v)} }
func ptrValue(t *types.Type, a memory.Address) value {
	return value{t: t, bits: uint64(a)}
}

// asBool interprets a scalar value in boolean position.
func (v value) asBool() bool {
	if v.t.IsFloat() {
		return v.float64() != 0
	}
	return v.bits != 0
}

// float64 returns the numeric value of a floating value.
func (v value) float64() float64 {
	if v.t.Kind == types.KPrim && v.t.Prim == arch.Float {
		return float64(math.Float32frombits(uint32(v.bits)))
	}
	return math.Float64frombits(v.bits)
}

// addr returns the pointer value.
func (v value) addr() memory.Address { return memory.Address(v.bits) }

// normInt truncates bits to the machine width of an integer kind and
// sign- or zero-extends back to 64 bits.
func normInt(m *arch.Machine, k arch.PrimKind, bits uint64) uint64 {
	size := m.SizeOf(k)
	if size == 8 {
		return bits
	}
	shift := uint(64 - 8*size)
	if k.IsSigned() {
		return uint64(int64(bits<<shift) >> shift)
	}
	return bits << shift >> shift
}

// convert adapts a scalar value to another type with C semantics.
func (p *Process) convert(v value, to *types.Type) value {
	from := v.t
	if from == to {
		return value{t: to, bits: v.bits}
	}
	switch {
	case to.IsPointer():
		// Pointer from pointer (or null constant): bits carry over.
		return value{t: to, bits: v.bits}
	case to.Kind == types.KPrim && to.Prim == arch.Double:
		switch {
		case from.IsFloat():
			return value{t: to, bits: math.Float64bits(v.float64())}
		case from.IsInteger() && from.Prim.IsSigned():
			return value{t: to, bits: math.Float64bits(float64(int64(v.bits)))}
		default:
			return value{t: to, bits: math.Float64bits(float64(v.bits))}
		}
	case to.Kind == types.KPrim && to.Prim == arch.Float:
		var f float64
		switch {
		case from.IsFloat():
			f = v.float64()
		case from.IsInteger() && from.Prim.IsSigned():
			f = float64(int64(v.bits))
		default:
			f = float64(v.bits)
		}
		return value{t: to, bits: uint64(math.Float32bits(float32(f)))}
	case to.IsInteger():
		var bits uint64
		if from.IsFloat() {
			// C truncation toward zero; out-of-range is undefined
			// behaviour in C, saturate like common hardware.
			f := v.float64()
			switch {
			case math.IsNaN(f):
				bits = 0
			case f >= math.MaxInt64:
				bits = math.MaxInt64
			case f <= math.MinInt64:
				bits = 1 << 63 // int64 minimum
			default:
				bits = uint64(int64(f))
			}
		} else {
			bits = v.bits
		}
		return value{t: to, bits: normInt(p.Mach, to.Prim, bits)}
	}
	// void or aggregate targets: carry bits (aggregates are addresses).
	return value{t: to, bits: v.bits}
}

// loadValue reads a scalar (or takes the address of an aggregate) of type
// t at addr.
func (p *Process) loadValue(addr memory.Address, t *types.Type) (value, error) {
	switch t.Kind {
	case types.KPrim:
		bits, err := p.Space.LoadPrim(addr, t.Prim)
		if err != nil {
			return value{}, err
		}
		return value{t: t, bits: bits}, nil
	case types.KPointer:
		a, err := p.Space.LoadPtr(addr)
		if err != nil {
			return value{}, err
		}
		return value{t: t, bits: uint64(a)}, nil
	default:
		return value{t: t, bits: uint64(addr)}, nil
	}
}

// storeValue writes a value of type t to addr (copying bytes for
// aggregates).
func (p *Process) storeValue(addr memory.Address, t *types.Type, v value) error {
	switch t.Kind {
	case types.KPrim:
		return p.Space.StorePrim(addr, t.Prim, v.bits)
	case types.KPointer:
		return p.Space.StorePtr(addr, v.addr())
	default:
		src, err := p.Space.Bytes(v.addr(), t.SizeOf(p.Mach))
		if err != nil {
			return err
		}
		return p.Space.WriteBytes(addr, src)
	}
}

// evalAddr computes the address designated by an lvalue expression.
func (p *Process) evalAddr(f *Frame, e minic.Expr) (memory.Address, error) {
	switch x := e.(type) {
	case *minic.Ident:
		return p.VarAddr(f, x.Sym), nil

	case *minic.StrLit:
		return p.globalAddrs[x.Sym.Index], nil

	case *minic.Unary:
		if x.Op == "*" {
			v, err := p.evalExpr(f, x.X)
			if err != nil {
				return 0, err
			}
			if v.addr() == 0 {
				return 0, rtErr(x.Position(), "null pointer dereference")
			}
			return v.addr(), nil
		}

	case *minic.Index:
		base, err := p.evalExpr(f, x.X)
		if err != nil {
			return 0, err
		}
		idx, err := p.evalExpr(f, x.I)
		if err != nil {
			return 0, err
		}
		if base.addr() == 0 {
			return 0, rtErr(x.Position(), "indexing null pointer")
		}
		elem := base.t.Elem
		off := int64(idx.bits) * int64(elem.SizeOf(p.Mach))
		return base.addr() + memory.Address(off), nil

	case *minic.Member:
		var base memory.Address
		var st *types.Type
		if x.Arrow {
			v, err := p.evalExpr(f, x.X)
			if err != nil {
				return 0, err
			}
			if v.addr() == 0 {
				return 0, rtErr(x.Position(), "member access through null pointer")
			}
			base = v.addr()
			st = v.t.Elem
		} else {
			a, err := p.evalAddr(f, x.X)
			if err != nil {
				return 0, err
			}
			base = a
			st = x.X.Type()
		}
		return base + memory.Address(st.OffsetOf(p.Mach, x.FieldIdx)), nil

	case *minic.Cast:
		// Decay casts of array lvalues appear in lvalue positions only
		// through checker rewrites; other casts are not lvalues.
		return p.evalAddr(f, x.X)
	}
	return 0, rtErr(e.Position(), "expression is not an lvalue")
}

// evalExpr evaluates an expression to a value.
func (p *Process) evalExpr(f *Frame, e minic.Expr) (value, error) {
	switch x := e.(type) {
	case *minic.IntLit:
		return value{t: x.Type(), bits: normInt(p.Mach, x.Type().Prim, x.Val)}, nil

	case *minic.FloatLit:
		return value{t: x.Type(), bits: math.Float64bits(x.Val)}, nil

	case *minic.StrLit:
		// Non-decayed string literal (aggregate reference).
		return ptrValue(x.Type(), p.globalAddrs[x.Sym.Index]), nil

	case *minic.Ident:
		addr := p.VarAddr(f, x.Sym)
		return p.loadValue(addr, x.Sym.Type)

	case *minic.Unary:
		return p.evalUnary(f, x)

	case *minic.Postfix:
		old, _, err := p.incDec(f, x.X, x.Op)
		return old, err

	case *minic.Binary:
		return p.evalBinary(f, x)

	case *minic.Assign:
		return p.evalAssign(f, x)

	case *minic.Cond:
		c, err := p.evalExpr(f, x.C)
		if err != nil {
			return value{}, err
		}
		pick := x.Y
		if c.asBool() {
			pick = x.X
		}
		v, err := p.evalExpr(f, pick)
		if err != nil {
			return value{}, err
		}
		return p.convert(v, x.Type()), nil

	case *minic.Index, *minic.Member:
		addr, err := p.evalAddr(f, e)
		if err != nil {
			return value{}, err
		}
		return p.loadValue(addr, e.Type())

	case *minic.Call:
		return p.evalCall(f, x)

	case *minic.Cast:
		if x.X.Type() != nil && x.X.Type().Kind == types.KArray {
			// Array decay: the value is the array's address.
			addr, err := p.evalAddr(f, x.X)
			if err != nil {
				return value{}, err
			}
			return ptrValue(x.To, addr), nil
		}
		v, err := p.evalExpr(f, x.X)
		if err != nil {
			return value{}, err
		}
		return p.convert(v, x.To), nil

	case *minic.SizeofExpr:
		t := x.Of
		if t == nil {
			t = x.X.Type()
		}
		return value{t: types.ULong, bits: normInt(p.Mach, arch.ULong, uint64(t.SizeOf(p.Mach)))}, nil
	}
	return value{}, rtErr(e.Position(), "internal: unhandled expression %T", e)
}

// incDec loads the lvalue x, steps it by one ("++") or minus one ("--")
// for arithmetic and pointer types, stores the result back, and returns
// the old and new values: prefix and postfix ++ and -- differ only in
// which one they yield.
func (p *Process) incDec(f *Frame, x minic.Expr, op string) (old, upd value, err error) {
	addr, err := p.evalAddr(f, x)
	if err != nil {
		return old, upd, err
	}
	t := x.Type()
	if old, err = p.loadValue(addr, t); err != nil {
		return old, upd, err
	}
	delta := int64(1)
	if op == "--" {
		delta = -1
	}
	switch {
	case t.IsPointer():
		upd = ptrValue(t, memory.Address(int64(old.bits)+delta*int64(t.Elem.SizeOf(p.Mach))))
	case t.IsFloat():
		sum := old.float64() + float64(delta)
		upd = value{t: t, bits: math.Float64bits(sum)}
		if t.Prim == arch.Float {
			upd.bits = uint64(math.Float32bits(float32(sum)))
		}
	case t.IsInteger():
		upd = value{t: t, bits: normInt(p.Mach, t.Prim, old.bits+uint64(delta))}
	default:
		return old, upd, rtErr(x.Position(), "cannot increment %s", t)
	}
	return old, upd, p.storeValue(addr, t, upd)
}

func (p *Process) evalUnary(f *Frame, x *minic.Unary) (value, error) {
	switch x.Op {
	case "&":
		addr, err := p.evalAddr(f, x.X)
		if err != nil {
			return value{}, err
		}
		return ptrValue(x.Type(), addr), nil

	case "*":
		addr, err := p.evalAddr(f, x)
		if err != nil {
			return value{}, err
		}
		return p.loadValue(addr, x.Type())

	case "-", "+":
		v, err := p.evalExpr(f, x.X)
		if err != nil {
			return value{}, err
		}
		v = p.convert(v, x.Type())
		if x.Op == "+" {
			return v, nil
		}
		t := x.Type()
		if t.IsFloat() {
			fv := -v.float64()
			if t.Prim == arch.Float {
				return value{t: t, bits: uint64(math.Float32bits(float32(fv)))}, nil
			}
			return value{t: t, bits: math.Float64bits(fv)}, nil
		}
		return value{t: t, bits: normInt(p.Mach, t.Prim, -v.bits)}, nil

	case "!":
		v, err := p.evalExpr(f, x.X)
		if err != nil {
			return value{}, err
		}
		if v.asBool() {
			return intValue(types.Int, 0), nil
		}
		return intValue(types.Int, 1), nil

	case "~":
		v, err := p.evalExpr(f, x.X)
		if err != nil {
			return value{}, err
		}
		v = p.convert(v, x.Type())
		return value{t: x.Type(), bits: normInt(p.Mach, x.Type().Prim, ^v.bits)}, nil

	case "++", "--":
		_, upd, err := p.incDec(f, x.X, x.Op)
		return upd, err
	}
	return value{}, rtErr(x.Position(), "internal: unhandled unary %s", x.Op)
}

func (p *Process) evalBinary(f *Frame, x *minic.Binary) (value, error) {
	// Short-circuit logicals.
	if x.Op == "&&" || x.Op == "||" {
		l, err := p.evalExpr(f, x.X)
		if err != nil {
			return value{}, err
		}
		lb := l.asBool()
		if (x.Op == "&&" && !lb) || (x.Op == "||" && lb) {
			if x.Op == "&&" {
				return intValue(types.Int, 0), nil
			}
			return intValue(types.Int, 1), nil
		}
		r, err := p.evalExpr(f, x.Y)
		if err != nil {
			return value{}, err
		}
		if r.asBool() {
			return intValue(types.Int, 1), nil
		}
		return intValue(types.Int, 0), nil
	}

	l, err := p.evalExpr(f, x.X)
	if err != nil {
		return value{}, err
	}
	r, err := p.evalExpr(f, x.Y)
	if err != nil {
		return value{}, err
	}
	rt := x.Type()
	if x.Conv != nil {
		rt = x.Conv
	}
	return p.applyBinary(x.Position(), x.Op, l, r, rt)
}

// applyBinary evaluates l op r at type rt: the result type of pointer
// arithmetic and of arithmetic (the operands' common type), the type an
// arithmetic comparison converts its operands to. Comparisons yield int.
func (p *Process) applyBinary(pos minic.Pos, op string, l, r value, rt *types.Type) (value, error) {
	lt, rtp := l.t, r.t

	// Pointer arithmetic and comparisons.
	if lt.IsPointer() || rtp.IsPointer() {
		switch op {
		case "+", "-":
			if lt.IsPointer() && rtp.IsPointer() {
				// ptr - ptr: element difference.
				es := int64(lt.Elem.SizeOf(p.Mach))
				diff := (int64(l.bits) - int64(r.bits)) / es
				return value{t: rt, bits: normInt(p.Mach, rt.Prim, uint64(diff))}, nil
			}
			pv, iv := l, r
			if rtp.IsPointer() {
				pv, iv = r, l
			}
			es := int64(pv.t.Elem.SizeOf(p.Mach))
			n := int64(iv.bits)
			if op == "-" {
				n = -n
			}
			return ptrValue(pv.t, memory.Address(int64(pv.bits)+n*es)), nil
		case "==", "!=", "<", "<=", ">", ">=":
			return compareBits(op, l.bits, r.bits, false), nil
		}
		return value{}, rtErr(pos, "invalid pointer operation %s", op)
	}

	lc, rc := p.convert(l, rt), p.convert(r, rt)
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		if rt.IsFloat() {
			return compareFloat(op, lc.float64(), rc.float64()), nil
		}
		return compareBits(op, lc.bits, rc.bits, rt.Prim.IsSigned()), nil
	}

	// Shifts: the result type is the promoted left operand.
	if op == "<<" || op == ">>" {
		sh := r.bits & 63
		var bits uint64
		if op == "<<" {
			bits = lc.bits << sh
		} else if rt.Prim.IsSigned() {
			bits = uint64(int64(lc.bits) >> sh)
		} else {
			bits = normInt(p.Mach, rt.Prim, lc.bits) >> sh
		}
		return value{t: rt, bits: normInt(p.Mach, rt.Prim, bits)}, nil
	}

	// Plain arithmetic at the result type.
	if rt.IsFloat() {
		a, b := lc.float64(), rc.float64()
		var res float64
		switch op {
		case "+":
			res = a + b
		case "-":
			res = a - b
		case "*":
			res = a * b
		case "/":
			res = a / b
		default:
			return value{}, rtErr(pos, "invalid floating operation %s", op)
		}
		if rt.Prim == arch.Float {
			return value{t: rt, bits: uint64(math.Float32bits(float32(res)))}, nil
		}
		return value{t: rt, bits: math.Float64bits(res)}, nil
	}

	a, b := lc.bits, rc.bits
	var bits uint64
	switch op {
	case "+":
		bits = a + b
	case "-":
		bits = a - b
	case "*":
		bits = a * b
	case "/", "%":
		if b == 0 {
			return value{}, rtErr(pos, "division by zero")
		}
		if rt.Prim.IsSigned() {
			q := int64(a) / int64(b)
			m := int64(a) % int64(b)
			if op == "/" {
				bits = uint64(q)
			} else {
				bits = uint64(m)
			}
		} else {
			// Compare at machine width for unsigned.
			aw := normInt(p.Mach, rt.Prim, a)
			bw := normInt(p.Mach, rt.Prim, b)
			if op == "/" {
				bits = aw / bw
			} else {
				bits = aw % bw
			}
		}
	case "&":
		bits = a & b
	case "|":
		bits = a | b
	case "^":
		bits = a ^ b
	default:
		return value{}, rtErr(pos, "invalid integer operation %s", op)
	}
	return value{t: rt, bits: normInt(p.Mach, rt.Prim, bits)}, nil
}

func compareBits(op string, a, b uint64, signed bool) value {
	var res bool
	if signed {
		sa, sb := int64(a), int64(b)
		switch op {
		case "==":
			res = sa == sb
		case "!=":
			res = sa != sb
		case "<":
			res = sa < sb
		case "<=":
			res = sa <= sb
		case ">":
			res = sa > sb
		case ">=":
			res = sa >= sb
		}
	} else {
		switch op {
		case "==":
			res = a == b
		case "!=":
			res = a != b
		case "<":
			res = a < b
		case "<=":
			res = a <= b
		case ">":
			res = a > b
		case ">=":
			res = a >= b
		}
	}
	if res {
		return intValue(types.Int, 1)
	}
	return intValue(types.Int, 0)
}

func compareFloat(op string, a, b float64) value {
	var res bool
	switch op {
	case "==":
		res = a == b
	case "!=":
		res = a != b
	case "<":
		res = a < b
	case "<=":
		res = a <= b
	case ">":
		res = a > b
	case ">=":
		res = a >= b
	}
	if res {
		return intValue(types.Int, 1)
	}
	return intValue(types.Int, 0)
}

func (p *Process) evalAssign(f *Frame, x *minic.Assign) (value, error) {
	addr, err := p.evalAddr(f, x.X)
	if err != nil {
		return value{}, err
	}
	lt := x.X.Type()
	rhs, err := p.evalExpr(f, x.Y)
	if err != nil {
		return value{}, err
	}
	var result value
	if x.Op == "=" {
		result = p.convert(rhs, lt)
	} else {
		old, err := p.loadValue(addr, lt)
		if err != nil {
			return value{}, err
		}
		// Arithmetic compound assignment computes at the checker's
		// common type, then converts back to the target type; pointer
		// compound assignment (p += n) keeps the pointer type.
		ct := x.Conv
		if ct == nil {
			ct = lt
		}
		v, err := p.applyBinary(x.Position(), x.Op[:len(x.Op)-1], old, rhs, ct)
		if err != nil {
			return value{}, err
		}
		result = p.convert(v, lt)
	}
	if err := p.storeValue(addr, lt, result); err != nil {
		return value{}, err
	}
	return result, nil
}

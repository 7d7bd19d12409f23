package vm

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/types"
)

// execStmt executes one statement in frame f.
func (p *Process) execStmt(f *Frame, s minic.Stmt) (ctrl, error) {
	p.Stats.Steps++
	if p.MaxSteps > 0 && p.Stats.Steps > p.MaxSteps {
		return ctrlNext, ErrStepLimit
	}
	if p.trace != nil {
		p.tracef("%s %s [%s]", s.Position(), stmtKind(s), f.Fn.Name)
	}
	switch st := s.(type) {
	case *minic.Block:
		return p.execBlockFrom(f, st, 0)

	case *minic.Empty:
		return ctrlNext, nil

	case *minic.DeclStmt:
		if st.Init != nil {
			v, err := p.evalExpr(f, st.Init)
			if err != nil {
				return ctrlNext, err
			}
			addr := p.VarAddr(f, st.Sym)
			if err := p.storeValue(addr, st.Sym.Type, p.convert(v, st.Sym.Type)); err != nil {
				return ctrlNext, err
			}
		}
		return ctrlNext, nil

	case *minic.ExprStmt:
		if st.Site != nil {
			f.curSite = st.Site
		}
		_, err := p.evalExpr(f, st.X)
		if err != nil {
			if _, ok := err.(*migrateSignal); ok {
				// Migration unwound through this call statement: the frame
				// stays stopped at it, and curSite stays set so a later
				// recapture (Recapture/CaptureSections) can record the site.
				return ctrlMigrate, nil
			}
		}
		f.curSite = nil
		return ctrlNext, err

	case *minic.If:
		c, err := p.evalExpr(f, st.Cond)
		if err != nil {
			return ctrlNext, err
		}
		if c.asBool() {
			return p.execStmt(f, st.Then)
		}
		if st.Else != nil {
			return p.execStmt(f, st.Else)
		}
		return ctrlNext, nil

	case *minic.While:
		if st.DoWhile {
			return p.runLoop(f, st.Cond, st.Body, nil, atBody)
		}
		return p.runLoop(f, st.Cond, st.Body, nil, atTest)

	case *minic.For:
		if st.Init != nil {
			if _, err := p.evalExpr(f, st.Init); err != nil {
				return ctrlNext, err
			}
		}
		return p.runLoop(f, st.Cond, st.Body, st.Post, atTest)

	case *minic.Return:
		if st.X != nil {
			v, err := p.evalExpr(f, st.X)
			if err != nil {
				return ctrlNext, err
			}
			f.retVal = p.convert(v, f.Fn.Result)
		}
		return ctrlReturn, nil

	case *minic.Break:
		return ctrlBreak, nil
	case *minic.Continue:
		return ctrlContinue, nil

	case *minic.PollPoint:
		if p.DisableMigration {
			return ctrlNext, nil
		}
		p.Stats.PollChecks++
		if p.PollHook != nil && p.PollHook(p, st.Site) {
			if p.NoAutoCapture {
				// Stop at the site without capturing; the process stays
				// live for delta captures and ResumeRun.
				if p.trace != nil {
					p.tracef("stopping at site %d", st.Site.ID)
				}
				p.lastSite = st.Site
				p.migrated = nil
				return ctrlMigrate, nil
			}
			if p.trace != nil {
				p.tracef("migrating at site %d", st.Site.ID)
			}
			state, err := obs.PhaseOf("collect", func() ([]byte, error) { return p.captureState(st.Site) })
			if err != nil {
				return ctrlNext, fmt.Errorf("vm: migration capture failed: %w", err)
			}
			p.migrated = state
			return ctrlMigrate, nil
		}
		return ctrlNext, nil
	}
	return ctrlNext, rtErr(s.Position(), "internal: unhandled statement %T", s)
}

// execBlockFrom executes a block's statements starting at index start.
func (p *Process) execBlockFrom(f *Frame, b *minic.Block, start int) (ctrl, error) {
	for i := start; i < len(b.Stmts); i++ {
		c, err := p.execStmt(f, b.Stmts[i])
		if err != nil {
			return ctrlNext, err
		}
		if c != ctrlNext {
			return c, nil
		}
	}
	return ctrlNext, nil
}

// loopEntry is where runLoop enters a loop's cycle of test, body and step.
type loopEntry uint8

const (
	atTest loopEntry = iota // a while or for loop entered afresh
	atBody                  // a do-while loop entered afresh
	atStep                  // any loop whose body just completed on resume
)

// runLoop iterates a while, do-while or for loop from entry. cond and post
// may be nil; post is a for loop's step expression, which runs before the
// test of every iteration but the first.
func (p *Process) runLoop(f *Frame, cond minic.Expr, body minic.Stmt, post minic.Expr, at loopEntry) (ctrl, error) {
	for ; ; at = atStep {
		if at == atStep && post != nil {
			if _, err := p.evalExpr(f, post); err != nil {
				return ctrlNext, err
			}
		}
		if at != atBody && cond != nil {
			c, err := p.evalExpr(f, cond)
			if err != nil || !c.asBool() {
				return ctrlNext, err
			}
		}
		c, err := p.execStmt(f, body)
		if c, more := loopGoesOn(c); err != nil || !more {
			return c, err
		}
	}
}

// loopGoesOn reports whether a loop iterates again after its body ended
// with c, and if not, what the loop statement itself ends with.
func loopGoesOn(c ctrl) (ctrl, bool) {
	switch c {
	case ctrlBreak:
		return ctrlNext, false
	case ctrlReturn, ctrlMigrate:
		return c, false
	}
	return ctrlNext, true
}

// migrateSignal propagates migration out of expression evaluation (a
// migratory callee triggered a capture while evaluating a call).
type migrateSignal struct{}

func (*migrateSignal) Error() string { return "vm: migration in progress" }

// evalCall dispatches builtin and user function calls.
func (p *Process) evalCall(f *Frame, x *minic.Call) (value, error) {
	if x.Builtin != "" {
		return p.evalBuiltin(f, x)
	}
	if x == p.resumedCall {
		// The call a resumed frame stopped at: its callee has run to the
		// end on resume, and this evaluation completes the statement.
		p.resumedCall = nil
		return p.resumedRet, nil
	}
	fn := x.Func
	// Evaluate arguments in the caller's frame.
	args := make([]value, len(x.Args))
	for i, a := range x.Args {
		v, err := p.evalExpr(f, a)
		if err != nil {
			return value{}, err
		}
		args[i] = v
	}
	p.Stats.Calls++
	if p.trace != nil {
		p.tracef("call %s", fn.Name)
	}
	nf, err := p.pushFrame(fn)
	if err != nil {
		return value{}, err
	}
	for i, pv := range fn.Params {
		addr := p.VarAddr(nf, pv)
		if err := p.storeValue(addr, pv.Type, p.convert(args[i], pv.Type)); err != nil {
			return value{}, err
		}
	}
	c, err := p.execStmt(nf, fn.Body)
	if err != nil {
		return value{}, err
	}
	if c == ctrlMigrate {
		// Leave the frames in place for the captured image; unwind via
		// the signal error so enclosing expressions stop evaluating.
		return value{}, &migrateSignal{}
	}
	return p.popReturn(nf)
}

// popReturn unwinds the completed frame f and returns its result.
func (p *Process) popReturn(f *Frame) (value, error) {
	if err := p.popFrame(); err != nil {
		return value{}, err
	}
	if f.Fn.Result.IsVoid() {
		return value{t: types.Void}, nil
	}
	return f.retVal, nil
}

// execResumeFrame fast-forwards frame f to its recorded site and continues
// execution to the end of the function. The caller pops the frame.
func (p *Process) execResumeFrame(f *Frame) (ctrl, error) {
	return p.execChain(f, p.resumeSites[f.Depth-1], 0)
}

// execChain descends the site's ancestor chain: statements before the
// chain element are skipped (their effects are part of the restored
// state); the chain element itself is entered; after it completes, the
// remainder executes normally.
func (p *Process) execChain(f *Frame, site *minic.Site, idx int) (ctrl, error) {
	if idx == len(site.Chain)-1 {
		if site.Call != nil {
			return p.resumeCallSite(f, site)
		}
		// Execution resumes immediately after the poll at which
		// migration occurred.
		return ctrlNext, nil
	}
	c, err := p.execChain(f, site, idx+1)
	switch st := site.Chain[idx].(type) {
	case *minic.Block:
		if err != nil || c != ctrlNext {
			return c, err
		}
		return p.execBlockFrom(f, st, slices.Index(st.Stmts, site.Chain[idx+1])+1)
	case *minic.While:
		if c, more := loopGoesOn(c); err != nil || !more {
			return c, err
		}
		return p.runLoop(f, st.Cond, st.Body, nil, atStep)
	case *minic.For:
		if c, more := loopGoesOn(c); err != nil || !more {
			return c, err
		}
		return p.runLoop(f, st.Cond, st.Body, st.Post, atStep)
	}
	// An if: the branch on the chain was taken before migration.
	return c, err
}

// resumeCallSite re-enters the callee frame of a migratory call statement
// and, when it returns, completes the statement by evaluating it: the
// evaluation's call to the callee yields the frame's result.
func (p *Process) resumeCallSite(f *Frame, site *minic.Site) (ctrl, error) {
	callee := p.frames[f.Depth] // the restore checked it is site.Call's
	f.curSite = site
	c, err := p.execResumeFrame(callee)
	if c == ctrlMigrate && err == nil {
		// Keep curSite: this frame is stopped at the call statement for
		// any recapture of the migrating process.
		return ctrlMigrate, nil
	}
	f.curSite = nil
	if err != nil {
		return ctrlNext, err
	}
	if p.resumedRet, err = p.popReturn(callee); err != nil {
		return ctrlNext, err
	}
	p.resumedCall = site.Call
	_, err = p.evalExpr(f, site.Stmt.(*minic.ExprStmt).X)
	return ctrlNext, err
}

// ---- builtins ----

func (p *Process) evalBuiltin(f *Frame, x *minic.Call) (value, error) {
	switch x.Builtin {
	case "malloc":
		return p.builtinMalloc(f, x)
	case "free":
		return p.builtinFree(f, x)
	case "printf":
		return p.builtinPrintf(f, x)
	case "rand":
		// glibc-style 48-bit LCG, truncated to 31 bits.
		p.rng = (p.rng*0x5deece66d + 0xb) & (1<<48 - 1)
		return intValue(types.Int, int64(p.rng>>17)&0x3fffffff), nil
	case "srand":
		v, err := p.evalExpr(f, x.Args[0])
		if err != nil {
			return value{}, err
		}
		p.rng = (v.bits << 16) | 0x330e
		return value{t: types.Void}, nil
	case "fabs":
		v, err := p.evalExpr(f, x.Args[0])
		if err != nil {
			return value{}, err
		}
		d := p.convert(v, types.Double)
		return value{t: types.Double, bits: math.Float64bits(math.Abs(d.float64()))}, nil
	case "sqrt":
		v, err := p.evalExpr(f, x.Args[0])
		if err != nil {
			return value{}, err
		}
		d := p.convert(v, types.Double)
		return value{t: types.Double, bits: math.Float64bits(math.Sqrt(d.float64()))}, nil
	case "exit":
		v, err := p.evalExpr(f, x.Args[0])
		if err != nil {
			return value{}, err
		}
		p.exitCode = int(int64(v.bits))
		return value{}, errExit
	case "clock_ms":
		ms := time.Since(p.start).Milliseconds()
		return value{t: types.Long, bits: normInt(p.Mach, types.Long.Prim, uint64(ms))}, nil
	}
	return value{}, rtErr(x.Position(), "internal: unknown builtin %s", x.Builtin)
}

func (p *Process) builtinMalloc(f *Frame, x *minic.Call) (value, error) {
	sz, err := p.evalExpr(f, x.Args[0])
	if err != nil {
		return value{}, err
	}
	n := int(int64(sz.bits))
	if n < 0 {
		return value{}, rtErr(x.Position(), "malloc of negative size %d", n)
	}
	elem := x.MallocElem
	if elem == nil {
		return value{}, rtErr(x.Position(), "malloc call has no inferred element type")
	}
	es := elem.SizeOf(p.Mach)
	if es == 0 || n%es != 0 {
		return value{}, rtErr(x.Position(), "malloc size %d is not a multiple of sizeof(%s) = %d", n, elem, es)
	}
	addr, err := p.Space.Malloc(n)
	if err != nil {
		return value{}, rtErr(x.Position(), "%v", err)
	}
	if !p.DisableMigration {
		b := &msr.Block{ID: p.Table.NextHeapID(), Addr: addr, Type: elem, Count: n / es}
		if err := p.Table.Register(b); err != nil {
			return value{}, err
		}
		p.Stats.MSRLTOps++
	}
	return ptrValue(x.Type(), addr), nil
}

func (p *Process) builtinFree(f *Frame, x *minic.Call) (value, error) {
	v, err := p.evalExpr(f, x.Args[0])
	if err != nil {
		return value{}, err
	}
	addr := v.addr()
	if addr == 0 {
		return value{t: types.Void}, nil // free(NULL) is a no-op
	}
	if !p.DisableMigration {
		if err := p.Table.Unregister(addr); err != nil {
			return value{}, rtErr(x.Position(), "free of address that is not a block base: %v", err)
		}
		p.Stats.MSRLTOps++
	}
	if err := p.Space.Free(addr); err != nil {
		return value{}, rtErr(x.Position(), "%v", err)
	}
	return value{t: types.Void}, nil
}

// builtinPrintf implements a useful subset of printf formatting.
func (p *Process) builtinPrintf(f *Frame, x *minic.Call) (value, error) {
	fv, err := p.evalExpr(f, x.Args[0])
	if err != nil {
		return value{}, err
	}
	format, err := p.readCString(fv.addr())
	if err != nil {
		return value{}, rtErr(x.Position(), "printf format: %v", err)
	}
	args := make([]value, 0, len(x.Args)-1)
	for _, a := range x.Args[1:] {
		v, err := p.evalExpr(f, a)
		if err != nil {
			return value{}, err
		}
		args = append(args, v)
	}
	out, err := p.formatPrintf(x.Position(), format, args)
	if err != nil {
		return value{}, err
	}
	fmt.Fprint(p.Stdout, out)
	return intValue(types.Int, int64(len(out))), nil
}

// readCString reads a NUL-terminated string from the space.
func (p *Process) readCString(addr memory.Address) (string, error) {
	if addr == 0 {
		return "", fmt.Errorf("null string")
	}
	var out []byte
	for i := 0; i < 1<<20; i++ {
		b, err := p.Space.Bytes(addr+memory.Address(i), 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return "", fmt.Errorf("unterminated string")
}

// formatPrintf expands a C format string against evaluated arguments.
func (p *Process) formatPrintf(pos minic.Pos, format string, args []value) (string, error) {
	var out []byte
	ai := 0
	nextArg := func() (value, error) {
		if ai >= len(args) {
			return value{}, rtErr(pos, "printf: too few arguments for format %q", format)
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		// Collect flags/width/precision verbatim; strip length
		// modifiers (l, ll) which Go's fmt does not use.
		spec := []byte{'%'}
		for i < len(format) {
			ch := format[i]
			if ch == 'l' || ch == 'h' {
				i++
				continue
			}
			spec = append(spec, ch)
			if (ch >= 'a' && ch <= 'z') || ch == '%' || (ch >= 'A' && ch <= 'Z') {
				break
			}
			i++
		}
		verb := spec[len(spec)-1]
		switch verb {
		case '%':
			out = append(out, '%')
		case 'd', 'i':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			spec[len(spec)-1] = 'd'
			out = append(out, fmt.Sprintf(string(spec), int64(v.bits))...)
		case 'u', 'x', 'X', 'o':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			if verb == 'u' {
				spec[len(spec)-1] = 'd'
			}
			out = append(out, fmt.Sprintf(string(spec), v.bits)...)
		case 'c':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, byte(v.bits))
		case 'f', 'e', 'E', 'g', 'G':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, fmt.Sprintf(string(spec), v.float64())...)
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			s, err := p.readCString(v.addr())
			if err != nil {
				return "", rtErr(pos, "printf %%s: %v", err)
			}
			out = append(out, fmt.Sprintf(string(spec), s)...)
		case 'p':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, fmt.Sprintf("0x%x", v.bits)...)
		default:
			return "", rtErr(pos, "printf: unsupported conversion %%%c", verb)
		}
	}
	return string(out), nil
}

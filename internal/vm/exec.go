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
			_, err := f.l.code[st.ID].x(f)
			return ctrlNext, err
		}
		return ctrlNext, nil

	case *minic.ExprStmt:
		if st.Site != nil {
			f.curSite = st.Site
		}
		_, err := f.l.code[st.ID].x(f)
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
		ok, err := f.l.code[st.ID].cond(f)
		if err != nil {
			return ctrlNext, err
		}
		if ok {
			return p.execStmt(f, st.Then)
		}
		if st.Else != nil {
			return p.execStmt(f, st.Else)
		}
		return ctrlNext, nil

	case *minic.While:
		if st.DoWhile {
			return p.runLoop(f, f.l.code[st.ID].cond, st.Body, nil, atBody)
		}
		return p.runLoop(f, f.l.code[st.ID].cond, st.Body, nil, atTest)

	case *minic.For:
		sc := &f.l.code[st.ID]
		if sc.x != nil {
			if _, err := sc.x(f); err != nil {
				return ctrlNext, err
			}
		}
		return p.runLoop(f, sc.cond, st.Body, sc.post, atTest)

	case *minic.Return:
		if st.X != nil {
			v, err := f.l.code[st.ID].x(f)
			if err != nil {
				return ctrlNext, err
			}
			f.retVal = v
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
func (p *Process) runLoop(f *Frame, cond test, body minic.Stmt, post expr, at loopEntry) (ctrl, error) {
	for ; ; at = atStep {
		if at == atStep && post != nil {
			if _, err := post(f); err != nil {
				return ctrlNext, err
			}
		}
		if at != atBody && cond != nil {
			ok, err := cond(f)
			if err != nil || !ok {
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

// call compiles a call: a builtin, or a user function whose arguments are
// evaluated in the caller's frame, converted to the parameter types, and
// stored into the callee's new frame.
func (c *compiler) call(x *minic.Call) expr {
	if x.Builtin != "" {
		return c.builtin(x)
	}
	p, fn := c.p, x.Func
	offs := p.layout(fn).offsets
	args := make([]expr, len(x.Args))
	stores := make([]func(memory.Address, uint64) error, len(x.Args))
	for i, pv := range fn.Params {
		args[i], stores[i] = c.convOf(x.Args[i], pv.Type), c.storer(pv.Type)
	}
	return func(f *Frame) (uint64, error) {
		if x == p.resumedCall {
			// The call a resumed frame stopped at: its callee has run to
			// the end on resume, and this evaluation completes the
			// statement.
			p.resumedCall = nil
			return p.resumedRet, nil
		}
		base, err := p.pushArgs(f, args)
		if err != nil {
			return 0, err
		}
		p.Stats.Calls++
		if p.trace != nil {
			p.tracef("call %s", fn.Name)
		}
		nf, err := p.pushFrame(fn)
		for i := 0; i < len(stores) && err == nil; i++ {
			err = stores[i](nf.Base+memory.Address(offs[fn.Params[i].Index]), p.args[base+i])
		}
		p.args = p.args[:base]
		if err != nil {
			return 0, err
		}
		p.enter(nf)
		ctl, err := p.execStmt(nf, fn.Body)
		if err != nil {
			return 0, err
		}
		if ctl == ctrlMigrate {
			// Leave the frames in place for the captured image; unwind
			// via the signal error so enclosing expressions stop
			// evaluating.
			return 0, &migrateSignal{}
		}
		return p.popReturn(nf)
	}
}

// pushArgs evaluates args in frame f onto the process's argument stack,
// from base up; the caller pops them. Nested calls push above.
func (p *Process) pushArgs(f *Frame, args []expr) (base int, err error) {
	base = len(p.args)
	for _, a := range args {
		v, err := a(f)
		if err != nil {
			p.args = p.args[:base]
			return base, err
		}
		p.args = append(p.args, v)
	}
	return base, nil
}

// enter readies frame f to run: its function's code is compiled on the
// process's first run of the function.
func (p *Process) enter(f *Frame) {
	if f.l.code == nil {
		f.l.code = p.compileFunc(f.Fn, f.l)
	}
}

// popReturn unwinds the completed frame f and returns its result.
func (p *Process) popReturn(f *Frame) (uint64, error) {
	if err := p.popFrame(); err != nil {
		return 0, err
	}
	if f.Fn.Result.IsVoid() {
		return 0, nil
	}
	return f.retVal, nil
}

// execResumeFrame fast-forwards frame f to its recorded site and continues
// execution to the end of the function. The caller pops the frame.
func (p *Process) execResumeFrame(f *Frame) (ctrl, error) {
	p.enter(f)
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
		return p.runLoop(f, f.l.code[st.ID].cond, st.Body, nil, atStep)
	case *minic.For:
		if c, more := loopGoesOn(c); err != nil || !more {
			return c, err
		}
		return p.runLoop(f, f.l.code[st.ID].cond, st.Body, f.l.code[st.ID].post, atStep)
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
	_, err = f.l.code[site.Stmt.(*minic.ExprStmt).ID].x(f)
	return ctrlNext, err
}

// ---- builtins ----

// builtin compiles a call of a runtime builtin. Its arguments are the
// values of their expressions, unconverted but where a builtin converts.
func (c *compiler) builtin(x *minic.Call) expr {
	p, pos := c.p, x.Position()
	var arg expr
	if len(x.Args) > 0 {
		arg = c.expr(x.Args[0])
	}
	switch x.Builtin {
	case "malloc":
		return withArg(arg, func(n uint64) (uint64, error) { return p.malloc(pos, x.MallocElem, int(int64(n))) })
	case "free":
		return withArg(arg, func(a uint64) (uint64, error) { return 0, p.free(pos, memory.Address(a)) })
	case "printf":
		return c.printf(x, arg)
	case "rand":
		return func(*Frame) (uint64, error) {
			// glibc-style 48-bit LCG, truncated to 31 bits.
			p.rng = (p.rng*0x5deece66d + 0xb) & (1<<48 - 1)
			return p.rng >> 17 & 0x3fffffff, nil
		}
	case "srand":
		return withArg(arg, func(v uint64) (uint64, error) {
			p.rng = v<<16 | 0x330e
			return 0, nil
		})
	case "fabs", "sqrt":
		op, d := math.Abs, c.convOf(x.Args[0], types.Double)
		if x.Builtin == "sqrt" {
			op = math.Sqrt
		}
		return wrap(d, func(v uint64) uint64 { return math.Float64bits(op(math.Float64frombits(v))) })
	case "exit":
		return withArg(arg, func(v uint64) (uint64, error) {
			p.exitCode = int(int64(v))
			return 0, errExit
		})
	case "clock_ms":
		w := c.width(types.Long)
		return func(*Frame) (uint64, error) { return w.norm(uint64(time.Since(p.start).Milliseconds())), nil }
	}
	return func(*Frame) (uint64, error) { return 0, rtErr(pos, "internal: unknown builtin %s", x.Builtin) }
}

// withArg applies op to the value of arg.
func withArg(arg expr, op func(uint64) (uint64, error)) expr {
	return func(f *Frame) (uint64, error) {
		v, err := arg(f)
		if err != nil {
			return 0, err
		}
		return op(v)
	}
}

func (p *Process) malloc(pos minic.Pos, elem *types.Type, n int) (uint64, error) {
	if n < 0 {
		return 0, rtErr(pos, "malloc of negative size %d", n)
	}
	if elem == nil {
		return 0, rtErr(pos, "malloc call has no inferred element type")
	}
	es := elem.SizeOf(p.Mach)
	if es == 0 || n%es != 0 {
		return 0, rtErr(pos, "malloc size %d is not a multiple of sizeof(%s) = %d", n, elem, es)
	}
	addr, err := p.Space.Malloc(n)
	if err != nil {
		return 0, rtErr(pos, "%v", err)
	}
	if !p.DisableMigration {
		b := &msr.Block{ID: p.Table.NextHeapID(), Addr: addr, Type: elem, Count: n / es}
		if err := p.Table.Register(b); err != nil {
			return 0, err
		}
		p.Stats.MSRLTOps++
	}
	return uint64(addr), nil
}

func (p *Process) free(pos minic.Pos, addr memory.Address) error {
	if addr == 0 {
		return nil // free(NULL) is a no-op
	}
	if !p.DisableMigration {
		if err := p.Table.Unregister(addr); err != nil {
			return rtErr(pos, "free of address that is not a block base: %v", err)
		}
		p.Stats.MSRLTOps++
	}
	if err := p.Space.Free(addr); err != nil {
		return rtErr(pos, "%v", err)
	}
	return nil
}

// printf compiles a printf call: a useful subset of printf formatting.
func (c *compiler) printf(x *minic.Call, format expr) expr {
	p, pos := c.p, x.Position()
	args := make([]expr, len(x.Args)-1)
	ts := make([]*types.Type, len(args))
	for i, a := range x.Args[1:] {
		args[i], ts[i] = c.expr(a), a.Type()
	}
	return func(f *Frame) (uint64, error) {
		fa, err := format(f)
		if err != nil {
			return 0, err
		}
		s, err := p.readCString(memory.Address(fa))
		if err != nil {
			return 0, rtErr(pos, "printf format: %v", err)
		}
		base, err := p.pushArgs(f, args)
		if err != nil {
			return 0, err
		}
		out, err := p.formatPrintf(pos, s, p.args[base:], ts)
		p.args = p.args[:base]
		if err != nil {
			return 0, err
		}
		fmt.Fprint(p.Stdout, out)
		return uint64(len(out)), nil
	}
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

// formatPrintf expands a C format string against evaluated arguments of
// types ts.
func (p *Process) formatPrintf(pos minic.Pos, format string, args []uint64, ts []*types.Type) (string, error) {
	var out []byte
	ai := 0
	var t *types.Type
	nextArg := func() (uint64, error) {
		if ai >= len(args) {
			return 0, rtErr(pos, "printf: too few arguments for format %q", format)
		}
		v := args[ai]
		t = ts[ai]
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
			out = append(out, fmt.Sprintf(string(spec), int64(v))...)
		case 'u', 'x', 'X', 'o':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			if verb == 'u' {
				spec[len(spec)-1] = 'd'
			}
			out = append(out, fmt.Sprintf(string(spec), v)...)
		case 'c':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, byte(v))
		case 'f', 'e', 'E', 'g', 'G':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, fmt.Sprintf(string(spec), asFloat(t, v))...)
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			s, err := p.readCString(memory.Address(v))
			if err != nil {
				return "", rtErr(pos, "printf %%s: %v", err)
			}
			out = append(out, fmt.Sprintf(string(spec), s)...)
		case 'p':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			out = append(out, fmt.Sprintf("0x%x", v)...)
		default:
			return "", rtErr(pos, "printf: unsupported conversion %%%c", verb)
		}
	}
	return string(out), nil
}

package vm

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/types"
)

// stmt is a compiled statement: it runs in frame f and yields how control
// leaves it.
type stmt func(f *Frame) (ctrl, error)

// funcCode is a function's code, compiled for one process.
type funcCode struct {
	body stmt
	// resume[id] continues a frame stopped at the site with that ID (IDs
	// start at 1): it completes the site and runs the rest of the body.
	resume []stmt
}

// loop is a compiled while, do-while or for loop; cond and post may be nil.
// post is a for loop's step, which runs before the test of every iteration
// but the first.
type loop struct {
	cond test
	body stmt
	post expr
}

// jump is a statement that transfers control by c.
func jump(c ctrl) stmt { return func(*Frame) (ctrl, error) { return c, nil } }

var next = jump(ctrlNext)

// compileFunc compiles fn's statements, with their expressions, in one
// walk, and then the resume entry of each of its sites.
func (p *Process) compileFunc(fn *minic.FuncSymbol, l *frameLayout) *funcCode {
	c := &compiler{p: p, m: p.Mach, sp: p.Space, fn: fn, offs: l.offsets, parts: map[minic.Stmt]any{}}
	code := &funcCode{body: c.stmt(fn.Body), resume: make([]stmt, len(fn.Sites)+1)}
	for _, site := range fn.Sites {
		code.resume[site.ID] = c.resumeEntry(site)
	}
	return code
}

// stmt compiles s inside the wrapper every statement runs in: it counts
// the step, stops at the step limit and writes the trace line.
func (c *compiler) stmt(s minic.Stmt) stmt {
	run, p := c.bare(s), c.p
	return func(f *Frame) (ctrl, error) {
		p.Stats.Steps++
		if p.MaxSteps > 0 && p.Stats.Steps > p.MaxSteps {
			return ctrlNext, ErrStepLimit
		}
		if p.trace != nil {
			p.tracef("%s %s [%s]", s.Position(), stmtKind(s), f.Fn.Name)
		}
		return run(f)
	}
}

// bare compiles what s does, without the wrapper.
func (c *compiler) bare(s minic.Stmt) stmt {
	switch st := s.(type) {
	case *minic.Block:
		code := make([]stmt, len(st.Stmts))
		for i, sub := range st.Stmts {
			code[i] = c.stmt(sub)
		}
		c.parts[st] = code
		return func(f *Frame) (ctrl, error) { return runBlock(f, code) }

	case *minic.DeclStmt:
		if st.Init == nil {
			return next
		}
		pl := place{frame: true, off: memory.Address(c.offs[st.Sym.Index])}
		return effect(c.assign(pl, st.Sym.Type, c.convOf(st.Init, st.Sym.Type), nil))

	case *minic.ExprStmt:
		x := c.expr(st.X)
		if st.Site == nil {
			return effect(x)
		}
		c.parts[st] = x
		site := st.Site
		return func(f *Frame) (ctrl, error) {
			f.curSite = site
			_, err := x(f)
			if _, ok := err.(*migrateSignal); ok {
				// Migration unwound through this call statement: the frame
				// stays stopped at it, and curSite stays set so a later
				// recapture (Recapture/CaptureSections) can record the site.
				return ctrlMigrate, nil
			}
			f.curSite = nil
			return ctrlNext, err
		}

	case *minic.If:
		cond, then, els := c.test(st.Cond), c.stmt(st.Then), next
		if st.Else != nil {
			els = c.stmt(st.Else)
		}
		return func(f *Frame) (ctrl, error) {
			ok, err := cond(f)
			switch {
			case err != nil:
				return ctrlNext, err
			case ok:
				return then(f)
			}
			return els(f)
		}

	case *minic.While:
		l, at := &loop{cond: c.test(st.Cond), body: c.stmt(st.Body)}, atTest
		if st.DoWhile {
			at = atBody
		}
		c.parts[st] = l
		return func(f *Frame) (ctrl, error) { return runLoop(f, l, at) }

	case *minic.For:
		init, l := konst(0), &loop{}
		if st.Init != nil {
			init = c.expr(st.Init)
		}
		if st.Cond != nil {
			l.cond = c.test(st.Cond)
		}
		if st.Post != nil {
			l.post = c.expr(st.Post)
		}
		l.body = c.stmt(st.Body)
		c.parts[st] = l
		return func(f *Frame) (ctrl, error) {
			if _, err := init(f); err != nil {
				return ctrlNext, err
			}
			return runLoop(f, l, atTest)
		}

	case *minic.Return:
		if st.X == nil {
			return jump(ctrlReturn)
		}
		x := c.convOf(st.X, c.fn.Result)
		return func(f *Frame) (ctrl, error) {
			v, err := x(f)
			if err != nil {
				return ctrlNext, err
			}
			f.retVal = v
			return ctrlReturn, nil
		}

	case *minic.Break:
		return jump(ctrlBreak)
	case *minic.Continue:
		return jump(ctrlContinue)
	case *minic.Empty:
		return next

	case *minic.PollPoint:
		p, site := c.p, st.Site
		return func(*Frame) (ctrl, error) { return p.poll(site) }
	}
	pos := s.Position()
	return func(*Frame) (ctrl, error) { return ctrlNext, rtErr(pos, "internal: unhandled statement %T", s) }
}

// effect is a statement that evaluates x for its effect.
func effect(x expr) stmt {
	return func(f *Frame) (ctrl, error) {
		_, err := x(f)
		return ctrlNext, err
	}
}

// poll is the check of a poll point at site: when the hook grants a
// migration, the process stops there, ready to be captured or resumed.
func (p *Process) poll(site *minic.Site) (ctrl, error) {
	if p.DisableMigration {
		return ctrlNext, nil
	}
	p.Stats.PollChecks++
	if p.PollHook == nil || !p.PollHook(p, site) {
		return ctrlNext, nil
	}
	p.lastSite = site
	if p.trace != nil {
		p.tracef("stopping at site %d", site.ID)
	}
	return ctrlMigrate, nil
}

// runBlock runs compiled statements in order until one transfers control.
func runBlock(f *Frame, code []stmt) (ctrl, error) {
	for _, s := range code {
		if c, err := s(f); err != nil || c != ctrlNext {
			return c, err
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

// runLoop iterates the loop l from entry.
func runLoop(f *Frame, l *loop, at loopEntry) (ctrl, error) {
	for ; ; at = atStep {
		if at == atStep && l.post != nil {
			if _, err := l.post(f); err != nil {
				return ctrlNext, err
			}
		}
		if at != atBody && l.cond != nil {
			ok, err := l.cond(f)
			if err != nil || !ok {
				return ctrlNext, err
			}
		}
		c, err := l.body(f)
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

// resumeEntry compiles the entry a frame stopped at site resumes through.
// Its innermost step completes the site: a call site re-enters its callee
// frame, and a poll has nothing left to do. Each statement enclosing the
// site on its chain, innermost first, wraps that step with what follows it
// there: a block runs its remaining statements, a loop iterates on from its
// step, and an if passes through, its branch taken before the stop.
// Statements before the site are not re-run: their effects are part of the
// restored state.
func (c *compiler) resumeEntry(site *minic.Site) stmt {
	k := next
	if site.Call != nil {
		p, x := c.p, c.parts[site.Stmt].(expr)
		k = func(f *Frame) (ctrl, error) { return p.resumeCallSite(f, site, x) }
	}
	for i := len(site.Chain) - 2; i >= 0; i-- {
		inner := k
		switch code := c.parts[site.Chain[i]].(type) {
		case []stmt:
			rest := code[slices.Index(site.Chain[i].(*minic.Block).Stmts, site.Chain[i+1])+1:]
			k = func(f *Frame) (ctrl, error) {
				ct, err := inner(f)
				if err != nil || ct != ctrlNext {
					return ct, err
				}
				return runBlock(f, rest)
			}
		case *loop:
			k = func(f *Frame) (ctrl, error) {
				ct, err := inner(f)
				if ct, more := loopGoesOn(ct); err != nil || !more {
					return ct, err
				}
				return runLoop(f, code, atStep)
			}
		}
	}
	return k
}

// migrateSignal propagates migration out of expression evaluation (a
// migratory callee stopped at a poll while evaluating a call).
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
	stores := make([]func(f *Frame, a, v uint64) error, len(x.Args))
	for i, pv := range fn.Params {
		pl := place{frame: true, off: memory.Address(offs[pv.Index])}
		args[i], stores[i] = c.convOf(x.Args[i], pv.Type), c.storer(c.access(pl, pv.Type), pv.Type)
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
			err = stores[i](nf, 0, p.args[base+i])
		}
		p.args = p.args[:base]
		if err != nil {
			return 0, err
		}
		ctl, err := p.enter(nf).body(nf)
		if err != nil {
			return 0, err
		}
		if ctl == ctrlMigrate {
			// Leave the frames in place for the stopped image; unwind
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

// enter readies frame f to run and returns its function's code, which is
// compiled on the process's first run of the function.
func (p *Process) enter(f *Frame) *funcCode {
	if f.l.code == nil {
		f.l.code = p.compileFunc(f.Fn, f.l)
	}
	return f.l.code
}

// popReturn unwinds the completed innermost frame f, unregistering its
// locals when a stop registered them, and returns its result (0 from a
// void function, which sets none).
func (p *Process) popReturn(f *Frame) (uint64, error) {
	if f.Depth <= p.synced {
		p.synced--
		for _, off := range f.l.offsets {
			if err := p.Table.Unregister(f.Base + memory.Address(off)); err != nil {
				return 0, err
			}
		}
		p.Stats.MSRLTOps += int64(len(f.l.offsets))
	}
	p.frames = p.frames[:len(p.frames)-1]
	return f.retVal, p.Space.PopFrame()
}

// resumeFrame continues frame f from the site it is stopped at to the end
// of its function. The caller pops the frame.
func (p *Process) resumeFrame(f *Frame) (ctrl, error) {
	return p.enter(f).resume[p.resumeSites[f.Depth-1].ID](f)
}

// resumeCallSite re-enters the callee frame of a migratory call statement
// and, when it returns, completes the statement by evaluating x, its
// expression: the evaluation's call to the callee yields the frame's
// result.
func (p *Process) resumeCallSite(f *Frame, site *minic.Site, x expr) (ctrl, error) {
	callee := p.frames[f.Depth] // the restore checked it is site.Call's
	f.curSite = site
	c, err := p.resumeFrame(callee)
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
	_, err = x(f)
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
		switch {
		case verb == '%':
			out = append(out, '%')
			continue
		case !strings.ContainsRune("diuxXocfeEgGsp", rune(verb)):
			return "", rtErr(pos, "printf: unsupported conversion %%%c", verb)
		case ai >= len(args):
			return "", rtErr(pos, "printf: too few arguments for format %q", format)
		}
		v, t := args[ai], ts[ai]
		ai++
		switch verb {
		case 'd', 'i':
			spec[len(spec)-1] = 'd'
			out = fmt.Appendf(out, string(spec), int64(v))
		case 'u', 'x', 'X', 'o':
			if verb == 'u' {
				spec[len(spec)-1] = 'd'
			}
			out = fmt.Appendf(out, string(spec), v)
		case 'c':
			out = append(out, byte(v))
		case 'f', 'e', 'E', 'g', 'G':
			out = fmt.Appendf(out, string(spec), asFloat(t, v))
		case 's':
			s, err := p.readCString(memory.Address(v))
			if err != nil {
				return "", rtErr(pos, "printf %%s: %v", err)
			}
			out = fmt.Appendf(out, string(spec), s)
		case 'p':
			out = fmt.Appendf(out, "0x%x", v)
		}
	}
	return string(out), nil
}

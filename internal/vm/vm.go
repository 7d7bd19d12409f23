// Package vm executes checked MigC programs against a simulated process
// address space laid out for a specific machine.
//
// The VM is the "process" of the reproduction: globals live in the global
// segment, each function invocation pushes a frame of local variable blocks
// onto the stack segment, and malloc allocates typed blocks on the heap —
// all registered in the MSRLT exactly as the paper's annotated C processes
// maintain it at run time. Poll-points compiled into the program invoke a
// hook; when the hook requests migration, the process stops at the poll
// point. A migration session then captures its execution state (the chain
// of active functions and their migration sites) and memory state (live
// data collected through the MSRM library) into a machine-independent
// stream, and a fresh VM on any other machine restores the stream and
// resumes execution from the migration point — including inside nested
// function calls.
package vm

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/types"
)

// ctrl is the control-flow signal of statement execution.
type ctrl uint8

const (
	ctrlNext ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
	ctrlMigrate
)

// RuntimeError is an error raised by program execution, with position.
type RuntimeError struct {
	Pos minic.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg) }

func rtErr(pos minic.Pos, format string, args ...interface{}) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// errExit is the internal unwinding signal of the exit() builtin.
var errExit = errors.New("vm: exit")

// ErrStepLimit is returned when execution exceeds MaxSteps.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// Stats counts run-time activity relevant to the overhead analysis.
type Stats struct {
	// Steps counts executed statements.
	Steps int64
	// PollChecks counts poll-point evaluations — the "is a migration
	// request pending" checks of the inserted macros.
	PollChecks int64
	// Calls counts user function invocations.
	Calls int64
	// MSRLTOps counts MSRLT register/unregister operations performed for
	// frames and heap blocks.
	MSRLTOps int64
}

// Frame is one active function invocation.
type Frame struct {
	Fn   *minic.FuncSymbol
	Base memory.Address
	// Depth is 1 for the outermost frame (main).
	Depth int
	// curSite is the migration site of the call statement currently
	// executing in this frame, when that call is to a migratory
	// function.
	curSite *minic.Site

	l      *frameLayout
	retVal uint64
	// view is the frame's [Base, Base+size), which compiled code reads and
	// writes its locals through.
	view memory.View
}

// frameLayout is the per-machine layout of a function's frame, and the
// function's code once the process has run it.
type frameLayout struct {
	offsets []int
	size    int
	code    *funcCode
}

// Process is a runnable MigC process image.
type Process struct {
	Prog  *minic.Program
	Mach  *arch.Machine
	Space *memory.Space
	Table *msr.Table
	TI    *types.TI

	// PollHook is consulted at every poll-point; returning true stops
	// the process there for migration. A nil hook never migrates.
	PollHook func(p *Process, site *minic.Site) bool

	// DisableMigration runs the program "unannotated": poll-points and
	// MSRLT maintenance are skipped. This is the baseline of the
	// paper's Section 4.3 overhead comparison. A disabled process
	// cannot migrate.
	DisableMigration bool

	// NoAutoCapture is inert: nothing reads it. A granted poll request
	// always stops the process at its site, where it can be captured with
	// Recapture, Sections or a live Round, or continued with ResumeRun.
	// The field stays only because bench/program.go, which no ordinary
	// change may edit, assigns it.
	NoAutoCapture bool

	// Stdout receives printf output; defaults to io.Discard.
	Stdout io.Writer

	// MaxSteps aborts runaway programs (0 = unlimited).
	MaxSteps int64

	// RestoreWorkers is inert: nothing reads it. It was the width of the
	// heap-section restore pool, which is gone, and stays only because
	// bench/program.go, which no ordinary change may edit, assigns it.
	RestoreWorkers int

	// Obs, when set, receives one child span per capture/restore phase
	// (partition, encode, per-section work). Nil disables tracing at the
	// cost of a nil-check — the default.
	Obs *obs.Span

	// trace, when set via TraceTo, receives one line per executed
	// statement and per call/return/migration event.
	trace io.Writer

	Stats Stats

	// capture is the delta capture every Round draws from; nil
	// before the first and after a discard.
	capture *LiveCapture
	// forked is what Restore.Fork left in this process for its first
	// NewRestore to start from; the zero value holds nothing.
	forked Restore

	captureStats   StateStats
	restoreStats   collect.RestoreStats
	restoreElapsed time.Duration

	globalAddrs []memory.Address
	frames      []*Frame
	layouts     map[*minic.FuncSymbol]*frameLayout

	// rng is the state of the rand() builtin, a classic 48-bit LCG.
	// Like the libc state in the paper's prototype, it is run-time
	// library state, not program memory, and is not migrated.
	rng uint64

	start time.Time

	// resumeSites is non-nil while fast-forwarding after a restore:
	// resumeSites[d] is the site frame depth d+1 is stopped at.
	resumeSites []*minic.Site
	// resumedCall, while a resumed frame completes the call statement it
	// was stopped at, is that statement's call, and resumedRet the result
	// of the callee frame that ran to its end on resume.
	resumedCall *minic.Call
	resumedRet  uint64
	// args is the stack calls evaluate their arguments onto.
	args []uint64

	// lastSite is the poll site of the most recent capture (Recapture).
	lastSite *minic.Site

	// exit code after the program ends.
	exitCode int
}

// NewProcess lays out a process image for the program on machine m:
// global blocks are allocated and registered, and string literal contents
// initialized. The program counter is before main.
func NewProcess(prog *minic.Program, m *arch.Machine) (*Process, error) {
	p := &Process{
		Prog:    prog,
		Mach:    m,
		Space:   memory.NewSpace(m),
		Table:   msr.NewTable(),
		TI:      prog.TI,
		Stdout:  io.Discard,
		layouts: map[*minic.FuncSymbol]*frameLayout{},
		rng:     0x330e, // srand(0) equivalent seed
		start:   time.Now(),
	}
	for _, g := range prog.Globals {
		addr, err := p.Space.GlobalAlloc(g.Type.SizeOf(m), g.Type.AlignOf(m))
		if err != nil {
			return nil, err
		}
		p.globalAddrs = append(p.globalAddrs, addr)
		if err := p.register(msr.BlockID{Seg: memory.Global, Minor: uint32(g.Index)}, addr, g.Type, g.Name); err != nil {
			return nil, err
		}
		if g.Str != "" {
			if err := p.Space.WriteBytes(addr, append([]byte(g.Str), 0)); err != nil {
				return nil, err
			}
		}
		if g.Init != nil {
			// A constant initializer, evaluated at this machine's
			// arithmetic as the same expression in a function would be.
			c := &compiler{p: p, m: m, sp: p.Space}
			if _, err := c.assign(place{off: addr}, g.Type, c.convOf(g.Init, g.Type), nil)(nil); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// GlobalByName returns the address and symbol of the named global.
func (p *Process) GlobalByName(name string) (memory.Address, *minic.VarSymbol, bool) {
	for _, g := range p.Prog.Globals {
		if g.Name == name {
			return p.globalAddrs[g.Index], g, true
		}
	}
	return 0, nil, false
}

// layout computes (and caches) the frame layout of fn on this machine.
func (p *Process) layout(fn *minic.FuncSymbol) *frameLayout {
	if l, ok := p.layouts[fn]; ok {
		return l
	}
	l := &frameLayout{offsets: make([]int, len(fn.Locals))}
	off := 0
	for i, v := range fn.Locals {
		off = arch.Align(off, v.Type.AlignOf(p.Mach))
		l.offsets[i] = off
		off += v.Type.SizeOf(p.Mach)
	}
	l.size = off
	p.layouts[fn] = l
	return l
}

// VarAddr returns the address of a variable in the given frame (or of a
// global when the symbol is global).
func (p *Process) VarAddr(f *Frame, sym *minic.VarSymbol) memory.Address {
	if sym.Kind == minic.GlobalVar {
		return p.globalAddrs[sym.Index]
	}
	return f.Base + memory.Address(f.l.offsets[sym.Index])
}

// pushFrame creates and registers the frame for fn at the next depth.
func (p *Process) pushFrame(fn *minic.FuncSymbol) (*Frame, error) {
	l := p.layout(fn)
	base, err := p.Space.PushFrame(l.size)
	if err != nil {
		return nil, err
	}
	f := &Frame{Fn: fn, Base: base, Depth: len(p.frames) + 1, l: l, view: p.Space.TopFrame()}
	p.frames = append(p.frames, f)
	if !p.DisableMigration {
		for i, v := range fn.Locals {
			id := msr.BlockID{Seg: memory.Stack, Major: uint32(f.Depth), Minor: uint32(i)}
			if err := p.register(id, f.Base+memory.Address(l.offsets[i]), v.Type, v.Name); err != nil {
				return nil, err
			}
			p.Stats.MSRLTOps++
		}
	}
	return f, nil
}

// register enters the variable name, of type t at addr, in the MSRLT as
// block id.
func (p *Process) register(id msr.BlockID, addr memory.Address, t *types.Type, name string) error {
	return p.Table.Register(&msr.Block{ID: id, Addr: addr, Type: t, Count: 1, Name: name})
}

// popFrame unwinds the innermost frame.
func (p *Process) popFrame() error {
	f := p.frames[len(p.frames)-1]
	if !p.DisableMigration {
		for i := len(f.Fn.Locals) - 1; i >= 0; i-- {
			addr := f.Base + memory.Address(f.l.offsets[i])
			if err := p.Table.Unregister(addr); err != nil {
				return err
			}
			p.Stats.MSRLTOps++
		}
	}
	p.frames = p.frames[:len(p.frames)-1]
	return p.Space.PopFrame()
}

// Result is the outcome of Run.
type Result struct {
	// Migrated is true when execution stopped at a poll-point with a
	// granted migration request. The process stays stopped there: a
	// migration session captures it, and ResumeRun continues it.
	Migrated bool
	// ExitCode is main's return value (or the exit() argument) when the
	// program ran to completion.
	ExitCode int
}

// Run executes the program from main, or resumes a restored process from
// its migration point. It returns when the program completes, exits, or
// stops at a granted poll. A process that has run already, stopped or
// finished, is refused: ResumeRun continues a stopped one.
func (p *Process) Run() (*Result, error) {
	if p.resumeSites != nil {
		return p.runResume()
	}
	if len(p.frames) != 0 {
		return nil, errors.New("vm: Run on a process that has already run")
	}
	main := p.Prog.Func("main")
	if main == nil {
		return nil, errors.New("vm: program has no main")
	}
	f, err := p.pushFrame(main)
	if err != nil {
		return nil, err
	}
	c, err := p.enter(f).body(f)
	return p.finishRun(f, c, err)
}

// finishRun interprets the final control signal of the outermost frame.
func (p *Process) finishRun(f *Frame, c ctrl, err error) (*Result, error) {
	if err != nil {
		if errors.Is(err, errExit) {
			return &Result{ExitCode: p.exitCode}, nil
		}
		return nil, err
	}
	switch c {
	case ctrlMigrate:
		return &Result{Migrated: true}, nil
	case ctrlReturn:
		return &Result{ExitCode: int(int64(f.retVal))}, nil
	default:
		// Falling off the end of main: exit code 0.
		return &Result{ExitCode: 0}, nil
	}
}

// runResume fast-forwards a restored process to its migration point and
// continues execution.
func (p *Process) runResume() (*Result, error) {
	if len(p.frames) == 0 {
		return nil, errors.New("vm: resume with no frames")
	}
	f := p.frames[0]
	c, err := p.resumeFrame(f)
	p.resumeSites = nil
	return p.finishRun(f, c, err)
}

// ResumeRun continues a process stopped at a granted poll point, or a
// restored one not yet resumed: the frames fast-forward to their stop sites —
// the same machinery a restored process resumes through, except the
// memory image is already in place — and execution picks up after the
// poll. It returns like Run: at completion, exit, or the next granted
// poll request.
func (p *Process) ResumeRun() (*Result, error) {
	site, err := p.stoppedSite()
	if err != nil {
		return nil, err
	}
	sites, err := p.captureSites(site)
	if err != nil {
		return nil, err
	}
	p.resumeSites = sites
	return p.runResume()
}

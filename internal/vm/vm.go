// Package vm executes checked MigC programs against a simulated process
// address space laid out for a specific machine.
//
// The VM is the "process" of the reproduction: globals live in the global
// segment, each function invocation pushes a frame of local variable blocks
// onto the stack segment, and malloc allocates typed blocks on the heap —
// all registered in the MSRLT under the paper's machine-independent
// identifications. Globals and heap blocks enter it as they are laid out or
// allocated; a frame's locals enter it only when the process stops (the
// table is read only then), so a call between two stops registers nothing.
// Poll-points compiled into the program invoke a hook; when the hook
// requests migration, the process stops at the poll point. A migration
// session then captures its execution state (the chain of active functions
// and their migration sites) and memory state (live data collected through
// the MSRM library) into a machine-independent stream, and a fresh VM on
// any other machine restores the stream and resumes execution from the
// migration point — including inside nested function calls.
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
	// MSRLTOps counts MSRLT register/unregister operations: one per heap
	// block at malloc and at free, and one per local of every frame a stop
	// registered, at that stop and when the frame returns. A call that
	// returns before the next stop counts none.
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
	// the heap's MSRLT maintenance are skipped. This is the baseline of
	// the paper's Section 4.3 overhead comparison. A disabled process
	// cannot migrate, so it never stops, and no stop registers its frames:
	// its calls cost what an annotated process's calls cost.
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
	// synced counts the frames, outermost first, whose locals are in the
	// MSRLT; the rest were pushed since the process last stopped.
	synced  int
	layouts map[*minic.FuncSymbol]*frameLayout

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
		if err := p.Table.Register(&msr.Block{ID: msr.BlockID{Seg: memory.Global, Minor: uint32(g.Index)}, Addr: addr, Type: g.Type, Count: 1, Name: g.Name}); err != nil {
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

// pushFrame creates the frame for fn at the next depth. It registers
// nothing: the MSRLT's stack blocks enter the table when the process stops
// (registerFrames).
func (p *Process) pushFrame(fn *minic.FuncSymbol) (*Frame, error) {
	l := p.layout(fn)
	base, err := p.Space.PushFrame(l.size)
	if err != nil {
		return nil, err
	}
	f := &Frame{Fn: fn, Base: base, Depth: len(p.frames) + 1, l: l, view: p.Space.TopFrame()}
	p.frames = append(p.frames, f)
	return f, nil
}

// registerFrames enters in the MSRLT the locals of every frame pushed since
// the process last stopped, so that its stack segment holds exactly the
// live frames' locals. The table is read only while the process is stopped:
// at a granted poll, after a restore pushed its frames, and at a capture,
// which each call this.
func (p *Process) registerFrames() error {
	var blocks []*msr.Block
	for _, f := range p.frames[p.synced:] {
		for i, v := range f.Fn.Locals {
			id := msr.BlockID{Seg: memory.Stack, Major: uint32(f.Depth), Minor: uint32(i)}
			blocks = append(blocks, &msr.Block{ID: id, Addr: f.Base + memory.Address(f.l.offsets[i]), Type: v.Type, Count: 1, Name: v.Name})
		}
	}
	if err := p.Table.Insert(blocks); err != nil {
		return err
	}
	p.synced, p.Stats.MSRLTOps = len(p.frames), p.Stats.MSRLTOps+int64(len(blocks))
	return nil
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
		if err := p.registerFrames(); err != nil {
			return nil, err
		}
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

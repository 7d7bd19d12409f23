// Package repro is the public API of the heterogeneous process migration
// library, a reproduction of "Data Collection and Restoration for
// Heterogeneous Process Migration" (Chanchio and Sun, IPPS 2001).
//
// The library migrates running processes written in MigC — a migration-safe
// C subset — between simulated machines with different architectures
// (endianness, word sizes, data layout). A program is compiled into
// migratable format (poll-points plus live-variable sets), run on a virtual
// machine over a simulated process address space, and can be checkpointed
// at any poll-point into a machine-independent stream that any other
// machine restores and resumes, pointers and all.
//
// # Quick start
//
//	prog, err := repro.Compile(src, repro.PollAtLoops)
//	res, err := prog.Migrate(repro.DEC5000, repro.SPARC20, nil)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package repro

import (
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/vm"
)

// Machine describes a computation platform: byte order, word width, type
// sizes and alignments. Programs migrate between machines with different
// descriptors.
type Machine = arch.Machine

// Pre-defined machines, including the platforms of the paper's evaluation.
var (
	// DEC5000 is the DEC 5000/120 running Ultrix: little-endian ILP32.
	DEC5000 = arch.DEC5000
	// SPARC20 is the SPARCstation 20 running Solaris: big-endian ILP32.
	SPARC20 = arch.SPARC20
	// Ultra5 is the Sun Ultra 5 running Solaris (32-bit ABI).
	Ultra5 = arch.Ultra5
	// I386 is a 32-bit x86 Linux machine (4-byte double alignment).
	I386 = arch.I386
	// AMD64 is a 64-bit x86 Linux machine: little-endian LP64.
	AMD64 = arch.AMD64
	// SPARCV9 is a 64-bit UltraSPARC running Solaris: big-endian LP64.
	SPARCV9 = arch.SPARCV9
	// Alpha is a DEC Alpha running OSF/1: little-endian LP64.
	Alpha = arch.Alpha
)

// Machines returns all registered machine descriptors.
func Machines() []*Machine { return arch.Machines() }

// MachineByName returns the registered machine with the given name, or nil.
func MachineByName(name string) *Machine { return arch.Lookup(name) }

// PollPolicy controls where the pre-compiler inserts poll-points; the
// explicit migrate_here(); intrinsic is always honored.
type PollPolicy = minic.PollPolicy

// Common policies.
var (
	// PollAtLoops inserts a poll-point at the top of every loop body,
	// the paper's recommended placement.
	PollAtLoops = minic.DefaultPolicy
	// PollExplicitOnly inserts no automatic poll-points; only
	// migrate_here(); intrinsics remain.
	PollExplicitOnly = minic.PollPolicy{}
)

// Program is a compiled migratable program, pre-distributable to any
// machine.
type Program struct {
	engine *core.Engine
}

// Compile transforms MigC source into migratable format: it parses and
// type-checks the program, rejects migration-unsafe C features, inserts
// poll-points per the policy, and computes the live-variable set of every
// migration site.
func Compile(source string, policy PollPolicy) (*Program, error) {
	e, err := core.NewEngine(source, policy)
	if err != nil {
		return nil, err
	}
	return &Program{engine: e}, nil
}

// Engine exposes the underlying migration engine for advanced use
// (sessions, checkpoint stores).
func (p *Program) Engine() *core.Engine { return p.engine }

// Process is a running (or restorable) instance of a program on one
// machine.
type Process = vm.Process

// Options configures a process instance.
type Options struct {
	// Stdout receives printf output (default: discard).
	Stdout io.Writer
	// MaxSteps bounds execution (0 = the library default of 4e9).
	MaxSteps int64
	// Trace receives one line per executed statement and per
	// call/return/migration event — a debugging aid for comparing a
	// migrated run against an unmigrated one.
	Trace io.Writer
}

func (o *Options) apply(p *vm.Process) {
	if o == nil {
		p.MaxSteps = 4_000_000_000
		return
	}
	if o.Stdout != nil {
		p.Stdout = o.Stdout
	}
	if o.MaxSteps > 0 {
		p.MaxSteps = o.MaxSteps
	} else {
		p.MaxSteps = 4_000_000_000
	}
	if o.Trace != nil {
		p.TraceTo(o.Trace)
	}
}

// Result is the outcome of running a program.
type Result struct {
	// ExitCode is main's return value.
	ExitCode int
	// Migrated reports whether the run included a migration.
	Migrated bool
	// Timing decomposes the migration cost (Collect/Tx/Restore), when a
	// migration happened.
	Timing core.Timing
	// Process is the final process image, inspectable by tests and
	// tools.
	Process *vm.Process
}

// Run executes the program to completion on machine m without migrating.
func (p *Program) Run(m *Machine, opts *Options) (*Result, error) {
	proc, err := p.engine.NewProcess(m)
	if err != nil {
		return nil, err
	}
	opts.apply(proc)
	res, err := proc.Run()
	if err != nil {
		return nil, err
	}
	return &Result{ExitCode: res.ExitCode, Process: proc}, nil
}

// Migrate runs the program on src to its first poll-point, moves it to
// dst over the session protocol (handshake, chunk stream, RESTORED/COMMIT
// across an in-memory pipe), and completes it there. The result records the
// collect, transfer, and restore times. A program that reaches no
// poll-point completes on src with Migrated false. A failed transfer
// returns the error after the session layer has rolled the source back: it
// ran on locally, so no paused copy is left behind.
func (p *Program) Migrate(src, dst *Machine, opts *Options) (*Result, error) {
	proc, err := p.engine.NewProcess(src)
	if err != nil {
		return nil, err
	}
	opts.apply(proc)
	var req core.Request
	req.Raise()
	proc.PollHook = req.Hook()
	res, err := proc.Run()
	if err != nil {
		return nil, err
	}
	if !res.Migrated {
		return &Result{ExitCode: res.ExitCode, Process: proc}, nil
	}
	q, _, timing, err := session.Transfer(p.engine, "migrate", proc, dst, session.Config{})
	if err != nil {
		return nil, err
	}
	opts.apply(q)
	if res, err = q.Run(); err != nil {
		return nil, err
	}
	return &Result{ExitCode: res.ExitCode, Migrated: true, Timing: timing, Process: q}, nil
}

// Timing re-exports the migration time decomposition.
type Timing = core.Timing

// Cluster is the distributed environment: named nodes hosting processes,
// with a scheduler that serves migration requests at poll-points.
type Cluster = sched.Cluster

// Handle tracks one process managed by a cluster's scheduler.
type Handle = sched.Handle

// NewCluster builds a distributed environment running the program.
func (p *Program) NewCluster(opts *Options) *Cluster {
	c := sched.NewCluster(p.engine)
	c.Configure = func(proc *vm.Process) { opts.apply(proc) }
	return c
}

// Package core is the heterogeneous process migration engine: the compiled
// program every node shares, and the pieces of the paper's Section 2
// workflow that belong to no single layer below it:
//
//  1. a program is transformed into migratable format (compiled with
//     poll-points and live sets) and pre-distributed: every node builds
//     the same Engine from the same source, and its Digest is how two
//     nodes know they did;
//  2. a scheduler raises a migration Request, which the running process
//     notices at its next poll-point;
//  3. the process collects its execution and memory state into
//     machine-independent sections, which a migration session carries to
//     the destination and restores there as they arrive
//     (internal/session), or which a checkpoint store keeps
//     (CheckpointProcess, RestoreFromStore);
//  4. the source process terminates, the destination process resumes from
//     the migration point.
//
// Moving the bytes between two processes is internal/session's job, and
// its alone; a sectioned snapshot handed over in memory (vm.Result.State
// or Recapture → vm.RestoreProcess) has no transport under it.
package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/vm"
)

// ErrProgramMismatch reports state that belongs to a different program
// build than the engine it was handed to.
var ErrProgramMismatch = errors.New("core: state was produced by a different program")

// Engine is a migratable program: the compiled form shared by every node
// participating in migrations (the paper pre-distributes and compiles the
// transformed source on every potential destination machine).
type Engine struct {
	Prog *minic.Program

	digestOnce sync.Once
	digestVal  uint32
}

// NewEngine compiles source into migratable format with the given
// poll-point policy.
func NewEngine(source string, policy minic.PollPolicy) (*Engine, error) {
	prog, err := minic.Compile(source, policy)
	if err != nil {
		return nil, err
	}
	return &Engine{Prog: prog}, nil
}

// NewProcess instantiates the program on a machine.
func (e *Engine) NewProcess(m *arch.Machine) (*vm.Process, error) {
	return vm.NewProcess(e.Prog, m)
}

// Digest identifies the program to a session's registry lookup and to a
// checkpoint's manifest: the TI table digest combined with the shape of the
// function and site tables. It is computed once per engine — every session
// offer and every round's manifest consults it, so it must be cheap.
func (e *Engine) Digest() uint32 {
	e.digestOnce.Do(func() {
		h := crc32.NewIEEE()
		fmt.Fprintf(h, "ti:%08x\n", e.Prog.TI.Digest())
		for _, f := range e.Prog.Funcs {
			fmt.Fprintf(h, "fn:%s/%d/%d/%d\n", f.Name, len(f.Params), len(f.Locals), len(f.Sites))
		}
		fmt.Fprintf(h, "globals:%d\n", len(e.Prog.Globals))
		e.digestVal = h.Sum32()
	})
	return e.digestVal
}

// Request is the migration request flag a scheduler raises and a process
// polls — the "migration request sent to the process" of the paper. It is
// safe for concurrent use.
type Request struct {
	pending atomic.Bool
}

// Raise marks a migration request pending.
func (r *Request) Raise() { r.pending.Store(true) }

// Hook adapts the request to a vm.Process poll hook; the request is
// consumed when granted.
func (r *Request) Hook() func(*vm.Process, *minic.Site) bool {
	return func(*vm.Process, *minic.Site) bool {
		return r.pending.CompareAndSwap(true, false)
	}
}

// Timing records the phases of one migration, the columns of the paper's
// Table 1.
type Timing struct {
	Collect time.Duration
	Tx      time.Duration
	Restore time.Duration
	// Bytes is the state's size on the wire: the snapshot a cold stream
	// carries, or the frames of a round exchange.
	Bytes int
}

// Total returns the end-to-end migration time.
func (t Timing) Total() time.Duration { return t.Collect + t.Tx + t.Restore }

// String renders the timing like the paper's table rows.
func (t Timing) String() string {
	return fmt.Sprintf("collect=%.4fs tx=%.4fs restore=%.4fs (%d bytes)",
		t.Collect.Seconds(), t.Tx.Seconds(), t.Restore.Seconds(), t.Bytes)
}

// Package core is the heterogeneous process migration engine: it ties the
// pre-compiler (minic), the virtual machine (vm), the MSRM data collection
// and restoration library (collect), and the transport layer (link) into
// the migration workflow of the paper's Section 2:
//
//  1. a program is transformed into migratable format (compiled with
//     poll-points and live sets) and pre-distributed: every node builds
//     the same Engine from the same source;
//  2. a scheduler sends a migration request to a running process, which
//     notices it at the next poll-point;
//  3. the process collects its execution and memory state into a
//     machine-independent envelope and sends it to the waiting process on
//     the destination machine;
//  4. the source process terminates, the destination process restores the
//     state and resumes from the migration point.
package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/xdr"
)

// Errors returned by envelope handling.
var (
	ErrBadEnvelope     = errors.New("core: malformed migration envelope")
	ErrVersionMismatch = errors.New("core: migration protocol version mismatch")
	ErrProgramMismatch = errors.New("core: envelope was produced by a different program")
	ErrChecksum        = errors.New("core: envelope payload checksum mismatch")
)

// Engine is a migratable program: the compiled form shared by every node
// participating in migrations (the paper pre-distributes and compiles the
// transformed source on every potential destination machine).
type Engine struct {
	Prog   *minic.Program
	Policy minic.PollPolicy
	// Source is retained for diagnostics and redistribution.
	Source string

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
	return &Engine{Prog: prog, Policy: policy, Source: source}, nil
}

// NewProcess instantiates the program on a machine.
func (e *Engine) NewProcess(m *arch.Machine) (*vm.Process, error) {
	return vm.NewProcess(e.Prog, m)
}

// Digest identifies the program for envelope verification and session
// negotiation: the TI table digest combined with the shape of the function
// and site tables. It is computed once per engine — every envelope header
// and session offer consults it, so it must be cheap.
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

// Seal wraps a captured process state into a transport envelope carrying
// the protocol version, the source machine name, the program digest, and a
// payload checksum.
func (e *Engine) Seal(state []byte, src *arch.Machine) []byte {
	enc := xdr.NewEncoder(len(state) + 64)
	putHeader(enc, VersionMono, src.Name, e.Digest())
	enc.PutUint32(crc32.ChecksumIEEE(state))
	enc.PutOpaque(state)
	return enc.Bytes()
}

// Open verifies an envelope and returns the raw state and the source
// machine name.
func (e *Engine) Open(envelope []byte) (state []byte, srcName string, err error) {
	dec := xdr.NewDecoder(envelope)
	h, err := e.openHeader(dec, VersionMono)
	if err != nil {
		return nil, "", err
	}
	sum, err := dec.Uint32()
	if err != nil {
		return nil, "", ErrBadEnvelope
	}
	state, err = dec.Opaque()
	if err != nil {
		return nil, "", ErrBadEnvelope
	}
	if crc32.ChecksumIEEE(state) != sum {
		return nil, "", ErrChecksum
	}
	return state, h.srcName, nil
}

// Restore verifies an envelope and builds the resumed process on machine
// m, recording the restore phases as children of span (nil disables
// tracing).
func (e *Engine) Restore(m *arch.Machine, envelope []byte, span *obs.Span) (*vm.Process, error) {
	state, _, err := e.Open(envelope)
	if err != nil {
		return nil, err
	}
	return vm.RestoreProcessObs(e.Prog, m, state, span)
}

// SaveToFile seals a captured state and writes it as a framed file — the
// paper's shared-file-system transfer mode.
func (e *Engine) SaveToFile(path string, state []byte, src *arch.Machine) error {
	return link.SendFile(path, e.Seal(state, src))
}

// RestoreFromFile reads a migration envelope from a file and restores it
// on machine m.
func (e *Engine) RestoreFromFile(path string, m *arch.Machine) (*vm.Process, error) {
	env, err := link.RecvFile(path)
	if err != nil {
		return nil, err
	}
	return e.Restore(m, env, nil)
}

// Request is the migration request flag a scheduler raises and a process
// polls — the "migration request sent to the process" of the paper. It is
// safe for concurrent use.
type Request struct {
	pending atomic.Bool
}

// Raise marks a migration request pending.
func (r *Request) Raise() { r.pending.Store(true) }

// Pending reports whether a request is outstanding.
func (r *Request) Pending() bool { return r.pending.Load() }

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
	// Bytes is the envelope size on the wire.
	Bytes int
}

// Total returns the end-to-end migration time.
func (t Timing) Total() time.Duration { return t.Collect + t.Tx + t.Restore }

// String renders the timing like the paper's table rows.
func (t Timing) String() string {
	return fmt.Sprintf("collect=%.4fs tx=%.4fs restore=%.4fs (%d bytes)",
		t.Collect.Seconds(), t.Tx.Seconds(), t.Restore.Seconds(), t.Bytes)
}

// Send seals a captured state and transmits it, returning the wire time.
func (e *Engine) Send(t link.Transport, src *arch.Machine, state []byte) (Timing, error) {
	env := e.Seal(state, src)
	start := time.Now()
	if err := t.Send(env); err != nil {
		return Timing{}, err
	}
	return Timing{Tx: time.Since(start), Bytes: len(env)}, nil
}

// ReceiveAndRestore blocks for an envelope on the transport and restores
// it on machine m, recording the receive and restore phases as children
// of span (nil disables tracing).
func (e *Engine) ReceiveAndRestore(t link.Transport, m *arch.Machine, span *obs.Span) (*vm.Process, Timing, error) {
	rx := span.Child("transport")
	rxStart := time.Now()
	env, err := obs.PhaseOf("transport", t.Recv)
	mRxLat.Observe(time.Since(rxStart))
	rx.SetBytes(int64(len(env)))
	rx.End()
	if err != nil {
		return nil, Timing{}, err
	}
	start := time.Now()
	p, err := e.Restore(m, env, span)
	if err != nil {
		return nil, Timing{}, err
	}
	restore := time.Since(start)
	mRestoreLat.Observe(restore)
	return p, Timing{Restore: restore, Bytes: len(env)}, nil
}

// MigrateResult is the outcome of a RunWithMigration round.
type MigrateResult struct {
	// Process is the final (destination) process after completion.
	Process *vm.Process
	// ExitCode of the completed program.
	ExitCode int
	// Migrated reports whether a migration actually happened.
	Migrated bool
	Timing   Timing
}

// RunWithMigration runs the program on src with an immediately pending
// migration request, transfers the process to dst over an in-memory
// transport at the first poll-point, and runs it to completion there.
// configure, when non-nil, is applied to each process before it runs
// (setting Stdout, MaxSteps, Instrument, ...). This is the single-call
// workflow used by examples and experiments; package sched provides the
// distributed version with real scheduling.
func (e *Engine) RunWithMigration(src, dst *arch.Machine, configure func(*vm.Process)) (*MigrateResult, error) {
	p, err := e.NewProcess(src)
	if err != nil {
		return nil, err
	}
	if configure != nil {
		configure(p)
	}
	var req Request
	req.Raise()
	p.PollHook = req.Hook()

	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if !res.Migrated {
		return &MigrateResult{Process: p, ExitCode: res.ExitCode}, nil
	}

	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	type recvResult struct {
		q   *vm.Process
		t   Timing
		err error
	}
	recvc := make(chan recvResult, 1)
	go func() {
		q, rt, rerr := e.ReceiveAndRestore(b, dst, nil)
		recvc <- recvResult{q, rt, rerr}
	}()
	tx, txErr := e.Send(a, p.Mach, res.State)
	if txErr != nil {
		// Fail the receiver's pending Recv so the goroutine exits before
		// we report; both ends close so neither side can block.
		a.Close()
		b.Close()
	}
	rr := <-recvc
	if txErr != nil {
		return nil, txErr
	}
	if rr.err != nil {
		return nil, rr.err
	}
	timing := Timing{
		Collect: p.CaptureStats().Elapsed,
		Tx:      tx.Tx,
		Restore: rr.t.Restore,
		Bytes:   tx.Bytes,
	}

	q := rr.q
	if configure != nil {
		configure(q)
	}
	q.PollHook = nil
	res2, err := q.Run()
	if err != nil {
		return nil, err
	}
	return &MigrateResult{Process: q, ExitCode: res2.ExitCode, Migrated: true, Timing: timing}, nil
}

package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Result is the initiator's account of one outbound migration.
type Result struct {
	// Params is the negotiated outcome the transfer ran under.
	Params Params
	// Timing is this side's share of the migration: collection,
	// transmission and the wire bytes sent, which accrue round by round.
	// Transfer adds the responder's restore time.
	Timing core.Timing
	// Trace is the distributed-trace identity this migration ran under
	// (the initiator mints it; the responder adopts the trace ID).
	Trace obs.TraceContext
	// Remote is the responder's exported span tree, shipped back on the
	// RESTORED confirmation when both sides trace. It is also already
	// grafted into Config.Trace (AttachRemote), so rendering the local
	// tree shows the stitched whole; nil when the responder was not
	// tracing.
	Remote *obs.SpanData
	// Warm is the account of a warm transfer's round, Live of a live
	// transfer's rounds; nil for the other shapes.
	Warm, Live *Exchange

	// stored is a warm transfer's checkpoint, whose writes to the
	// initiator's store run beside the exchange (store.BeginCheckpoint).
	stored *store.Pending
}

// Initiate negotiates a migration session for the stopped process p over t
// and transmits its state in the agreed shape, blocking until the responder
// confirms restoration. program names the pre-distributed program for the
// responder's registry lookup (the digest decides; the name is
// diagnostics).
//
// When both sides set Config.Live, Initiate resumes p between pre-copy
// rounds, so execution overlaps every transfer except the final round;
// against a responder without Live the same call is a stop-and-copy
// transfer from the current pause. If the source runs to
// completion between rounds, ErrSourceExited is returned alongside a
// Result carrying the rounds shipped so far.
//
// On any other error the migration did not happen: the source is still
// paused at its poll point and must be rolled back (Rollback).
func Initiate(t link.Transport, e *core.Engine, src *arch.Machine, program string, p *vm.Process, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	cfg.traceTransport(t)
	prm, tc, err := initiateHandshake(t, e, src, program, cfg)
	if err != nil {
		return nil, err
	}
	p.Obs = cfg.Trace
	res := &Result{Params: prm, Trace: tc}
	// No checkpoint write outlives the call, whatever its outcome. A
	// failed one is reported by awaitRestored, or loses to the error that
	// ended the transfer before it.
	defer func() { _ = res.stored.Wait() }()
	txStart := time.Now()
	tx := cfg.Trace.Child("transport")
	err = send(t, e, src, program, p, cfg, res)
	tx.SetBytes(int64(res.Timing.Bytes))
	tx.End()
	if errors.Is(err, ErrSourceExited) {
		return res, err
	}
	if err != nil {
		cfg.Trace.Event("session.fail", "transfer: %v", err)
		return nil, err
	}
	cfg.observePhase("collect", res.Timing.Collect)
	cfg.observePhase("transport", time.Since(txStart))
	if err := awaitRestored(t, cfg, res); err != nil {
		return nil, err
	}
	if x := res.Live; x != nil {
		x.Downtime = time.Since(x.paused)
		cfg.metrics().Histogram("session.downtime").Observe(x.Downtime)
		cfg.Trace.Event("session.round", "downtime %v over %d rounds (%s); %d of %d bytes on wire",
			x.Downtime, len(x.Rounds), x.StopReason, res.Timing.Bytes, x.SnapshotBytes)
	}
	return res, nil
}

// InitiateLive is Initiate with Config.Live set; the benchmark program
// names it.
func InitiateLive(t link.Transport, e *core.Engine, src *arch.Machine, program string, p *vm.Process, cfg Config) (*Result, error) {
	cfg.Live = true
	return Initiate(t, e, src, program, p, cfg)
}

// send transmits the state of p in the shape res.Params selects and fills
// in res.Timing (collect and transmit) and, on a round exchange, the
// shape's accounting.
//
// A cold transfer is the snapshot of p written into a chunk stream as it
// is encoded and closed with FIN: the partition walk sizes every section
// first, then each body goes into the stream piece by piece, so the first
// chunk leaves while the rest is still being encoded, and the destination
// restores as it arrives. A capture that fails part way sends no FIN.
func send(t link.Transport, e *core.Engine, src *arch.Machine, program string, p *vm.Process, cfg Config, res *Result) error {
	if res.Params.rounds() {
		return sendRounds(t, e, src, program, p, cfg, res)
	}
	start := time.Now()
	// How the stream is cut is this side's own business: the chunk size
	// changes no byte of the snapshot and the receiver takes any.
	w := stream.NewWriter(t, stream.Config{ChunkSize: cfg.ChunkSize})
	n, err := p.WriteSnapshot(w)
	if err != nil {
		w.Fail(err)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	collect := p.CaptureStats().Elapsed
	res.Timing = core.Timing{Collect: collect, Tx: time.Since(start) - collect, Bytes: n}
	if err != nil {
		return fmt.Errorf("session: cold transfer: %w", err)
	}
	return nil
}

// initiateHandshake mints the trace identity, sends the OFFER, and parses
// the responder's answer into the Params both sides committed to.
func initiateHandshake(t link.Transport, e *core.Engine, src *arch.Machine, program string, cfg Config) (Params, obs.TraceContext, error) {
	// The initiator mints the migration's trace identity and offers it to
	// the responder, which adopts the trace ID and parents its own span
	// tree under our session span — one stitched tree per migration. An
	// untraced initiator has no span to stitch under: it offers span ID 0,
	// and the responder ships it no tree.
	tc := obs.NewTraceContext()
	if cfg.Trace == nil {
		tc.SpanID = 0
	}
	cfg.Trace.SetTraceContext(tc)
	o := offer{
		digest:  e.Digest(),
		program: program,
		machine: src.Name,
		traceID: tc.TraceID,
		spanID:  tc.SpanID,
		caps:    cfg.caps(),
	}
	cfg.Trace.Event("session.offer", "program %q digest %08x %s", program, o.digest, tc)
	hsStart := time.Now()
	hs := cfg.Trace.Child("handshake")
	defer hs.End()
	if err := t.Send(marshalOffer(o)); err != nil {
		return Params{}, tc, fmt.Errorf("session: offer send: %w", err)
	}
	raw, err := t.Recv()
	if err != nil {
		return Params{}, tc, fmt.Errorf("session: handshake read: %w", err)
	}
	m, err := parseMessage(raw)
	cfg.observePhase("handshake", time.Since(hsStart))
	if err != nil {
		return Params{}, tc, err
	}
	switch m.typ {
	case wire.Reject:
		return Params{}, tc, fmt.Errorf("%w: %s", ErrRejected, m.reason)
	case wire.Accept:
	default:
		return Params{}, tc, fmt.Errorf("%w: expected accept or reject, got %s", ErrProtocol, wire.NameOf(wire.SessionMagic, m.typ))
	}
	prm := m.params
	// The responder may only echo capabilities we advertised, and its own
	// store beside live rounds, which then name their bodies by hash.
	if extra := prm.caps() &^ o.caps; extra&^capWarm != 0 || extra != 0 && !prm.Live {
		return Params{}, tc, fmt.Errorf("%w: responder accepted warm=%v live=%v, which the offer does not allow",
			ErrProtocol, prm.Warm, prm.Live)
	}
	cfg.Trace.SetAttr("how", prm.How())
	cfg.Trace.Event("session.accept", "%s", prm.How())
	return prm, tc, nil
}

// awaitRestored blocks for the responder's RESTORED confirmation,
// acknowledges it with COMMIT, and completes the migration's Result with
// the responder's span tree. Only after it returns may the source process
// terminate: the destination
// provably holds a restored, runnable process, and holds it inactive until
// our COMMIT was accepted by the transport. An error from any step,
// including the COMMIT send, means the migration did not happen: the
// source remains paused at its poll point and must roll back (Rollback).
func awaitRestored(t link.Transport, cfg Config, res *Result) error {
	defer cfg.phase("confirm")()
	// A warm source's checkpoint must be in its store before the source
	// may relinquish: a failed write sends no COMMIT, so the responder
	// discards its copy and the source rolls back.
	m, _, err := recvMessage(t, wire.Restored)
	if err = errors.Join(err, res.stored.Wait()); err != nil {
		cfg.Trace.Event("session.fail", "confirm: %v", err)
		return err
	}
	// The handoff pivot: a COMMIT the transport accepted will be delivered
	// (frames are atomic under the fail-stop model), so a nil error here
	// is the license to relinquish the source. A failed send means the
	// responder will never activate — the source must roll back instead.
	if err := t.Send(marshalCommit()); err != nil {
		cfg.Trace.Event("session.fail", "commit send: %v", err)
		return fmt.Errorf("session: commit send: %w", err)
	}
	cfg.Trace.Event("session.commit", "handoff acknowledged; source relinquishes")
	if len(m.spans) > 0 {
		// The responder shipped its exported span tree: graft it under our
		// session span so one render shows the whole migration.
		var remote obs.SpanData
		if err := json.Unmarshal(m.spans, &remote); err != nil {
			// A malformed tree costs the stitched view, not the migration.
			cfg.Trace.Event("session.trace", "discarding malformed remote spans: %v", err)
		} else {
			res.Remote = &remote
			cfg.Trace.AttachRemote(&remote)
		}
	}
	cfg.Trace.Event("session.restored", "%d bytes confirmed", m.bytes)
	return nil
}

// Rollback resumes a source process after a failed migration attempt.
// Initiate and Transfer guarantee that on error the source
// is still paused at its poll point with its state intact (byte-identical
// to a capture taken before the attempt, for stop-and-copy paths);
// Rollback is the other half of the recovery contract — the process
// continues executing locally, to its next granted poll stop or to
// completion, as if the migration had never been attempted. The elapsed
// resume time is observed into the "session.rollback" histogram and the
// "session.rolledback" counter; failures (a source too damaged to resume,
// which the chaos matrix asserts never happens from a transport fault)
// increment "session.rollback.failed".
func Rollback(p *vm.Process, cfg Config) (*vm.Result, error) {
	start := time.Now()
	res, err := p.ResumeRun()
	cfg.metrics().Histogram("session.rollback").Observe(time.Since(start))
	if err != nil {
		cfg.metrics().Counter("session.rollback.failed").Inc()
		cfg.Trace.Event("session.rollback", "source resume failed: %v", err)
		return nil, fmt.Errorf("session: rollback resume: %w", err)
	}
	cfg.metrics().Counter("session.rolledback").Inc()
	switch {
	case res.Migrated:
		cfg.Trace.Event("session.rollback", "source resumed; paused at next granted poll")
	default:
		cfg.Trace.Event("session.rollback", "source resumed; ran to completion (exit %d)", res.ExitCode)
	}
	return res, nil
}

// Transfer migrates the stopped process p from its machine to dst over an
// in-memory pipe, running the full negotiated protocol end to end — the
// single-call workflow used by the in-process scheduler and experiments.
// It returns the restored process and the initiator's Result, whose
// Timing.Restore is the responder's restore time, so Timing holds all
// three phases; a failed pre-copy attempt fills the Result as far as it
// got.
//
// On failure the source is rolled back before Transfer returns: the
// paused process resumes execution (Rollback) to its next granted poll
// stop or to completion, so an error never strands it paused forever.
// Exactly one live copy exists either way — the restored destination on
// success, the resumed source on failure. The exception is
// ErrSourceExited, where the source already ran to completion locally:
// that run is the surviving copy and there is nothing paused to resume.
func Transfer(e *core.Engine, program string, p *vm.Process, dst *arch.Machine, cfg Config) (*vm.Process, *Result, error) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	// The registry dies with the call, so its session keeps no fork.
	reg := &Registry{byDigest: map[uint32]registered{}}
	reg.Add(program, e)
	type respondRes struct {
		info Info
		q    *vm.Process
		err  error
	}
	c := make(chan respondRes, 1)
	go func() {
		info, q, err := Respond(b, reg, dst, cfg)
		if err != nil {
			// Fail the initiator's pending Recv so it joins.
			b.Close()
		}
		c <- respondRes{info, q, err}
	}()
	res, err := Initiate(a, e, p.Mach, program, p, cfg)
	if err != nil {
		// Fail the responder's pending Recv so the goroutine joins.
		a.Close()
		b.Close()
	}
	rr := <-c
	if err != nil {
		if !errors.Is(err, ErrSourceExited) {
			Rollback(p, cfg)
		}
		return nil, res, err
	}
	if rr.err != nil {
		return nil, res, rr.err
	}
	res.Timing.Restore = rr.info.Timing.Restore
	return rr.q, res, nil
}

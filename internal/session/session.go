// Package session is the migration-session layer of the stack: it sits
// between the compiled program (internal/core) and the transport
// (internal/link), owns everything two peers must agree on before a
// process state crosses the wire, and drives every transfer shape itself —
// sections flow from the source process's capture (vm.Process.WriteSnapshot
// or Round) into one vm.Restore on the destination. Each side keeps one
// account of the migration: the initiator's Result, the responder's Info.
//
// The paper's protocol assumes one migration at a time between two
// pre-arranged peers whose operators configured both ends identically.
// This layer replaces that arrangement with a handshake that carries
// identity and capabilities, and nothing else:
//
//  1. the initiator (the migrating process's node) sends an OFFER — its
//     program digest and name, its machine, its trace identity and its
//     capability bits;
//  2. the responder (the daemon) looks the digest up in its program
//     registry and replies ACCEPT with the capabilities both sides hold —
//     or REJECT, with a human-readable reason, for a digest it does not
//     know;
//  3. the state flows in the shape the capabilities select (below);
//  4. the responder restores the process and confirms with RESTORED;
//  5. the initiator answers COMMIT, and the responder activates the
//     restored process only once the COMMIT arrives. The source
//     relinquishes only after a successful COMMIT send, the destination
//     activates only after COMMIT delivery, so under fail-stop faults at
//     frame boundaries exactly one copy survives (DESIGN.md, "Transfer
//     protocol").
//
// # Two wire shapes
//
// Between ACCEPT and RESTORED the state crosses in one of two shapes,
// selected by the two capability bits and by nothing else:
//
//   - the sectioned chunk stream (cold: neither capability on both ends):
//     a sectioned snapshot cut into chunks by internal/stream, DATA …
//     DATA, FIN from the initiator and nothing back; the responder
//     restores out of each chunk as it arrives, and its RESTORED is its
//     one answer. The stream has no header of its own: the OFFER's digest,
//     matched against the registry, fixes the program, the capability bits
//     the shape and the OFFER the source machine before the first DATA;
//   - the round exchange (a store on both ends, or live on both ends):
//     per round one ANNOUNCE listing every section of the paused state and
//     one BODIES. When the responder holds a store the list names each body
//     by content hash and a WANT between the two names the sections the
//     responder cannot resolve from earlier rounds (or, into a daemon's
//     registry, the program's last warm restore) or its checkpoint store,
//     so a single final round skips every body the destination already
//     holds (a warm migration, which needs a store on both ends). Without,
//     the list names each body by position — the section of the previous
//     round's list it carries over, or none — and BODIES follows unasked
//     with the bodies re-encoded this round. The live capability makes the
//     initiator run rounds while the source keeps executing and pause it
//     only for the last.
//
// # Wire format
//
// Every message is one link.Transport frame, XDR-encoded, magic "MSES";
// the magic and the type numbers are internal/wire's:
//
//	offer    = magic, OFFER, digest u32, program string, machine string,
//	           traceID u64, spanID u64, caps u32
//	accept   = magic, ACCEPT, caps u32
//	reject   = magic, REJECT, reason string
//	restored = magic, RESTORED, bytes u64, spans opaque
//	announce = magic, ANNOUNCE, round u32, flags u32, dirty u32,
//	           manifest opaque, crc u32
//	push     = magic, ANNOUNCE, round u32, flags u32 (announcePush set),
//	           dirty u32, count u32,
//	           count × (kind u32, id u32, length u32, from i32, crc u32),
//	           crc u32
//	want     = magic, WANT, count u32, count × index u32
//	bodies   = magic, BODIES, count u32, count × (index u32, body opaque)
//	abort    = magic, ABORT, reason string
//	commit   = magic, COMMIT
//
// caps is a capability bitmap (capWarm advertises a checkpoint store,
// capLive the live pre-copy rounds). spans is the responder's exported
// span tree as JSON, empty when the offer's spanID is 0 (an initiator that
// keeps no tree to stitch it into). The announce's
// manifest is a store.Manifest in its canonical encoding; a pushed entry's
// from is the index of the previous list's section whose body it carries
// over (-1: re-encoded, in BODIES) and its crc the body's CRC-32. The
// closing crc is the CRC-32 of every frame byte before it: the section
// list is the one part of a round no later check pins (bodies are held to
// the length and SHA-256 or CRC-32 the list declares), so a damaged list is
// refused outright.
package session

import (
	"errors"
	"time"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/store"
)

// Capability bits, carried on OFFER and echoed on ACCEPT.
const (
	// capWarm: this side holds a checkpoint store. Both sides advertising
	// it turns the transfer into one round of the round exchange; a live
	// responder holding a store echoes it whatever the initiator holds,
	// naming the bodies of live rounds by content hash. Either way the
	// WANT names only the section bodies the responder's store lacks.
	capWarm uint32 = 1 << 0
	// capLive: this side can run pre-copy rounds — the round exchange
	// repeated while the source executes, with a final paused round
	// bounding downtime.
	capLive uint32 = 1 << 1
)

// Errors reported by the session layer.
var (
	// ErrRejected is returned by Initiate when the responder refused the
	// offer; the wrapped message carries the responder's reason.
	ErrRejected = errors.New("session: migration rejected")
	// ErrProtocol is returned when a peer sends a message that violates
	// the session protocol.
	ErrProtocol = errors.New("session: protocol violation")
	// ErrUnknownProgram is the negotiation failure for a digest the
	// responder's registry does not hold.
	ErrUnknownProgram = errors.New("session: program not in registry")
	// ErrLiveAborted is returned by the responder of a live session when
	// the initiator abandoned the pre-copy loop (ABORT); the wrapped
	// message carries the initiator's reason.
	ErrLiveAborted = errors.New("session: live migration aborted by initiator")
	// ErrSourceExited is returned by Initiate when the source process ran
	// to completion between pre-copy rounds — there is nothing left to
	// migrate, and the responder was told to stand down.
	ErrSourceExited = errors.New("session: source process exited before final round")
)

// Config is one side's posture: the capabilities it advertises and its
// local policy.
type Config struct {
	// ChunkSize is how this side, as an initiator, cuts the chunk stream
	// of a cold transfer, in the unit of stream.Config; zero selects the
	// stream-layer default. It never crosses the wire and a responder
	// ignores it: a Reader takes chunks of any size.
	ChunkSize int
	// Trace, when set, receives one child span per session phase
	// (handshake, collect, transport, restore, confirm) and the session's
	// events: offer, accept, rounds, commit, failure, rollback, and an
	// injected fault. The span tree is local, but its trace identity
	// (trace ID + span ID) crosses the wire so both sides' trees stitch
	// into one; nil disables tracing, and an untraced initiator offers no
	// span, so the responder ships it no tree.
	Trace *obs.Span
	// Metrics receives the per-phase latency histograms
	// (session.phase.<handshake|collect|transport|restore|confirm>).
	// Nil selects obs.Default.
	Metrics *obs.Registry
	// Store, when set, is this side's content-addressed checkpoint store:
	// the handshake advertises capWarm, and when both sides hold a store
	// the transfer announces the snapshot's sections and sends only the
	// bodies the destination's store lacks.
	Store *store.Store
	// Live advertises capLive: when both sides do, the state crosses as
	// live rounds, and the initiator runs pre-copy rounds while its
	// process executes.
	Live bool
	// PrecopyRounds bounds the delta rounds between the initial full copy
	// and the final paused round. Zero selects 3. Source-side policy
	// only; never crosses the wire.
	PrecopyRounds int
	// DirtyThreshold stops the pre-copy loop early: once the unshipped
	// dirty set is at or below this many blocks, the next round is the
	// final one. Zero selects 16 blocks. Source-side policy only.
	DirtyThreshold int
}

// metrics resolves the registry the phase histograms observe into.
func (c Config) metrics() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default
}

// observePhase records one completed session phase into the per-phase
// latency histogram ("session.phase." + name).
func (c Config) observePhase(name string, elapsed time.Duration) {
	c.metrics().Histogram("session.phase." + name).Observe(elapsed)
}

// phase opens the session phase name as a child span; the func it returns
// ends the span and observes the phase.
func (c Config) phase(name string) func() {
	start, span := time.Now(), c.Trace.Child(name)
	return func() {
		span.End()
		c.observePhase(name, time.Since(start))
	}
}

// traceTransport hands t the session's span when t records events of its
// own — the chaos harness's endpoints do — so they land in the session's
// story.
func (c Config) traceTransport(t link.Transport) {
	if tt, ok := t.(interface{ SetTrace(*obs.Span) }); ok {
		tt.SetTrace(c.Trace)
	}
}

func (c Config) withDefaults() Config {
	if c.PrecopyRounds <= 0 {
		c.PrecopyRounds = 3
	}
	if c.DirtyThreshold <= 0 {
		c.DirtyThreshold = 16
	}
	return c
}

// caps is the capability set this posture advertises.
func (c Config) caps() uint32 {
	return Params{Warm: c.Store != nil, Live: c.Live}.caps()
}

// Params is the negotiated outcome both sides commit to before transfer:
// exactly what the ACCEPT carried. Warm alone is a warm transfer, Live a
// live one, optionally with Warm; neither is a cold transfer.
type Params struct {
	// Warm: the responder holds a checkpoint store, so every round names
	// its bodies by content hash. Without Live both sides hold one, and a
	// warm transfer is one such round.
	Warm bool
	// Live: both sides advertised capLive, so the state crosses as live
	// rounds, pushed by position unless Warm is set too.
	Live bool
}

// paramsOf decodes the capability set an ACCEPT echoed.
func paramsOf(caps uint32) Params {
	return Params{Warm: caps&capWarm != 0, Live: caps&capLive != 0}
}

// rounds reports whether the state crosses as a round exchange.
func (p Params) rounds() bool { return p.Warm || p.Live }

// caps is the capability set an ACCEPT echoes.
func (p Params) caps() uint32 {
	var caps uint32
	if p.Warm {
		caps |= capWarm
	}
	if p.Live {
		caps |= capLive
	}
	return caps
}

// How names the transfer shape — the short form the journal record and
// migd's summary line report.
func (p Params) How() string {
	switch {
	case p.Live:
		return "live"
	case p.Warm:
		return "warm"
	}
	return "cold"
}

// offer is the decoded OFFER message.
type offer struct {
	digest  uint32
	program string
	machine string
	// traceID and spanID carry the initiator's distributed-trace identity;
	// spanID is 0 when the initiator keeps no span tree.
	traceID, spanID uint64
	caps            uint32
}

// negotiate intersects the capabilities an initiator offered with the
// responder's own: each capability both ends hold is in force. Live rounds
// name their bodies by content hash whenever the responder holds a store,
// which resolves them and checkpoints the result; the initiator needs none
// of its own for that.
func negotiate(o offer, srv Config) Params {
	prm := paramsOf(o.caps & srv.caps())
	prm.Warm = prm.Warm || prm.Live && srv.Store != nil
	return prm
}

// Package session is the migration-session layer of the stack: it sits
// between the migration engine (internal/core) and the transport
// (internal/link) and owns everything two peers must agree on before a
// process state crosses the wire.
//
// The paper's protocol assumes one migration at a time between two
// pre-arranged peers whose operators configured both ends identically.
// This layer replaces that arrangement with a negotiated handshake:
//
//  1. the initiator (the migrating process's node) sends an OFFER — the
//     envelope-version range it speaks, its program digest and name, its
//     machine, its chunk/window proposals, its trace identity and its
//     capability bits;
//  2. the responder (the daemon) looks the digest up in its program
//     registry, picks the transfer shape, takes the more conservative
//     stream parameters, and replies ACCEPT (version, chunk, window,
//     capabilities) — or REJECT with a human-readable reason;
//  3. the state flows in the agreed shape (below);
//  4. the responder restores the process and confirms with RESTORED;
//  5. the initiator answers COMMIT, and the responder activates the
//     restored process only once the COMMIT arrives. The source
//     relinquishes only after a successful COMMIT send, the destination
//     activates only after COMMIT delivery, so under fail-stop faults at
//     frame boundaries exactly one copy survives (DESIGN.md, "Transfer
//     protocol").
//
// # Three wire shapes
//
// Between ACCEPT and RESTORED the state crosses in one of three shapes:
//
//   - the sealed envelope (version 1): one frame, the paper's
//     stop-and-copy baseline, chosen when either side caps its version at
//     core.VersionMono;
//   - the sectioned chunk stream (version 3): a sectioned snapshot cut
//     into CRC-framed chunks by internal/stream — the cold default;
//   - the round exchange (version 3 with a store on both ends, or version
//     4): per round one ANNOUNCE listing every section of the paused
//     state by content hash, one WANT naming the sections the responder
//     cannot resolve from earlier rounds or its checkpoint store, one
//     BODIES carrying exactly those. A store on each end makes a single
//     final round skip every body the destination already holds (a warm
//     migration); the live capability makes the initiator run rounds
//     while the source keeps executing and pause it only for the last.
//
// # Wire format
//
// Every message is one link.Transport frame, XDR-encoded, magic "MSES":
//
//	offer    = magic, OFFER, minVer u32, maxVer u32, digest u32,
//	           program string, machine string, chunk u32, window u32,
//	           traceID u64, spanID u64, caps u32
//	accept   = magic, ACCEPT, version u32, chunk u32, window u32, caps u32
//	reject   = magic, REJECT, reason string
//	restored = magic, RESTORED, bytes u64, spans opaque
//	announce = magic, ANNOUNCE, round u32, flags u32, dirty u32,
//	           manifest opaque, crc u32
//	want     = magic, WANT, count u32, count × index u32
//	bodies   = magic, BODIES, count u32, count × (index u32, body opaque)
//	abort    = magic, ABORT, reason string
//	commit   = magic, COMMIT
//
// caps is a capability bitmap (capWarm advertises a checkpoint store,
// capLive the live pre-copy rounds). spans is the responder's exported
// span tree as JSON, empty when the session is untraced. The announce's
// manifest is a store.Manifest in its canonical encoding, and crc is the
// CRC-32 of every frame byte before it: the section list is the one part
// of a round no later check pins (bodies are held to the length and
// SHA-256 the list declares), so a damaged list is refused outright.
package session

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// sessionMagic guards every session-layer message ("MSES").
const sessionMagic = 0x4d534553

// Message types. internal/chaos mirrors this table to name frames.
const (
	msgOffer uint32 = iota + 1
	msgAccept
	msgReject
	msgRestored
	// The round exchange: one ANNOUNCE/WANT/BODIES triple per round.
	msgAnnounce
	msgWant
	msgBodies
	// msgAbort is the initiator's stand-down notice between rounds.
	msgAbort
	// msgCommit is the initiator's handoff acknowledgement: the source has
	// seen RESTORED and relinquishes the process; the destination
	// activates.
	msgCommit
)

// Capability bits, carried on OFFER and echoed on ACCEPT.
const (
	// capWarm: this side holds a checkpoint store. Both sides advertising
	// it turns a sectioned transfer into one round of the round exchange,
	// whose WANT names only the section bodies the responder's store
	// lacks.
	capWarm uint32 = 1 << 0
	// capLive: this side can run pre-copy rounds (envelope version 4) —
	// the round exchange repeated while the source executes, with a final
	// paused round bounding downtime. Both sides advertising it upgrades a
	// sectioned negotiation to core.VersionLive.
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
	// ErrNoVersion is the negotiation failure: the peers' version ranges
	// do not intersect.
	ErrNoVersion = errors.New("session: no common protocol version")
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

// Config is one side's negotiation posture.
type Config struct {
	// MaxVersion caps the transfer shape this side offers or accepts:
	// core.VersionMono pins the paper's monolithic envelope; zero selects
	// core.VersionSectioned, which also admits the round exchange.
	MaxVersion uint32
	// ChunkSize and Window are this side's streamed-path proposals and
	// caps, in the units of stream.Config; the negotiated values are the
	// minimum of both sides'. Zero selects the stream-layer defaults.
	ChunkSize int
	Window    int
	// Trace, when set, receives one child span per session phase
	// (handshake, collect, transport, restore, confirm). The span tree is
	// local, but its trace identity (trace ID + span ID) crosses the wire
	// so both sides' trees stitch into one; nil disables tracing.
	Trace *obs.Span
	// Metrics receives the per-phase latency histograms
	// (session.phase.<handshake|collect|transport|restore|confirm>).
	// Nil selects obs.Default.
	Metrics *obs.Registry
	// Recorder, when set, receives structured flight-recorder events for
	// the session (phase transitions, negotiation outcomes) and is
	// propagated into the stream layer's rejection events. Nil disables.
	Recorder *obs.FlightRecorder
	// Store, when set, is this side's content-addressed checkpoint store:
	// the handshake advertises capWarm, and when both sides hold a store
	// the transfer announces the snapshot's sections and sends only the
	// bodies the destination's store lacks.
	Store *store.Store
	// Live advertises capLive: when both sides do, a sectioned negotiation
	// upgrades to core.VersionLive, and an initiator whose process is
	// resumable (vm.Process.NoAutoCapture) runs pre-copy rounds while it
	// executes.
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

func (c Config) withDefaults() Config {
	if c.MaxVersion == 0 {
		c.MaxVersion = core.VersionSectioned
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256 << 10
	}
	if c.Window <= 0 {
		c.Window = 16
	}
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
	var caps uint32
	if c.MaxVersion >= core.VersionSectioned {
		if c.Store != nil {
			caps |= capWarm
		}
		if c.Live {
			caps |= capLive
		}
	}
	return caps
}

// Params is the negotiated outcome both sides commit to before transfer.
type Params struct {
	// Version is the agreed envelope version.
	Version uint32
	// ChunkSize and Window shape the streamed path; both sides hold the
	// same values, so no operator flag-matching is needed.
	ChunkSize int
	Window    int
	// Warm: both sides hold a checkpoint store and the negotiated version
	// is sectioned, so the state crosses as one round of the round
	// exchange. Crosses the wire as the ACCEPT capability bit.
	Warm bool
	// Live: both sides advertised capLive and the sectioned negotiation
	// upgraded to core.VersionLive. Crosses the wire as the ACCEPT
	// capability bit.
	Live bool

	// Everything below is local plumbing — never marshalled; each side
	// sets its own after negotiation.

	// Trace is the session span the transfer hangs its phase spans off.
	Trace *obs.Span
	// Recorder is the flight recorder the stream layer reports to.
	Recorder *obs.FlightRecorder
	// Store is this side's checkpoint store (nil when it has none, and on
	// the shapes that do not consult one).
	Store *store.Store
	// Program names the checkpoint ref a round exchange chains under.
	Program string
	// WarmResult (set when Warm) and LiveResult (set when Live) are filled
	// by the round exchange with the outcome of the transfer.
	WarmResult *WarmStats
	LiveResult *LiveStats
}

// plumb attaches this side's local plumbing to a negotiated outcome.
func (p *Params) plumb(cfg Config, program string) {
	p.Trace, p.Recorder = cfg.Trace, cfg.Recorder
	if p.rounds() {
		p.Store, p.Program = cfg.Store, program
	}
	if p.Warm {
		p.WarmResult = new(WarmStats)
	}
	if p.Live {
		p.LiveResult = new(LiveStats)
	}
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

// offer is the decoded OFFER message.
type offer struct {
	minVer, maxVer uint32
	digest         uint32
	program        string
	machine        string
	chunk, window  uint32
	// traceID and spanID carry the initiator's distributed-trace identity.
	traceID, spanID uint64
	caps            uint32
}

// negotiate intersects an initiator's offer with the responder's posture:
// the sectioned shape when both reach it and the monolithic envelope
// otherwise, upgraded by the capabilities both advertise; the smaller
// chunk size, the smaller window.
func negotiate(o offer, srv Config) (Params, error) {
	srv = srv.withDefaults()
	version := core.VersionMono
	if o.maxVer >= core.VersionSectioned && srv.MaxVersion >= core.VersionSectioned {
		version = core.VersionSectioned
	}
	if version < o.minVer || version > o.maxVer {
		return Params{}, fmt.Errorf("%w: initiator speaks %d..%d, responder up to %d",
			ErrNoVersion, o.minVer, o.maxVer, srv.MaxVersion)
	}
	p := Params{Version: version, ChunkSize: srv.ChunkSize, Window: srv.Window}
	if c := int(o.chunk); c > 0 && c < p.ChunkSize {
		p.ChunkSize = c
	}
	if w := int(o.window); w > 0 && w < p.Window {
		p.Window = w
	}
	if version == core.VersionSectioned {
		// Live subsumes warm: its rounds already resolve bodies against
		// the responder's store.
		switch both := o.caps & srv.caps(); {
		case both&capLive != 0:
			p.Version, p.Live = core.VersionLive, true
		case both&capWarm != 0:
			p.Warm = true
		}
	}
	return p, nil
}

package session

import (
	"errors"
	"io"
	"net"
	"os"

	"repro/internal/chaos"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/stream"
)

// FailureClass buckets session failures for diagnostics: the daemon logs
// the class next to each failed session so an operator can tell a damaged
// or forged stream apart from a peer running a different program build
// without reading the error chain.
type FailureClass string

const (
	// FailCorrupt: the transferred state itself is damaged — truncated
	// records, CRC mismatches, invalid references (collect.ErrCorruptStream,
	// the envelope, the chunk stream's framing and totals, the v3 section
	// framing errors).
	FailCorrupt FailureClass = "corrupt-stream"
	// FailMismatch: a well-formed state that belongs to a different
	// program build or plan (collect.ErrMismatch, digest mismatches).
	FailMismatch FailureClass = "program-mismatch"
	// FailNegotiation: the handshake never produced parameters.
	FailNegotiation FailureClass = "negotiation"
	// FailTransport: the connection died or misbehaved under the session
	// — closed transports and links (a peer crash, a daemon drain or
	// Abort, SIGTERM mid-session), deadline expiry, truncated reads,
	// injected chaos faults — plus, as the fallthrough, anything no other
	// class claims. The common shutdown and fault sentinels are matched
	// explicitly so the classification is affirmative, not an accident of
	// the fallthrough surviving a refactor.
	FailTransport FailureClass = "transport"
)

// ClassifyFailure maps a session error to its FailureClass by walking the
// wrapped-error chain for the typed sentinels the collect and core layers
// attach at each decode failure.
func ClassifyFailure(err error) FailureClass {
	switch {
	case errors.Is(err, collect.ErrCorruptStream),
		errors.Is(err, core.ErrBadEnvelope),
		errors.Is(err, stream.ErrVerify),
		errors.Is(err, stream.ErrProtocol),
		errors.Is(err, snapshot.ErrBadSnapshot),
		errors.Is(err, snapshot.ErrBadSection),
		errors.Is(err, snapshot.ErrTruncated),
		errors.Is(err, snapshot.ErrChecksum),
		errors.Is(err, store.ErrCorrupt),
		errors.Is(err, store.ErrBadManifest),
		errors.Is(err, store.ErrNotFound):
		return FailCorrupt
	case errors.Is(err, collect.ErrMismatch),
		errors.Is(err, core.ErrProgramMismatch),
		errors.Is(err, core.ErrVersionMismatch):
		return FailMismatch
	case errors.Is(err, ErrRejected),
		errors.Is(err, ErrUnknownProgram):
		return FailNegotiation
	case errors.Is(err, link.ErrClosed),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, chaos.ErrInjected):
		return FailTransport
	}
	return FailTransport
}

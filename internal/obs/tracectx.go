package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// TraceContext is the cross-machine identity of one traced migration: a
// trace ID minted by the initiator and the ID of the span the peer's work
// nests under. It crosses the wire in the session handshake so the
// source-side collect/transport spans and the destination-side
// restore/confirm spans share one trace and can be stitched into a single
// end-to-end tree.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a minted trace ID.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// String renders the context for logs.
func (tc TraceContext) String() string {
	return fmt.Sprintf("trace=%s span=%s", IDString(tc.TraceID), IDString(tc.SpanID))
}

// IDString renders a trace or span ID in the canonical 16-hex-digit form
// used in exports and file names.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// idFallback seeds the arithmetic fallback generator used if the system
// randomness source ever fails; IDs stay unique within the process, which
// is all correlation needs.
var idFallback atomic.Uint64

// newID mints a random nonzero 64-bit ID.
func newID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return idFallback.Add(0x9e3779b97f4a7c15) | 1
}

// NewTraceContext mints a fresh trace: a new trace ID and a root span ID
// — the initiator's, or a responder's, which adopts the initiator's trace
// ID when it offers one.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: newID(), SpanID: newID()}
}

// Package wire is the vocabulary of the migration stack's two wire
// protocols: the session layer's messages (internal/session, magic
// "MSES") and the chunk stream's (internal/stream, magic "MSTR"). Every
// frame of either starts with its magic and its type number, XDR-encoded
// (big-endian u32 each). Both protocols marshal and parse with the
// numbers defined here, and the fault-injection harness (internal/chaos)
// names frames by Name; nothing else defines them. DESIGN.md §8's frame
// table is held to Messages by this package's tests.
package wire

import "encoding/binary"

// The magics that open every frame of each protocol.
const (
	SessionMagic uint32 = 0x4d534553 // "MSES"
	StreamMagic  uint32 = 0x4d535452 // "MSTR"
)

// Session message types.
const (
	Offer uint32 = iota + 1
	Accept
	Reject
	Restored
	// The round exchange: one ANNOUNCE, WANT (with a responder store),
	// BODIES per round.
	Announce
	Want
	Bodies
	// Abort is the initiator's stand-down notice between rounds.
	Abort
	// Commit is the initiator's handoff acknowledgement: the source has
	// seen RESTORED and relinquishes the process; the destination
	// activates.
	Commit
)

// Stream message types. The gaps (1, 2, 4, 5 and 7) are type numbers the
// stream no longer speaks; they are never reused.
const (
	Data uint32 = 3
	Fin  uint32 = 6
)

// Side is the peer that sends a message.
type Side string

const (
	Initiator Side = "initiator" // the migrating process's node
	Responder Side = "responder" // the node that restores it
)

// Message is one row of the vocabulary.
type Message struct {
	Magic, Type uint32
	Name        string
	From        Side
}

// Messages lists every message either protocol speaks: the session's in
// type order, then the stream's.
var Messages = []Message{
	{SessionMagic, Offer, "offer", Initiator},
	{SessionMagic, Accept, "accept", Responder},
	{SessionMagic, Reject, "reject", Responder},
	{SessionMagic, Restored, "restored", Responder},
	{SessionMagic, Announce, "announce", Initiator},
	{SessionMagic, Want, "want", Responder},
	{SessionMagic, Bodies, "bodies", Initiator},
	{SessionMagic, Abort, "abort", Initiator},
	{SessionMagic, Commit, "commit", Initiator},
	{StreamMagic, Data, "data", Initiator},
	{StreamMagic, Fin, "fin", Initiator},
}

// NameOf returns the name of message type typ under magic, or "" when
// neither protocol speaks it.
func NameOf(magic, typ uint32) string {
	for _, m := range Messages {
		if m.Magic == magic && m.Type == typ {
			return m.Name
		}
	}
	return ""
}

// Name returns the name of the message a frame carries, or "" for a frame
// too short to hold a magic and a type or one neither protocol names.
func Name(frame []byte) string {
	if len(frame) < 8 {
		return ""
	}
	return NameOf(binary.BigEndian.Uint32(frame), binary.BigEndian.Uint32(frame[4:]))
}

package session

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/link"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// announceFinal flags an ANNOUNCE as the final round: the source is paused
// for good, and the responder restores once the round completes.
const announceFinal uint32 = 1 << 0

// announcePush flags an ANNOUNCE whose list names its bodies by position,
// for a responder without a store: the bodies its entries do not carry
// over follow in BODIES unasked.
const announcePush uint32 = 1 << 1

// entry is one section of a pushed list: its header fields, the index in
// the previous round's list of the section whose body it carries over (-1:
// the body follows in this round's BODIES), and the body's CRC-32.
type entry struct {
	kind       snapshot.Kind
	id, length uint32
	from       int32
	crc        uint32
}

// message is a decoded session-layer message.
type message struct {
	typ    uint32
	offer  offer  // OFFER
	params Params // ACCEPT
	reason string // REJECT, ABORT
	bytes  uint64 // RESTORED
	spans  []byte // RESTORED: JSON-encoded responder span tree, or empty

	// ANNOUNCE: the round number, its flags, the dirty-set size the source
	// observed entering the round, and the section list — a manifest naming
	// every body by content hash, or under announcePush the pushed entries.
	round, flags, dirty uint32
	manifest            *store.Manifest
	pushed              []entry
	// WANT and BODIES: manifest indices; BODIES pairs each with its body,
	// which aliases the received frame.
	indices []uint32
	bodies  [][]byte
}

func header(typ uint32, capacity int) *xdr.Encoder {
	e := xdr.NewEncoder(8 + capacity)
	e.PutUint32(wire.SessionMagic)
	e.PutUint32(typ)
	return e
}

func marshalOffer(o offer) []byte {
	e := header(wire.Offer, 40+len(o.program)+len(o.machine))
	e.PutUint32(o.digest)
	e.PutString(o.program)
	e.PutString(o.machine)
	e.PutUint64(o.traceID)
	e.PutUint64(o.spanID)
	e.PutUint32(o.caps)
	return e.Bytes()
}

func marshalAccept(p Params) []byte {
	e := header(wire.Accept, 4)
	e.PutUint32(p.caps())
	return e.Bytes()
}

// marshalReason frames the two messages that carry only a human-readable
// reason: REJECT and ABORT.
func marshalReason(typ uint32, reason string) []byte {
	e := header(typ, 4+len(reason))
	e.PutString(reason)
	return e.Bytes()
}

func marshalRestored(bytes uint64, spans []byte) []byte {
	e := header(wire.Restored, 12+len(spans))
	e.PutUint64(bytes)
	e.PutOpaque(spans)
	return e.Bytes()
}

func marshalCommit() []byte { return header(wire.Commit, 0).Bytes() }

// marshalAnnounce frames one round's section list — the manifest m, or
// when m is nil the pushed entries — and closes the frame with the CRC-32
// of everything before it.
func marshalAnnounce(round, flags uint32, dirty int, m *store.Manifest, pushed []entry) []byte {
	e := header(wire.Announce, 24+20*len(pushed))
	if m != nil {
		e.Put2Uint32(round, flags)
		e.PutUint32(uint32(dirty))
		e.PutOpaque(m.Encode())
	} else {
		e.Put4Uint32(round, flags|announcePush, uint32(dirty), uint32(len(pushed)))
		for _, en := range pushed {
			e.Put4Uint32(uint32(en.kind), en.id, en.length, uint32(en.from))
			e.PutUint32(en.crc)
		}
	}
	e.PutUint32(crc32.ChecksumIEEE(e.Bytes()))
	return e.Bytes()
}

func marshalWant(indices []uint32) []byte {
	e := header(wire.Want, 4+4*len(indices))
	e.PutUint32(uint32(len(indices)))
	for _, i := range indices {
		e.PutUint32(i)
	}
	return e.Bytes()
}

// marshalBodies frames the wanted section bodies, each tagged with its
// manifest index. The capacity accounts for XDR padding so the frame is
// assembled in exactly one allocation — the bodies' only copy on the send
// path.
func marshalBodies(indices []uint32, bodies [][]byte) []byte {
	n := 4
	for _, b := range bodies {
		n += 8 + (len(b)+3)&^3
	}
	e := header(wire.Bodies, n)
	e.PutUint32(uint32(len(indices)))
	for i, idx := range indices {
		e.PutUint32(idx)
		e.PutOpaque(bodies[i])
	}
	return e.Bytes()
}

// parseMessage decodes one session-layer message. Every declared count is
// held against the bytes that remain before anything is sized by it, so a
// hostile frame costs no more memory than its own length.
func parseMessage(raw []byte) (message, error) {
	d := xdr.NewDecoder(raw)
	magic, err := d.Uint32()
	if err != nil || magic != wire.SessionMagic {
		return message{}, fmt.Errorf("%w: bad magic", ErrProtocol)
	}
	typ, err := d.Uint32()
	if err != nil {
		return message{}, fmt.Errorf("%w: missing type", ErrProtocol)
	}
	m := message{typ: typ}
	switch typ {
	case wire.Offer:
		err = parseOffer(d, &m.offer)
	case wire.Accept:
		var caps uint32
		caps, err = d.Uint32()
		m.params = paramsOf(caps)
	case wire.Reject, wire.Abort:
		m.reason, err = d.String()
	case wire.Restored:
		if m.bytes, err = d.Uint64(); err != nil {
			break
		}
		m.spans, err = d.Opaque()
	case wire.Announce:
		return parseAnnounce(d, raw, m)
	case wire.Want:
		var count uint32
		if count, err = d.Uint32(); err != nil || int64(count)*4 > int64(d.Remaining()) {
			return message{}, fmt.Errorf("%w: WANT declares more indices than it carries", ErrProtocol)
		}
		m.indices = make([]uint32, count)
		for i := range m.indices {
			m.indices[i], _ = d.Uint32()
		}
	case wire.Bodies:
		var count uint32
		if count, err = d.Uint32(); err != nil || int64(count)*8 > int64(d.Remaining()) {
			return message{}, fmt.Errorf("%w: BODIES declares more sections than it carries", ErrProtocol)
		}
		m.indices = make([]uint32, count)
		m.bodies = make([][]byte, count)
		for i := range m.indices {
			if m.indices[i], err = d.Uint32(); err != nil {
				break
			}
			if m.bodies[i], err = d.Opaque(); err != nil {
				break
			}
		}
	case wire.Commit:
		// No payload: the frame itself is the acknowledgement.
	default:
		return message{}, fmt.Errorf("%w: unknown message type %d", ErrProtocol, typ)
	}
	if err != nil {
		return message{}, fmt.Errorf("%w: truncated %d message", ErrProtocol, typ)
	}
	if d.Remaining() != 0 {
		return message{}, fmt.Errorf("%w: %d trailing bytes after %d message", ErrProtocol, d.Remaining(), typ)
	}
	return m, nil
}

func parseOffer(d *xdr.Decoder, o *offer) error {
	var err error
	if o.digest, err = d.Uint32(); err != nil {
		return err
	}
	if o.program, err = d.String(); err != nil {
		return err
	}
	if o.machine, err = d.String(); err != nil {
		return err
	}
	if o.traceID, err = d.Uint64(); err != nil {
		return err
	}
	if o.spanID, err = d.Uint64(); err != nil {
		return err
	}
	o.caps, err = d.Uint32()
	return err
}

// parseAnnounce decodes the body of an ANNOUNCE: it is the one place an
// announced section list is decoded. The frame's closing CRC is checked
// first, so a list damaged anywhere is refused before its entries are
// read, and a pushed list must fill the frame exactly, as
// store.DecodeManifest bounds a manifest's entry count by the bytes present.
func parseAnnounce(d *xdr.Decoder, raw []byte, m message) (message, error) {
	body := len(raw) - 4
	if body < 8 || crc32.ChecksumIEEE(raw[:body]) != binary.BigEndian.Uint32(raw[body:]) {
		return message{}, fmt.Errorf("%w: ANNOUNCE frame fails its checksum", store.ErrBadManifest)
	}
	var err error
	if m.round, m.flags, m.dirty, err = d.Uint32x3(); err != nil {
		return message{}, fmt.Errorf("%w: truncated ANNOUNCE", ErrProtocol)
	}
	if m.flags&announcePush != 0 {
		count, err := d.Uint32()
		if err != nil || int64(count)*20 != int64(d.Remaining()-4) {
			return message{}, fmt.Errorf("%w: pushed ANNOUNCE does not hold the entries it declares", ErrProtocol)
		}
		m.pushed = make([]entry, count)
		for i := range m.pushed {
			kind, id, length, from, _ := d.Uint32x4()
			crc, _ := d.Uint32()
			m.pushed[i] = entry{snapshot.Kind(kind), id, length, int32(from), crc}
		}
		return m, nil
	}
	list, err := d.Opaque()
	if err != nil || d.Remaining() != 4 {
		return message{}, fmt.Errorf("%w: malformed ANNOUNCE", ErrProtocol)
	}
	if m.manifest, err = store.DecodeManifest(list); err != nil {
		return message{}, err
	}
	return m, nil
}

// recvMessage reads one frame and decodes it, insisting on message type
// want. An ABORT is surfaced as ErrLiveAborted wherever a round message
// was expected.
func recvMessage(t link.Transport, want uint32) (message, int, error) {
	raw, err := t.Recv()
	if err != nil {
		return message{}, 0, fmt.Errorf("session: %s read: %w", wire.NameOf(wire.SessionMagic, want), err)
	}
	m, err := parseMessage(raw)
	if err != nil {
		return message{}, 0, err
	}
	if m.typ == wire.Abort && want != wire.Abort {
		return message{}, 0, fmt.Errorf("%w: %s", ErrLiveAborted, m.reason)
	}
	if m.typ != want {
		return message{}, 0, fmt.Errorf("%w: expected %s, got %s", ErrProtocol, wire.NameOf(wire.SessionMagic, want), wire.Name(raw))
	}
	return m, len(raw), nil
}

// Package stream is the chunk-stream layer of the migration stack. It
// slots between the state framing (internal/snapshot, written and read by
// internal/session's cold transfer) and the transport layer
// (internal/link): instead of materializing the whole machine-independent
// snapshot and pushing it through one blocking Transport.Send, the
// snapshot is cut into sequence-numbered chunks that a background
// goroutine transmits while the producer — the capture, encoding each
// section body straight into the Writer — keeps writing.
//
// Two types cooperate:
//
//   - Writer cuts the byte stream into chunks and transmits them from a
//     background goroutine behind a bounded queue (backpressure: when the
//     wire lags, the producer blocks, so sender memory is bounded by the
//     queue and the producer's one 64 KiB piece rather than the snapshot
//     size);
//   - Reader checks each chunk's sequence number and the FIN totals, and
//     hands the payloads out in order through Next, so the restore decodes
//     them as they arrive.
//
// The stream is strictly one-directional: the receiver sends nothing at
// all. Whether it accepted the stream is the session's to say (RESTORED).
// Ordering, flow control and acknowledgement are the transport's business.
// The layer detects — never repairs — damage to its own framing: a
// malformed or out-of-order chunk, or a FIN that disagrees with what
// arrived, ends the transfer with a typed error naming the chunk; the
// session above closes the connection, and the source rolls back.
//
// # Wire protocol
//
// Every message is one link.Transport frame. Messages are XDR-encoded;
// the magic ("MSTR") and the type numbers are internal/wire's:
//
//	data = magic, DATA, seq u32, payload opaque
//	fin  = magic, FIN, chunks u32, bytes u64
//
// Sequence numbers start at zero and chunks are transmitted in order. The
// stream carries no checksum of its own: the content is covered end to end
// by the snapshot's per-section CRC, and each hop by the transport's frame
// CRC (link's TCP framing), so one check per purpose covers every byte.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
	"repro/internal/xdr"
)

// Errors reported by the stream layer.
var (
	// ErrProtocol is returned when a peer sends a message that violates
	// the stream protocol (bad magic, unexpected type, sequence gap).
	ErrProtocol = errors.New("stream: protocol violation")
	// ErrVerify is returned when what arrived disagrees with the chunk and
	// byte totals the sender declared in FIN.
	ErrVerify = errors.New("stream: stream verification failed")
)

// Config tunes the streaming layer. The zero value selects the defaults.
type Config struct {
	// ChunkSize is the chunk payload size in bytes (default xdr.PieceSize,
	// the size of the pieces a capture encodes into, so a snapshot of a
	// few hundred kilobytes still crosses in several chunks and its
	// transmission overlaps its encoding). It is how the Writer cuts its
	// stream; a Reader takes chunks of any size.
	ChunkSize int
}

// chunk is one in-flight piece of the snapshot. Its frame is the whole
// DATA message: dataHdr bytes reserved for the header, then the payload
// the producer appended in place — so sealing a chunk for the wire copies
// nothing.
type chunk struct {
	seq   uint32
	frame []byte
}

// dataHdr is the encoded size of a DATA message up to its payload: magic,
// type, seq and the opaque length, four bytes each.
const dataHdr = 16

// chunkFrame returns an empty chunk frame — header room reserved, capacity
// for chunkSize payload bytes and the opaque padding — reusing b's array
// when it is large enough.
func chunkFrame(b []byte, chunkSize int) []byte {
	if cap(b) < dataHdr+chunkSize+3 {
		b = make([]byte, dataHdr, dataHdr+chunkSize+3)
	}
	return b[:dataHdr]
}

func (c chunk) payload() []byte { return c.frame[dataHdr:] }

// seal writes the DATA header in front of the payload, pads the opaque to
// four bytes and returns the finished message.
func (c chunk) seal() []byte {
	p, be := c.payload(), binary.BigEndian
	be.PutUint32(c.frame[0:], wire.StreamMagic)
	be.PutUint32(c.frame[4:], wire.Data)
	be.PutUint32(c.frame[8:], c.seq)
	be.PutUint32(c.frame[12:], uint32(len(p)))
	return append(c.frame, 0, 0, 0)[:dataHdr+(len(p)+3)&^3]
}

// message is a decoded stream-layer control or data message.
type message struct {
	typ     uint32
	seq     uint32 // DATA seq; FIN chunk count
	bytes   uint64 // FIN
	payload []byte // DATA
}

func marshalFin(chunks uint32, bytes uint64) []byte {
	e := xdr.NewEncoder(20)
	e.PutUint32(wire.StreamMagic)
	e.PutUint32(wire.Fin)
	e.PutUint32(chunks)
	e.PutUint64(bytes)
	return e.Bytes()
}

// parseMessage decodes one stream-layer message, which must fill its frame
// exactly.
func parseMessage(raw []byte) (message, error) {
	d := xdr.NewDecoder(raw)
	magic, err := d.Uint32()
	if err != nil || magic != wire.StreamMagic {
		return message{}, fmt.Errorf("%w: bad magic", ErrProtocol)
	}
	typ, err := d.Uint32()
	if err != nil {
		return message{}, fmt.Errorf("%w: missing type", ErrProtocol)
	}
	m := message{typ: typ}
	switch typ {
	case wire.Data:
		if m.seq, err = d.Uint32(); err == nil {
			m.payload, err = d.Opaque()
		}
	case wire.Fin:
		if m.seq, err = d.Uint32(); err == nil {
			m.bytes, err = d.Uint64()
		}
	default:
		return message{}, fmt.Errorf("%w: unknown message type %d", ErrProtocol, typ)
	}
	if err != nil || d.Remaining() != 0 {
		return message{}, fmt.Errorf("%w: %d message does not fill its %d-byte frame", ErrProtocol, typ, len(raw))
	}
	return m, nil
}

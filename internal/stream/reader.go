package stream

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/link"
)

// ReaderStats summarizes one streamed transfer from the receiving side.
type ReaderStats struct {
	Chunks int
	Bytes  int64
	// Duplicates counts chunks discarded because they re-arrived after a
	// resume or rewind.
	Duplicates int
	// Acks counts acknowledgement watermarks sent back to the sender.
	Acks int
	// Nacks counts corrupt chunks converted into re-requests.
	Nacks int
	// Reconnects counts transports consumed after mid-stream failures.
	Reconnects int
}

// Reader reassembles a chunked snapshot stream: it verifies each chunk's
// CRC and sequence number, acknowledges progress every Config.AckEvery
// chunks, and on FIN verifies the whole-stream checksum before confirming
// with DONE. Chunks are delivered strictly in order through Next, so
// restoration can consume the stream incrementally while later chunks are
// still in flight.
//
// With a reaccept function installed, the Reader survives mid-stream
// transport failures: it drops the dead transport, waits for the sender to
// reconnect, answers the sender's HELLO with the next sequence number it
// needs, and continues — the resume protocol of a Session sender.
type Reader struct {
	cfg      Config
	t        link.Transport
	reaccept func() (link.Transport, error)

	nextSeq uint32
	crc     uint32
	bytes   int64
	eof     bool

	stats ReaderStats
}

// NewReader starts receiving a streamed transfer from t.
func NewReader(t link.Transport, cfg Config) *Reader {
	return &Reader{cfg: cfg.withDefaults(), t: t}
}

// SetReaccept installs f, called after a mid-stream transport failure to
// obtain the sender's replacement connection (typically by accepting on
// the same listener). Without it, a transport failure ends the transfer.
func (r *Reader) SetReaccept(f func() (link.Transport, error)) { r.reaccept = f }

// Stats returns the transfer statistics so far.
func (r *Reader) Stats() ReaderStats { return r.stats }

// NextSeq returns the sequence number of the next chunk the reader needs —
// its resume high-water mark.
func (r *Reader) NextSeq() uint32 { return r.nextSeq }

// Transport returns the transport the stream currently runs on, so the
// application can exchange follow-up messages (for example a restoration
// acknowledgement) once Next has returned io.EOF: after DONE the stream
// layer no longer reads from it.
func (r *Reader) Transport() link.Transport { return r.t }

// send transmits a control message, treating failure like a dead
// transport (the caller retries through the reconnect path).
func (r *Reader) send(raw []byte) error { return r.t.Send(raw) }

// reconnect replaces a dead transport via the reaccept hook and answers
// the sender's HELLO. The HELLO itself may instead surface in the normal
// receive loop when the sender reconnects before the receiver notices the
// failure; both paths answer with RESUME(nextSeq).
func (r *Reader) reconnect(cause error) error {
	if r.reaccept == nil {
		return fmt.Errorf("stream: transport failed mid-stream (chunk %d): %w", r.nextSeq, cause)
	}
	r.t.Close()
	t, err := r.reaccept()
	if err != nil {
		return fmt.Errorf("stream: reaccept after %v: %w", cause, err)
	}
	r.t = t
	r.stats.Reconnects++
	r.cfg.Recorder.Record("stream.reaccept", "receiver replaced transport at seq %d after: %v", r.nextSeq, cause)
	return nil
}

// Next returns the payload of the next in-order chunk, or io.EOF once the
// stream completed and was verified. The returned slice is owned by the
// caller: it is the verified payload inside the frame the transport
// allocated for this one message (link.Transport's Recv contract), so no
// later Next aliases it and the Reader keeps no reference to it.
func (r *Reader) Next() ([]byte, error) {
	if r.eof {
		return nil, io.EOF
	}
	for {
		raw, err := r.t.Recv()
		if err != nil {
			if errors.Is(err, link.ErrChecksum) {
				// The frame was corrupt but fully consumed, so the
				// connection is still aligned: re-request instead of
				// aborting the migration.
				r.stats.Nacks++
				r.cfg.Recorder.Record("stream.nack", "frame checksum failed, re-requesting seq %d", r.nextSeq)
				if err := r.send(marshalSeq(msgNack, r.nextSeq)); err != nil {
					if rerr := r.reconnect(err); rerr != nil {
						return nil, rerr
					}
				}
				continue
			}
			if rerr := r.reconnect(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		m, err := parseMessage(raw)
		if err != nil {
			return nil, err
		}
		switch m.typ {
		case msgHello:
			// Sender (re)connected: tell it where to resume.
			if err := r.send(marshalSeq(msgResume, r.nextSeq)); err != nil {
				if rerr := r.reconnect(err); rerr != nil {
					return nil, rerr
				}
			}
		case msgData:
			if m.seq != r.nextSeq {
				// Duplicate after a rewind/resume; drop silently. A gap
				// (seq > nextSeq) is also dropped: the sender's rewind
				// will retransmit the run from nextSeq.
				r.stats.Duplicates++
				continue
			}
			if crc32.ChecksumIEEE(m.payload) != m.crc {
				r.stats.Nacks++
				r.cfg.Recorder.Record("stream.nack", "chunk %d payload crc mismatch, re-requesting", m.seq)
				if err := r.send(marshalSeq(msgNack, r.nextSeq)); err != nil {
					if rerr := r.reconnect(err); rerr != nil {
						return nil, rerr
					}
				}
				continue
			}
			r.nextSeq++
			r.crc = crc32.Update(r.crc, crc32.IEEETable, m.payload)
			r.bytes += int64(len(m.payload))
			r.stats.Chunks++
			r.stats.Bytes = r.bytes
			if int(r.nextSeq)%r.cfg.AckEvery == 0 {
				r.stats.Acks++
				if err := r.send(marshalSeq(msgAck, r.nextSeq)); err != nil {
					// The chunk is already accounted; it must still be
					// delivered below. The lost acknowledgement is
					// re-synchronized by the resume handshake.
					if rerr := r.reconnect(err); rerr != nil {
						return nil, rerr
					}
				}
			}
			return m.payload, nil
		case msgFin:
			if m.seq != r.nextSeq {
				// A FIN for chunks we have not seen: the sender's view is
				// ahead (lost tail); ask it to rewind.
				r.stats.Nacks++
				r.cfg.Recorder.Record("stream.nack", "fin at seq %d but receiver needs %d, rewinding", m.seq, r.nextSeq)
				if err := r.send(marshalSeq(msgNack, r.nextSeq)); err != nil {
					if rerr := r.reconnect(err); rerr != nil {
						return nil, rerr
					}
				}
				continue
			}
			if m.bytes != uint64(r.bytes) || m.crc != r.crc {
				return nil, fmt.Errorf("%w: got %d bytes crc %08x, sender declared %d bytes crc %08x",
					ErrVerify, r.bytes, r.crc, m.bytes, m.crc)
			}
			if err := r.send(marshalDone(uint64(r.bytes))); err != nil {
				return nil, fmt.Errorf("stream: done send: %w", err)
			}
			r.eof = true
			r.stats.flush()
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("%w: unexpected %d message from sender", ErrProtocol, m.typ)
		}
	}
}

// ReadAll drains the stream into one buffer — the non-incremental
// convenience used when restoration wants the whole snapshot. The chunks
// are held as they arrive and joined once at the exact size, so every
// payload byte is copied once (and a single-chunk stream not at all).
func (r *Reader) ReadAll() ([]byte, error) {
	var chunks [][]byte
	for {
		p, err := r.Next()
		if err == io.EOF {
			if len(chunks) == 1 {
				return chunks[0], nil
			}
			return bytes.Join(chunks, nil), nil
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, p)
	}
}

package stream

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/link"
)

// ReaderStats summarizes one streamed transfer from the receiving side.
type ReaderStats struct {
	Chunks int
	Bytes  int64
}

// Reader reassembles a chunked snapshot stream: it verifies each chunk's
// CRC and sequence number, and on FIN verifies the whole-stream checksum
// before confirming with DONE — the one message it ever sends. Chunks are
// delivered strictly in order through Next, so restoration can consume the
// stream incrementally while later chunks are still in flight. Any
// transport failure, damaged chunk or sequence gap ends the transfer with
// an error.
type Reader struct {
	cfg Config
	t   link.Transport

	nextSeq uint32
	crc     uint32
	bytes   int64
	eof     bool

	stats ReaderStats
}

// NewReader starts receiving a streamed transfer from t.
func NewReader(t link.Transport, cfg Config) *Reader {
	return &Reader{cfg: cfg, t: t}
}

// Stats returns the transfer statistics so far.
func (r *Reader) Stats() ReaderStats { return r.stats }

// reject records why the stream was refused and returns the error.
func (r *Reader) reject(err error) error {
	r.cfg.Recorder.Record("stream.reject", "at chunk %d: %v", r.nextSeq, err)
	return err
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
	raw, err := r.t.Recv()
	if err != nil {
		return nil, r.reject(fmt.Errorf("stream: recv: %w", err))
	}
	m, err := parseMessage(raw)
	if err != nil {
		return nil, r.reject(err)
	}
	switch m.typ {
	case msgData:
		if m.seq != r.nextSeq {
			return nil, r.reject(fmt.Errorf("%w: chunk %d arrived, receiver needs %d", ErrProtocol, m.seq, r.nextSeq))
		}
		if crc32.ChecksumIEEE(m.payload) != m.crc {
			return nil, r.reject(fmt.Errorf("%w: chunk %d payload crc mismatch", ErrVerify, m.seq))
		}
		r.nextSeq++
		r.crc = crc32.Update(r.crc, crc32.IEEETable, m.payload)
		r.bytes += int64(len(m.payload))
		r.stats.Chunks++
		r.stats.Bytes = r.bytes
		return m.payload, nil
	case msgFin:
		if m.seq != r.nextSeq || m.bytes != uint64(r.bytes) || m.crc != r.crc {
			return nil, r.reject(fmt.Errorf("%w: got %d chunks, %d bytes, crc %08x; sender declared %d chunks, %d bytes, crc %08x",
				ErrVerify, r.nextSeq, r.bytes, r.crc, m.seq, m.bytes, m.crc))
		}
		if err := r.t.Send(marshalDone(uint64(r.bytes))); err != nil {
			return nil, r.reject(fmt.Errorf("stream: done send: %w", err))
		}
		r.eof = true
		r.stats.flush()
		return nil, io.EOF
	default:
		return nil, r.reject(fmt.Errorf("%w: unexpected %d message from sender", ErrProtocol, m.typ))
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

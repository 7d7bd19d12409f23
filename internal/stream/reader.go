package stream

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/link"
	"repro/internal/wire"
)

// Reader receives a chunked snapshot stream: it checks each chunk's
// framing and sequence number, and on FIN the chunk and byte totals. It
// sends nothing. Chunks are delivered strictly in order through Next, so
// restoration consumes the stream while later chunks are still in flight.
// Any transport failure, malformed chunk, sequence gap or FIN that
// disagrees with what arrived ends the transfer with an error naming the
// chunk.
type Reader struct {
	cfg Config
	t   link.Transport

	nextSeq uint32
	bytes   int64
	eof     bool
	frames  [][]byte // the DATA frames Next handed out, for Recycle
}

// NewReader starts receiving a streamed transfer from t.
func NewReader(t link.Transport, cfg Config) *Reader {
	return &Reader{cfg: cfg, t: t}
}

// reject records why the stream was refused and returns the error, naming
// the chunk it was refused at.
func (r *Reader) reject(err error) error {
	r.cfg.Recorder.Record("stream.reject", "at chunk %d: %v", r.nextSeq, err)
	return fmt.Errorf("stream: at chunk %d: %w", r.nextSeq, err)
}

// Next returns the payload of the next in-order chunk, or io.EOF once the
// stream completed and its FIN totals held. The returned slice is owned by
// the caller: it is the payload inside the frame the transport allocated
// for this one message (link.Transport's Recv contract), so no later Next
// aliases it, and it stays valid until Recycle.
func (r *Reader) Next() ([]byte, error) {
	if r.eof {
		return nil, io.EOF
	}
	raw, err := r.t.Recv()
	if err != nil {
		return nil, r.reject(fmt.Errorf("recv: %w", err))
	}
	m, err := parseMessage(raw)
	if err != nil {
		return nil, r.reject(err)
	}
	switch m.typ {
	case wire.Data:
		if m.seq != r.nextSeq {
			return nil, r.reject(fmt.Errorf("%w: chunk %d arrived", ErrProtocol, m.seq))
		}
		r.nextSeq++
		r.frames = append(r.frames, raw)
		r.bytes += int64(len(m.payload))
		return m.payload, nil
	case wire.Fin:
		if m.seq != r.nextSeq || m.bytes != uint64(r.bytes) {
			return nil, r.reject(fmt.Errorf("%w: FIN declares %d chunks, %d bytes; %d bytes arrived",
				ErrVerify, m.seq, m.bytes, r.bytes))
		}
		r.eof = true
		return nil, io.EOF
	default:
		return nil, r.reject(fmt.Errorf("%w: unexpected %d message from sender", ErrProtocol, m.typ))
	}
}

// Recycle hands the frames of every payload Next returned back to the
// transport layer (link.Recycle), for the next stream to be received into.
// The caller must hold no slice of any payload any longer.
func (r *Reader) Recycle() {
	for _, f := range r.frames {
		link.Recycle(f)
	}
	r.frames = nil
}

// ReadAll drains the stream into one buffer. No restore calls it — the
// cold destination decodes the chunks Next hands out as they arrive — but
// a caller that wants the whole payload at once (a throughput probe) may.
// The chunks are held as they arrive and joined once at the exact size, so
// every payload byte is copied once (and a single-chunk stream not at all).
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

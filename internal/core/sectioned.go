package core

// Sectioned migration (envelope version 3): the captured state is a
// sectioned snapshot (internal/snapshot) — execution state, heap
// components, frames, and globals as typed, independently CRC-framed
// sections — whose heap components were encoded concurrently by the
// collection layer. On the wire it rides the internal/stream chunk layer.
// The snapshot's per-section CRCs let the restorer localize corruption to
// one section even when the transport has no framing of its own.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/xdr"
)

// OpenSectioned verifies a reassembled sectioned envelope and returns the
// raw snapshot and the source machine name.
func (e *Engine) OpenSectioned(payload []byte) (state []byte, srcName string, err error) {
	dec := xdr.NewDecoder(payload)
	h, err := e.openHeader(dec, VersionSectioned)
	if err != nil {
		return nil, "", err
	}
	return payload[dec.Offset():], h.srcName, nil
}

// SendSectioned captures the state of p (stopped at its migration point)
// as a sectioned snapshot and transmits it through sw in chunkSize
// pieces. Collection does not overlap transmission: every section is
// encoded before the first is flushed.
//
// The path is zero-copy per section body: snapshot.Append hands each
// body to the sink through the encoder's WriteRaw, so the bytes go from
// the section's (pooled, reused) encode buffer straight into sw's chunk
// buffers without staging through an intermediate envelope buffer.
func (e *Engine) SendSectioned(sw io.WriteCloser, src *arch.Machine, p *vm.Process, chunkSize int) (Timing, error) {
	start := time.Now()
	enc := xdr.NewEncoder(chunkSize + 1024)
	enc.SetSink(chunkSize, func(b []byte) error {
		_, err := sw.Write(b)
		return err
	})
	// The shared envelope header, followed directly by the snapshot.
	putHeader(enc, VersionSectioned, src.Name, e.Digest())
	if err := p.CaptureSectionsTo(enc); err != nil {
		sw.Close()
		return Timing{}, fmt.Errorf("core: sectioned collection: %w", err)
	}
	if err := enc.FlushSink(); err != nil {
		sw.Close()
		return Timing{}, fmt.Errorf("core: sectioned transfer: %w", err)
	}
	if err := sw.Close(); err != nil {
		return Timing{}, fmt.Errorf("core: sectioned transfer: %w", err)
	}
	return Timing{Tx: time.Since(start), Bytes: enc.Len()}, nil
}

// ReceiveAndRestoreSectioned reassembles a sectioned envelope from r,
// verifies it, and restores the process on machine m section by section,
// recording the reassembly and restore phases as children of span (nil
// disables tracing).
func (e *Engine) ReceiveAndRestoreSectioned(r *stream.Reader, m *arch.Machine, span *obs.Span) (*vm.Process, Timing, error) {
	rx := span.Child("transport")
	rxStart := time.Now()
	payload, err := r.ReadAll()
	mRxLat.Observe(time.Since(rxStart))
	rx.SetBytes(int64(len(payload)))
	rx.End()
	if err != nil {
		return nil, Timing{}, err
	}
	state, _, err := e.OpenSectioned(payload)
	if err != nil {
		return nil, Timing{}, err
	}
	start := time.Now()
	p, err := vm.RestoreProcessObs(e.Prog, m, state, span)
	if err != nil {
		return nil, Timing{}, err
	}
	restore := time.Since(start)
	mRestoreLat.Observe(restore)
	return p, Timing{Restore: restore, Bytes: len(payload)}, nil
}

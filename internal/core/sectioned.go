package core

// Sectioned migration (envelope version 3): the captured state is a
// sectioned snapshot (internal/snapshot) — execution state, heap
// components, frames, and globals as typed, independently CRC-framed
// sections. On the wire it rides the internal/stream chunk layer.
// The snapshot's per-section CRCs let the restorer localize corruption to
// one section even when the transport has no framing of its own.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/xdr"
)

// OpenSectioned verifies a reassembled sectioned envelope and returns the
// raw snapshot behind its header.
func (e *Engine) OpenSectioned(payload []byte) ([]byte, error) {
	dec := xdr.NewDecoder(payload)
	if err := e.openHeader(dec); err != nil {
		return nil, err
	}
	return payload[dec.Offset():], nil
}

// SendSectioned captures the state of p (stopped at its migration point)
// as a section list and writes it — the envelope header, then the framed
// sections — straight into sw, closing it. Collection does not overlap
// transmission: every section is encoded before the first is written. A
// section body is copied once, from the pooled encoder it was built in
// into sw (a stream.Writer cuts its chunks however the writes arrive), and
// the encoders go back once the last has been written.
func (e *Engine) SendSectioned(sw io.WriteCloser, src *arch.Machine, p *vm.Process) (Timing, error) {
	start := time.Now()
	n, err := e.writeSectioned(sw, src, p)
	if err != nil {
		sw.Close()
		return Timing{}, fmt.Errorf("core: sectioned transfer: %w", err)
	}
	if err := sw.Close(); err != nil {
		return Timing{}, fmt.Errorf("core: sectioned transfer: %w", err)
	}
	return Timing{Tx: time.Since(start), Bytes: n}, nil
}

// writeSectioned is SendSectioned's body: capture, write, and hand the
// encoders back on every path. It returns the bytes written.
func (e *Engine) writeSectioned(w io.Writer, src *arch.Machine, p *vm.Process) (int, error) {
	secs, release, err := p.Sections()
	if err != nil {
		return 0, err
	}
	defer release()
	hdr := xdr.NewEncoder(32)
	putHeader(hdr, src.Name, e.Digest())
	n, err := w.Write(hdr.Bytes())
	if err != nil {
		return n, err
	}
	m, err := obs.PhaseOf("transport", func() (int, error) { return snapshot.Write(w, secs) })
	return n + m, err
}

// ReceiveAndRestoreSectioned reassembles a sectioned envelope from r,
// verifies it, and restores the process on machine m section by section,
// recording the reassembly and restore phases as children of span (nil
// disables tracing).
func (e *Engine) ReceiveAndRestoreSectioned(r *stream.Reader, m *arch.Machine, span *obs.Span) (*vm.Process, Timing, error) {
	rx := span.Child("transport")
	rxStart := time.Now()
	payload, err := obs.PhaseOf("transport", r.ReadAll)
	mRxLat.Observe(time.Since(rxStart))
	rx.SetBytes(int64(len(payload)))
	rx.End()
	if err != nil {
		return nil, Timing{}, err
	}
	state, err := e.OpenSectioned(payload)
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

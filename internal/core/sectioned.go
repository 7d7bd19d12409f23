package core

// Sectioned migration (envelope version 3): the captured state is a
// sectioned snapshot (internal/snapshot) — execution state, heap
// components, frames, and globals as typed, independently CRC-framed
// sections. On the wire it rides the internal/stream chunk layer, and the
// destination restores it out of the chunks as they arrive. The snapshot's
// per-section CRCs are the content check end to end: they localize
// corruption to one section even when the transport has no framing of its
// own.

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

// ReceiveAndRestoreSectioned restores the process the cold stream r
// carries on machine m, consuming the stream as it arrives: the envelope
// header is checked, and every section is decoded straight out of the
// chunk payloads into a vm.Restore — exec first, which pushes the frames,
// then the heap components, frames and globals, each into place — with its
// CRC compared at its last byte. No chunk is joined or parsed twice; after
// the last one only the globals and the FIN remain. The phases are
// children of span (nil disables tracing): "transport" is the time spent
// waiting for chunks, "restore" the sum of the apply steps, and
// Timing.Restore the latter. A failure returns no process.
func (e *Engine) ReceiveAndRestoreSectioned(r *stream.Reader, m *arch.Machine, span *obs.Span) (*vm.Process, Timing, error) {
	p, err := e.NewProcess(m)
	if err != nil {
		return nil, Timing{}, err
	}
	p.Obs = span
	// Every body lands in the process's own memory, so once the restore
	// returns no chunk frame is referenced and the next stream reuses them.
	defer r.Recycle()
	rx, shell := span.Child("transport"), p.NewRestore()
	var waited time.Duration
	var broken error // the stream's own failure, which outranks what a decoder made of it
	in := xdr.NewFeedDecoder(-1, func() ([]byte, error) {
		start := time.Now()
		b, err := obs.PhaseOf("transport", r.Next)
		d := time.Since(start)
		waited += d
		shell.Idle(d)
		if err != nil && err != io.EOF {
			broken = err
		}
		return b, err
	})
	if err = e.openHeader(in); err == nil {
		if err = shell.Read(in); err == nil {
			err = shell.Finish()
		}
	}
	mRxLat.Observe(waited)
	rx.SetBytes(int64(in.Offset()))
	rx.SetDuration(waited)
	if broken != nil {
		err = broken
	}
	if err != nil {
		return nil, Timing{}, err
	}
	mRestoreLat.Observe(p.RestoreElapsed())
	return p, Timing{Restore: p.RestoreElapsed(), Bytes: in.Offset()}, nil
}

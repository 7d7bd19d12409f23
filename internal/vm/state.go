package vm

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/collect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/xdr"
)

// This file implements the transfer of process state. A captured state
// is one sectioned snapshot (internal/snapshot), with two parts mirroring
// the paper's design:
//
//   - the execution state, the exec section: the chain of active function
//     invocations and, for each, the migration site it is stopped at (the
//     innermost frame at the poll-point where migration occurred; each
//     outer frame at the call statement through which control entered the
//     next frame);
//
//   - the memory state: for each frame, innermost first, the values of the
//     variables live at its site, collected from the paper's Save_variable
//     roots by one depth-first traversal that brings in every reachable
//     heap block, and the global variables (sectioned.go).
//
// Restoration rebuilds the frames (registering their locals under the same
// machine-independent block identifications), restores the live data, and
// leaves the process ready to resume each function at its site.

// StateStats describes one captured state, for the experiment harness.
type StateStats struct {
	Frames int
	Save   collect.SaveStats
	// Bytes is the size of the section bodies the capture encoded (a live
	// round's reused bodies not counted).
	Bytes int
	// Elapsed is the wall time of the whole capture (the paper's
	// "Collect" column), measured unconditionally.
	Elapsed time.Duration
}

// CaptureStats of the last migration performed by this process.
func (p *Process) CaptureStats() StateStats { return p.captureStats }

// RestoreStatsOf returns the statistics of the restore that initialized
// this process, when one did (RestoreInto, or a session's restore).
func (p *Process) RestoreStatsOf() collect.RestoreStats { return p.restoreStats }

// RestoreElapsed returns the wall time of the restore that initialized
// this process (the paper's "Restore" column).
func (p *Process) RestoreElapsed() time.Duration { return p.restoreElapsed }

// Recapture collects the full process state at the migration point the
// process is stopped at, as a sectioned snapshot: what a cold session
// carries, written into a buffer of exactly its size (WriteSnapshot).
// Collection does not modify the process, so every capture of one stopped
// state yields the same bytes, on any machine.
func (p *Process) Recapture() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := p.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// captureSites resolves the site every active frame is stopped at:
// innermost is the poll-point that triggered this migration; each outer
// frame is at the call statement through which control entered the next
// frame; a restored-but-not-yet-resumed process is still at the sites the
// stream recorded.
func (p *Process) captureSites(innermost *minic.Site) ([]*minic.Site, error) {
	sites := make([]*minic.Site, len(p.frames))
	for i, f := range p.frames {
		switch {
		case i == len(p.frames)-1:
			sites[i] = innermost
		case f.curSite != nil:
			sites[i] = f.curSite
		case len(p.resumeSites) == len(p.frames):
			sites[i] = p.resumeSites[i]
		}
		if sites[i] == nil {
			return nil, fmt.Errorf("vm: frame %d (%s) has no active migration site", f.Depth, f.Fn.Name)
		}
	}
	return sites, nil
}

// stoppedSite resolves the migration site this process is stopped at.
func (p *Process) stoppedSite() (*minic.Site, error) {
	site := p.lastSite
	if site == nil && len(p.resumeSites) > 0 {
		// A freshly restored process is stopped at the site its
		// innermost frame was captured at; re-capturing there encodes
		// the same logical state in this machine's representation.
		site = p.resumeSites[len(p.resumeSites)-1]
	}
	if site == nil {
		return nil, errors.New("vm: process is not stopped at a migration point")
	}
	return site, nil
}

// RestoreInto restores a captured state into a freshly created process
// (one that has not started running), which Run then resumes from the
// migration point. Callers can configure the process — for example set
// its span (Obs) — before the restore runs.
func (p *Process) RestoreInto(state []byte) error {
	if len(p.frames) != 0 {
		return errors.New("vm: RestoreInto on a process that already has frames")
	}
	return obs.Phase("restore", func() error { return p.restoreState(state) })
}

// restoreState restores a framed sectioned snapshot section by section
// through the one restore loop; a stream that does not open with the
// snapshot magic is refused.
func (p *Process) restoreState(state []byte) error {
	r := p.NewRestore()
	if err := r.Read(xdr.NewDecoder(state)); err != nil {
		return err
	}
	return r.Finish()
}

// putExecState encodes the execution state — frame count, then per frame
// the function name and the site it is stopped at — as the body of the
// exec section.
func (p *Process) putExecState(enc *xdr.Encoder, sites []*minic.Site) {
	enc.PutUint32(uint32(len(p.frames)))
	for i, f := range p.frames {
		enc.PutString(f.Fn.Name)
		enc.PutUint32(uint32(sites[i].ID))
	}
}

// decodeExecState decodes what putExecState wrote: the function of every
// frame, outermost first, and the site each is stopped at, which must form
// the call chain the process can resume along.
func (p *Process) decodeExecState(dec *xdr.Decoder) ([]*minic.FuncSymbol, []*minic.Site, error) {
	nframes, err := dec.Uint32()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: truncated execution state", collect.ErrCorruptStream)
	}
	if nframes == 0 || nframes > 1<<16 || int64(nframes)*8 > int64(dec.Remaining()) {
		return nil, nil, fmt.Errorf("%w: implausible frame count %d", collect.ErrCorruptStream, nframes)
	}
	fns, sites := make([]*minic.FuncSymbol, nframes), make([]*minic.Site, nframes)
	for i := range sites {
		name, err := dec.String()
		siteID, err2 := dec.Uint32()
		if err != nil || err2 != nil {
			return nil, nil, fmt.Errorf("%w: truncated execution state", collect.ErrCorruptStream)
		}
		if fns[i] = p.Prog.Func(name); fns[i] == nil {
			return nil, nil, fmt.Errorf("%w: state references unknown function %s", collect.ErrMismatch, name)
		}
		if sites[i] = fns[i].SiteByID(int(siteID)); sites[i] == nil {
			return nil, nil, fmt.Errorf("%w: function %s has no migration site %d", collect.ErrMismatch, name, siteID)
		}
		// Every outer frame is stopped at a call to the next frame's
		// function, and the innermost at a poll point.
		if i > 0 && (sites[i-1].Call == nil || sites[i-1].Call.Func != fns[i]) || i == len(sites)-1 && sites[i].Call != nil {
			return nil, nil, fmt.Errorf("%w: frame %d (%s at site %d) breaks the call chain", collect.ErrMismatch, i+1, name, siteID)
		}
	}
	return fns, sites, nil
}

// pushFrames rebuilds the frame chain decodeExecState described, and
// registers its locals in the MSRLT for the frame sections to restore into.
func (p *Process) pushFrames(fns []*minic.FuncSymbol) error {
	for _, fn := range fns {
		if _, err := p.pushFrame(fn); err != nil {
			return err
		}
	}
	return p.registerFrames()
}

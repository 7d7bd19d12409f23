package vm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// This file implements the transfer of process state. The stream has two
// parts, mirroring the paper's design:
//
//   - the execution state: the chain of active function invocations and,
//     for each, the migration site it is stopped at (the innermost frame at
//     the poll-point where migration occurred; each outer frame at the call
//     statement through which control entered the next frame);
//
//   - the memory state: for each frame, innermost first, the values of the
//     variables live at its site, collected with the MSRM library's
//     Save_variable (whose depth-first traversal brings in every reachable
//     heap block), followed by the global variables.
//
// Restoration rebuilds the frames (re-registering the same machine-
// independent block identifications), restores the live data, and leaves
// the process ready to fast-forward each function to its site.

const execMagic = 0x45584543 // "EXEC"

// StateStats describes one captured state, for the experiment harness.
type StateStats struct {
	Frames int
	Save   collect.SaveStats
	// Bytes is the size of what the capture encoded: the whole stream of a
	// monolithic capture, the section bodies of a sectioned one (a live
	// round's reused bodies not counted).
	Bytes int
	// Elapsed is the wall time of the whole capture (the paper's
	// "Collect" column), measured unconditionally.
	Elapsed time.Duration
}

// CaptureStats of the last migration performed by this process.
func (p *Process) CaptureStats() StateStats { return p.captureStats }

// RestoreStatsOf returns the statistics of the restore that initialized
// this process, when it was created by RestoreProcess.
func (p *Process) RestoreStatsOf() collect.RestoreStats { return p.restoreStats }

// RestoreElapsed returns the wall time of the restore that initialized
// this process (the paper's "Restore" column).
func (p *Process) RestoreElapsed() time.Duration { return p.restoreElapsed }

// Recapture re-collects the full process state at the migration point the
// process is stopped at. The measurement harness uses it to time data
// collection repeatedly without re-executing the program; collection does
// not modify the process, so every capture yields an identical stream.
func (p *Process) Recapture() ([]byte, error) {
	site, err := p.stoppedSite()
	if err != nil {
		return nil, err
	}
	return obs.PhaseOf("collect", func() ([]byte, error) { return p.captureState(site) })
}

// captureSites resolves the site every active frame is stopped at:
// innermost is the poll-point that triggered this migration; each outer
// frame is at the call statement through which control entered the next
// frame; a restored-but-not-yet-resumed process is still at the sites the
// stream recorded.
func (p *Process) captureSites(innermost *minic.Site) ([]*minic.Site, error) {
	sites := make([]*minic.Site, len(p.frames))
	for i, f := range p.frames {
		var site *minic.Site
		switch {
		case i == len(p.frames)-1:
			site = innermost
		case f.curSite != nil:
			site = f.curSite
		case len(p.resumeSites) == len(p.frames):
			site = p.resumeSites[i]
		}
		if site == nil {
			return nil, fmt.Errorf("vm: frame %d (%s) has no active migration site", f.Depth, f.Fn.Name)
		}
		sites[i] = site
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

// captureState encodes the full process state at a migration point.
// innermost is the poll site that triggered the migration.
func (p *Process) captureState(innermost *minic.Site) ([]byte, error) {
	enc := xdr.NewEncoder(1 << 12)
	p.lastSite = innermost
	captureStart := time.Now()
	span := p.Obs.Child("collect")
	span.SetAttr("format", "mono")
	defer span.End()
	sites, err := p.captureSites(innermost)
	if err != nil {
		return nil, err
	}
	enc.PutUint32(execMagic)
	p.putExecState(enc, sites)

	saver := collect.NewSaver(p.Space, p.Table, p.TI, enc)
	saver.Instrument = p.Instrument
	// Live data, innermost frame first (as in the paper's example, where
	// foo's live data precedes main's).
	for i := len(p.frames) - 1; i >= 0; i-- {
		f := p.frames[i]
		for _, v := range sites[i].Live {
			if err := saver.SaveVariable(p.VarAddr(f, v)); err != nil {
				return nil, fmt.Errorf("vm: collecting %s in %s: %w", v.Name, f.Fn.Name, err)
			}
		}
	}
	// Globals last.
	for _, g := range p.Prog.Globals {
		if err := saver.SaveVariable(p.globalAddrs[g.Index]); err != nil {
			return nil, fmt.Errorf("vm: collecting global %s: %w", g.Name, err)
		}
	}
	saver.Finish()
	p.captureStats = StateStats{
		Frames:  len(p.frames),
		Save:    saver.Stats,
		Bytes:   enc.Len(),
		Elapsed: time.Since(captureStart),
	}
	span.SetBytes(int64(enc.Len()))
	flushCapture(enc.Calls(), enc.Len())
	return enc.Bytes(), nil
}

// RestoreProcess builds a process on machine m from a captured state and
// prepares it to resume. Run() continues execution from the migration
// point.
func RestoreProcess(prog *minic.Program, m *arch.Machine, state []byte) (*Process, error) {
	p, err := NewProcess(prog, m)
	if err != nil {
		return nil, err
	}
	if err := p.RestoreInto(state); err != nil {
		return nil, err
	}
	return p, nil
}

// RestoreInto restores a captured state into a freshly created process
// (one that has not started running). RestoreProcess is the common path;
// RestoreInto exists so callers can configure the process — for example
// set its span (Obs) or enable instrumentation — before the restore runs.
func (p *Process) RestoreInto(state []byte) error {
	if len(p.frames) != 0 {
		return errors.New("vm: RestoreInto on a process that already has frames")
	}
	return obs.Phase("restore", func() error { return p.restoreState(state) })
}

func (p *Process) restoreState(state []byte) error {
	restoreStart := time.Now()
	dec := xdr.NewDecoder(state)
	magic, err := dec.Uint32()
	if err != nil {
		return fmt.Errorf("vm: bad execution state header")
	}
	if magic == snapshot.Magic {
		// A sectioned snapshot; both formats restore through this
		// entry point, distinguished by their leading magic.
		return p.restoreSectioned(state)
	}
	if magic != execMagic {
		return fmt.Errorf("vm: bad execution state header")
	}
	span := p.Obs.Child("restore")
	span.SetAttr("format", "mono")
	defer span.End()
	fns, sites, err := p.decodeExecState(dec)
	if err != nil {
		return err
	}
	if err := p.pushFrames(fns); err != nil {
		return err
	}

	restorer := collect.NewRestorer(p.Space, p.Table, p.TI, dec)
	restorer.Instrument = p.Instrument
	for i := len(sites) - 1; i >= 0; i-- {
		f := p.frames[i]
		for _, v := range sites[i].Live {
			if err := restorer.RestoreVariable(p.VarAddr(f, v)); err != nil {
				return fmt.Errorf("vm: restoring %s in %s: %w", v.Name, f.Fn.Name, err)
			}
		}
	}
	for _, g := range p.Prog.Globals {
		if err := restorer.RestoreVariable(p.globalAddrs[g.Index]); err != nil {
			return fmt.Errorf("vm: restoring global %s: %w", g.Name, err)
		}
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("vm: %d trailing bytes in state stream", dec.Remaining())
	}
	p.resumeSites = sites
	p.restoreStats = restorer.Stats
	p.restoreElapsed = time.Since(restoreStart)
	span.SetBytes(int64(len(state)))
	flushRestore(dec.Calls())
	return nil
}

// putExecState encodes the execution state — frame count, then per frame
// the function name and the site it is stopped at. The v1 stream carries
// it behind execMagic, the sectioned snapshot as the body of its exec
// section.
func (p *Process) putExecState(enc *xdr.Encoder, sites []*minic.Site) {
	enc.PutUint32(uint32(len(p.frames)))
	for i, f := range p.frames {
		enc.PutString(f.Fn.Name)
		enc.PutUint32(uint32(sites[i].ID))
	}
}

// decodeExecState decodes what putExecState wrote: the function of every
// frame, outermost first, and the site each is stopped at.
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
		if err != nil {
			return nil, nil, fmt.Errorf("%w: truncated execution state", collect.ErrCorruptStream)
		}
		siteID, err := dec.Uint32()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: truncated execution state", collect.ErrCorruptStream)
		}
		fns[i] = p.Prog.Func(name)
		if fns[i] == nil {
			return nil, nil, fmt.Errorf("%w: state references unknown function %s", collect.ErrMismatch, name)
		}
		if sites[i] = fns[i].SiteByID(int(siteID)); sites[i] == nil {
			return nil, nil, fmt.Errorf("%w: function %s has no migration site %d", collect.ErrMismatch, name, siteID)
		}
	}
	return fns, sites, nil
}

// pushFrames rebuilds the frame chain decodeExecState described.
func (p *Process) pushFrames(fns []*minic.FuncSymbol) error {
	for _, fn := range fns {
		if _, err := p.pushFrame(fn); err != nil {
			return err
		}
	}
	return nil
}

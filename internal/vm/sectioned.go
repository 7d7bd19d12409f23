package vm

// Sectioned (v3) state transfer. The capture partitions the reachable MSR
// graph into independently-framed sections (internal/snapshot) and encodes
// them one after the other (internal/collect's EncodeSections); the
// restore walks the sections in order, rebuilding the MSRLT
// section-by-section with a per-section CRC check.
//
// Section order is deterministic, so two captures of the same stopped
// process produce byte-identical snapshots:
//
//	exec #0, heap #0..H-1 (component number), frame #depth
//	(innermost first), globals #0

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// Sections is the exported face of the one sectioned producer: the state
// of the stopped process as a section list in snapshot order. The bodies
// alias pooled encoders until release is called; whoever frames, stores or
// ships them calls it once it is done with them.
func (p *Process) Sections() (secs []snapshot.Section, release func(), err error) {
	secs, _, release, err = p.captureSectionList(nil, nil)
	return secs, release, err
}

// CaptureSections is Sections framed into a sectioned (v3) snapshot. The
// parameter is inert — it was the width of the encoding pool, which is
// gone — and stays only because bench/program.go, which no ordinary change
// may edit, passes one.
func (p *Process) CaptureSections(_ int) ([]byte, error) {
	secs, release, err := p.Sections()
	if err != nil {
		return nil, err
	}
	defer release()
	return snapshot.Encode(secs), nil
}

// captureSectionList is the one sectioned producer, behind cold, warm and
// live captures alike: it collects the state at the site the process is
// stopped at and returns every section in the deterministic snapshot
// order — exec, heap components by number, frames innermost first,
// globals. With a tracker (a live round) the sections dirty cannot have
// touched are reused from it — reused marks them — and every body is
// tracker-owned; without one the bodies alias pooled encoders until
// release is called. The
// capture is recorded here, once, counting the sections that were
// encoded (not the reused ones): CaptureStats, a "collect" span with
// partition, encode and per-section children, the vm.section.encode
// histogram and the capture counters.
func (p *Process) captureSectionList(dt *collect.DeltaTracker, dirty collect.DirtyFunc) (secs []snapshot.Section, reused []bool, release func(), err error) {
	start := time.Now()
	innermost, err := p.stoppedSite()
	if err != nil {
		return nil, nil, nil, err
	}
	sites, err := p.captureSites(innermost)
	if err != nil {
		return nil, nil, nil, err
	}
	span := p.Obs.Child("collect")
	if dt != nil {
		span.SetAttr("format", "delta")
	} else {
		span.SetAttr("format", "sectioned")
	}
	defer span.End()

	baseSearches := p.Table.Stats.Searches
	baseSteps := p.Table.Stats.SearchSteps
	roots := p.liveRoots(sites)
	encStart := time.Now()
	st, err := obs.PhaseOf("collect", func() (*collect.SectionedState, error) {
		return collect.EncodeSections(p.Space, p.Table, p.TI, roots, dt, dirty)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	span.Child("partition").SetDuration(st.Partition)
	span.Child("encode").SetDuration(time.Since(encStart) - st.Partition)

	execStart := time.Now()
	execEnc := xdr.NewEncoder(64)
	p.putExecState(execEnc, sites)
	execElapsed := time.Since(execStart)

	nframes := len(p.frames)
	secs = make([]snapshot.Section, 0, 1+len(st.Heap)+nframes+1)
	reused = make([]bool, 0, cap(secs))
	calls, fresh := st.Calls+execEnc.Calls(), 0
	add := func(kind snapshot.Kind, id uint32, body []byte, elapsed time.Duration, carried bool) {
		secs = append(secs, snapshot.Section{Kind: kind, ID: id, Body: body})
		reused = append(reused, carried)
		if carried {
			return
		}
		fresh += len(body)
		// The encoding already ran; record each section as a child with
		// its measured duration rather than wall time.
		c := span.Child("section")
		c.SetSection(kind.String(), id)
		c.SetBytes(int64(len(body)))
		c.SetDuration(elapsed)
		mSectionEncode.Observe(elapsed)
	}
	add(snapshot.KindExec, 0, execEnc.Bytes(), execElapsed, false)
	for i, h := range st.Heap {
		add(snapshot.KindHeap, uint32(i), h.Body, h.Elapsed, h.Reused)
	}
	for i := nframes - 1; i >= 0; i-- {
		add(snapshot.KindFrame, uint32(i+1), st.Frames[i].Body, st.Frames[i].Elapsed, st.Frames[i].Reused)
	}
	add(snapshot.KindGlobals, 0, st.Globals.Body, st.Globals.Elapsed, st.Globals.Reused)

	save := st.Stats
	save.Searches = p.Table.Stats.Searches - baseSearches
	save.SearchSteps = p.Table.Stats.SearchSteps - baseSteps
	p.captureStats = StateStats{
		Frames:  nframes,
		Save:    save,
		Bytes:   fresh,
		Elapsed: time.Since(start),
	}
	span.SetBytes(int64(fresh))
	flushCapture(calls, fresh, p.captureStats.Elapsed)
	return secs, reused, st.Release, nil
}

// liveRoots builds the collection roots — the live-variable addresses of
// each frame at its stopped site, and every global — in the traversal
// order the monolithic capture uses.
func (p *Process) liveRoots(sites []*minic.Site) collect.Roots {
	roots := collect.Roots{FrameLive: make([][]memory.Address, len(p.frames))}
	for i, f := range p.frames {
		addrs := make([]memory.Address, len(sites[i].Live))
		for j, v := range sites[i].Live {
			addrs[j] = p.VarAddr(f, v)
		}
		roots.FrameLive[i] = addrs
	}
	roots.Globals = make([]memory.Address, 0, len(p.Prog.Globals))
	for _, g := range p.Prog.Globals {
		roots.Globals = append(roots.Globals, p.globalAddrs[g.Index])
	}
	return roots
}

// restoreSectioned rebuilds the process from a framed sectioned (v3)
// snapshot: snapshot.Reader takes it apart — verifying every section's CRC
// and that nothing trails the last — in front of restoreSections.
func (p *Process) restoreSectioned(state []byte, restoreStart time.Time) error {
	span := p.Obs.Child("restore")
	defer span.End()
	dec := xdr.NewDecoder(state)
	rd, err := snapshot.NewReader(dec)
	if err != nil {
		return fmt.Errorf("vm: invalid sectioned snapshot: %w (%w)", collect.ErrCorruptStream, err)
	}
	secs, err := rd.ReadAll()
	if err != nil {
		return fmt.Errorf("vm: reading snapshot section: %w (%w)", collect.ErrCorruptStream, err)
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after snapshot sections",
			collect.ErrCorruptStream, dec.Remaining())
	}
	return p.restoreSections(span, secs, dec.Calls(), restoreStart)
}

// RestoreSections restores a section list into a freshly created process
// (one that has not started running) — the section-valued form of
// RestoreInto, for a caller that holds verified bodies (a round exchange's,
// a checkpoint store's) and has no reason to frame them first.
func (p *Process) RestoreSections(secs []snapshot.Section) error {
	if len(p.frames) != 0 {
		return errors.New("vm: RestoreSections on a process that already has frames")
	}
	span := p.Obs.Child("restore")
	defer span.End()
	return obs.Phase("restore", func() error { return p.restoreSections(span, secs, 0, time.Now()) })
}

// restoreSections is the one sectioned restore loop. The section order is
// enforced — exec first, every heap component before any variable
// contents, each frame exactly once, globals exactly once — which
// guarantees every flat reference a section decodes resolves against
// blocks already registered. span is the caller's restore span — a framed
// snapshot's covers its verification too — and framing the decode calls
// its reader spent, for the restore's accounting.
func (p *Process) restoreSections(span *obs.Span, secs []snapshot.Section, framing int, restoreStart time.Time) error {
	span.SetAttr("format", "sectioned")
	if len(secs) == 0 || secs[0].Kind != snapshot.KindExec || secs[0].ID != 0 {
		return fmt.Errorf("%w: snapshot does not start with the exec section", collect.ErrCorruptStream)
	}
	execDec := xdr.NewDecoder(secs[0].Body)
	sites, err := p.restoreExecState(execDec)
	if err != nil {
		return err
	}
	if execDec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in exec section", collect.ErrCorruptStream, execDec.Remaining())
	}
	nframes := len(sites)

	total := collect.RestoreStats{}
	size := 8 + 16 + (len(secs[0].Body)+3)&^3 // what the list frames to

	heapDone := false
	nextHeap := uint32(0)
	framesSeen := make([]bool, nframes)
	globalsSeen := false

	for _, sec := range secs[1:] {
		secStart := time.Now()
		var rs collect.RestoreStats
		switch sec.Kind {
		case snapshot.KindExec:
			return fmt.Errorf("%w: duplicate exec section", collect.ErrCorruptStream)
		case snapshot.KindHeap:
			if heapDone {
				return fmt.Errorf("%w: heap section %d after variable sections", collect.ErrCorruptStream, sec.ID)
			}
			if sec.ID != nextHeap {
				return fmt.Errorf("%w: heap sections out of order (got %d, want %d)",
					collect.ErrCorruptStream, sec.ID, nextHeap)
			}
			nextHeap++
			rs, err = collect.RestoreHeapSection(p.Space, p.Table, p.TI, sec.Body, p.Instrument)
		case snapshot.KindFrame:
			heapDone = true
			d := int(sec.ID)
			if d < 1 || d > nframes {
				return fmt.Errorf("%w: frame section %d outside the %d restored frames",
					collect.ErrCorruptStream, d, nframes)
			}
			if framesSeen[d-1] {
				return fmt.Errorf("%w: duplicate frame section %d", collect.ErrCorruptStream, d)
			}
			framesSeen[d-1] = true
			f := p.frames[d-1]
			live := make([]memory.Address, len(sites[d-1].Live))
			for j, v := range sites[d-1].Live {
				live[j] = p.VarAddr(f, v)
			}
			rs, err = collect.RestoreVarSection(p.Space, p.Table, p.TI, sec.Body,
				live, memory.Stack, uint32(d), p.Instrument)
		case snapshot.KindGlobals:
			heapDone = true
			if globalsSeen {
				return fmt.Errorf("%w: duplicate globals section", collect.ErrCorruptStream)
			}
			globalsSeen = true
			live := make([]memory.Address, 0, len(p.Prog.Globals))
			for _, g := range p.Prog.Globals {
				live = append(live, p.globalAddrs[g.Index])
			}
			rs, err = collect.RestoreVarSection(p.Space, p.Table, p.TI, sec.Body,
				live, memory.Global, 0, p.Instrument)
		default:
			return fmt.Errorf("%w: unknown section kind %d", collect.ErrCorruptStream, uint32(sec.Kind))
		}
		if err != nil {
			return fmt.Errorf("vm: restoring %s section %d: %w", sec.Kind, sec.ID, err)
		}
		total.Add(rs)
		size += 16 + (len(sec.Body)+3)&^3
		secElapsed := time.Since(secStart)
		c := span.Child("section")
		c.SetSection(sec.Kind.String(), sec.ID)
		c.SetBytes(int64(len(sec.Body)))
		c.SetDuration(secElapsed)
		mSectionRestore.Observe(secElapsed)
	}
	for d := 1; d <= nframes; d++ {
		if !framesSeen[d-1] {
			return fmt.Errorf("%w: snapshot is missing frame section %d", collect.ErrCorruptStream, d)
		}
	}
	if !globalsSeen {
		return fmt.Errorf("%w: snapshot is missing the globals section", collect.ErrCorruptStream)
	}

	p.resumeSites = sites
	p.restoreStats = total
	p.restoreElapsed = time.Since(restoreStart)
	span.SetBytes(int64(size))
	flushRestore(framing, size, p.restoreElapsed)
	return nil
}

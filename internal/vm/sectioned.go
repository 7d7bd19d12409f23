package vm

// Sectioned (v3) state transfer. The capture partitions the reachable MSR
// graph into independently-framed sections (internal/snapshot) and encodes
// the heap components concurrently (internal/collect's EncodeSections);
// the restore walks the sections in order, rebuilding the MSRLT
// section-by-section with a per-section CRC check.
//
// Section order is deterministic so a serial and a parallel capture of the
// same stopped process produce byte-identical snapshots:
//
//	exec #0, heap #0..H-1 (component number), frame #depth
//	(innermost first), globals #0

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// maxRestoreWorkers is the process-wide cap on the parallel-restore pool,
// applied when a Process leaves RestoreWorkers at its zero default. Zero
// means uncapped (GOMAXPROCS). Operators set it with the -restore-workers
// flag on migd and migstate.
var maxRestoreWorkers atomic.Int32

// SetMaxRestoreWorkers caps the heap-section restore pool for every
// Process that does not set RestoreWorkers explicitly. n <= 0 removes the
// cap. The cap never raises the pool above GOMAXPROCS.
func SetMaxRestoreWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxRestoreWorkers.Store(int32(n))
}

// MaxRestoreWorkers returns the current process-wide restore pool cap
// (0 = uncapped).
func MaxRestoreWorkers() int { return int(maxRestoreWorkers.Load()) }

// restoreWorkerCount resolves the pool width for one sectioned restore.
func (p *Process) restoreWorkerCount() int {
	switch {
	case p.RestoreWorkers > 0:
		return p.RestoreWorkers
	case p.RestoreWorkers < 0:
		return runtime.GOMAXPROCS(0)
	}
	w := runtime.GOMAXPROCS(0)
	if cap := MaxRestoreWorkers(); cap > 0 && w > cap {
		w = cap
	}
	return w
}

// SectionWorkersEngaged reports how many pool workers encoded at least
// one section during the last sectioned capture.
func (p *Process) SectionWorkersEngaged() int { return p.sectionWorkers }

// RestoreWorkersEngaged reports how many pool workers filled at least one
// heap section during the sectioned restore that initialized this process
// (0 for a monolithic restore or a snapshot without heap sections).
func (p *Process) RestoreWorkersEngaged() int { return p.restoreWorkers }

// CaptureSections re-collects the full process state at the stopped
// migration point in the sectioned (v3) snapshot format. workers bounds
// the heap-component encoding pool: 1 is fully serial, <= 0 selects
// GOMAXPROCS. The snapshot bytes are identical for every worker count.
func (p *Process) CaptureSections(workers int) ([]byte, error) {
	enc := xdr.NewEncoder(1 << 12)
	if err := p.CaptureSectionsTo(enc, workers); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// CaptureSectionsTo is CaptureSections writing into the supplied encoder
// (which may have a flush sink attached for streamed transmission).
func (p *Process) CaptureSectionsTo(enc *xdr.Encoder, workers int) error {
	site, err := p.stoppedSite()
	if err != nil {
		return err
	}
	return p.captureSectionsTo(enc, site, workers)
}

func (p *Process) captureSectionsTo(enc *xdr.Encoder, innermost *minic.Site, workers int) error {
	p.lastSite = innermost
	start := time.Now()
	span := p.Obs.Child("collect")
	span.SetAttr("format", "sectioned")
	defer span.End()
	sites, err := p.captureSites(innermost)
	if err != nil {
		return err
	}
	roots := p.liveRoots(sites)

	baseSearches := p.Table.Stats.Searches
	baseSteps := p.Table.Stats.SearchSteps

	partSpan := span.Child("partition")
	pt, err := collect.BuildPartition(p.Space, p.Table, p.TI, roots)
	partSpan.End()
	if err != nil {
		return err
	}
	encSpan := span.Child("encode")
	st, err := collect.EncodeSections(p.Space, p.Table, p.TI, pt, roots, workers)
	encSpan.End()
	if err != nil {
		return err
	}
	encSpan.SetAttr("workers", strconv.Itoa(st.Workers))

	// The execution-state section: frame count, then per frame the
	// function name and stopped site (the v1 exec header minus its magic;
	// the snapshot prologue carries the format magic).
	execStart := time.Now()
	execEnc := xdr.NewEncoder(64)
	execEnc.PutUint32(uint32(len(p.frames)))
	for i, f := range p.frames {
		execEnc.PutString(f.Fn.Name)
		execEnc.PutUint32(uint32(sites[i].ID))
	}
	execBody := execEnc.Bytes()
	execElapsed := time.Since(execStart)

	nframes := len(p.frames)
	total := 1 + len(st.Heap) + nframes + 1
	snapshot.PutPrologue(enc, total)
	appendSec := func(s snapshot.Section, elapsed time.Duration) {
		snapshot.Append(enc, s)
		// Section encoding already ran (possibly on pool workers); record
		// each as a child with its measured duration rather than wall time.
		c := span.Child("section")
		c.SetSection(s.Kind.String(), s.ID)
		c.SetBytes(int64(len(s.Body)))
		c.SetDuration(elapsed)
		mSectionEncode.Observe(elapsed)
	}
	appendSec(snapshot.Section{Kind: snapshot.KindExec, Body: execBody}, execElapsed)
	for i, h := range st.Heap {
		appendSec(snapshot.Section{Kind: snapshot.KindHeap, ID: uint32(i), Body: h.Body}, h.Elapsed)
	}
	for i := nframes - 1; i >= 0; i-- {
		appendSec(snapshot.Section{Kind: snapshot.KindFrame, ID: uint32(i + 1), Body: st.Frames[i].Body},
			st.Frames[i].Elapsed)
	}
	appendSec(snapshot.Section{Kind: snapshot.KindGlobals, Body: st.Globals.Body}, st.Globals.Elapsed)
	// Every body has been spliced into the output stream; hand the pooled
	// section encoders back (st.Stats and st.Workers survive the release).
	st.Release()

	save := st.Stats
	save.Searches = p.Table.Stats.Searches - baseSearches
	save.SearchSteps = p.Table.Stats.SearchSteps - baseSteps
	p.captureStats = StateStats{
		Frames:  nframes,
		Save:    save,
		Bytes:   enc.Len(),
		Elapsed: time.Since(start),
	}
	p.sectionWorkers = st.Workers
	span.SetBytes(int64(enc.Len()))
	flushCapture(enc, p.captureStats.Elapsed)
	return nil
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

// restoreSectioned rebuilds the process from a sectioned (v3) snapshot.
// The section order is enforced — exec first, every heap component before
// any variable contents, each frame exactly once, globals exactly once —
// which guarantees every flat reference a section decodes resolves
// against blocks already registered.
func (p *Process) restoreSectioned(state []byte, restoreStart time.Time) error {
	span := p.Obs.Child("restore")
	span.SetAttr("format", "sectioned")
	defer span.End()
	dec := xdr.NewDecoder(state)
	rd, err := snapshot.NewReader(dec)
	if err != nil {
		return fmt.Errorf("vm: invalid sectioned snapshot: %w (%w)", collect.ErrCorruptStream, err)
	}

	sec, err := rd.Next()
	if err != nil {
		return fmt.Errorf("vm: reading exec section: %w (%w)", collect.ErrCorruptStream, err)
	}
	if sec.Kind != snapshot.KindExec || sec.ID != 0 {
		return fmt.Errorf("%w: snapshot does not start with the exec section", collect.ErrCorruptStream)
	}
	sites, err := p.restoreExecBody(sec.Body)
	if err != nil {
		return err
	}
	nframes := len(sites)

	total := collect.RestoreStats{}

	heapDone := false
	nextHeap := uint32(0)
	framesSeen := make([]bool, nframes)
	globalsSeen := false

	// Heap-component sections are contiguous and independent, so they are
	// batched as they stream in and restored together when the first
	// variable section arrives: block allocation stays serial in section
	// order (the heap layout is identical to a fully serial restore), then
	// the component contents fill on a bounded worker pool — the restore
	// twin of the capture side's EncodeSections.
	var heapBodies [][]byte
	restoreHeapBatch := func() error {
		if heapDone {
			return nil
		}
		heapDone = true
		if len(heapBodies) == 0 {
			return nil
		}
		hr, err := collect.RestoreHeapSections(p.Space, p.Table, p.TI, heapBodies,
			p.Instrument, p.restoreWorkerCount())
		if err != nil {
			return fmt.Errorf("vm: restoring heap sections: %w", err)
		}
		mRestorePar.Set(int64(hr.Workers))
		p.restoreWorkers = hr.Workers
		for i := range heapBodies {
			total.Add(hr.PerSection[i])
			secElapsed := hr.Prepare[i] + hr.Elapsed[i]
			c := span.Child("section")
			c.SetSection(snapshot.KindHeap.String(), uint32(i))
			c.SetBytes(int64(len(heapBodies[i])))
			c.SetDuration(secElapsed)
			mSectionRestore.Observe(secElapsed)
			mRestoreCompLat.Observe(hr.Elapsed[i])
		}
		return nil
	}

	for rd.Remaining() > 0 {
		sec, err := rd.Next()
		if err != nil {
			return fmt.Errorf("vm: reading snapshot section: %w (%w)", collect.ErrCorruptStream, err)
		}
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
			heapBodies = append(heapBodies, sec.Body)
			continue
		case snapshot.KindFrame:
			if err := restoreHeapBatch(); err != nil {
				return err
			}
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
			if err := restoreHeapBatch(); err != nil {
				return err
			}
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
		}
		if err != nil {
			return fmt.Errorf("vm: restoring %s section %d: %w", sec.Kind, sec.ID, err)
		}
		total.Add(rs)
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
	if dec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after snapshot sections",
			collect.ErrCorruptStream, dec.Remaining())
	}

	p.resumeSites = sites
	p.restoreStats = total
	p.restoreElapsed = time.Since(restoreStart)
	span.SetBytes(int64(len(state)))
	flushRestore(dec.Calls(), len(state), p.restoreElapsed)
	return nil
}

// restoreExecBody decodes the execution-state section and rebuilds the
// frame chain, returning the per-frame stopped sites.
func (p *Process) restoreExecBody(body []byte) ([]*minic.Site, error) {
	dec := xdr.NewDecoder(body)
	nframes, err := dec.Uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated exec section", collect.ErrCorruptStream)
	}
	if nframes == 0 || nframes > 1<<16 {
		return nil, fmt.Errorf("%w: implausible frame count %d", collect.ErrCorruptStream, nframes)
	}
	sites := make([]*minic.Site, nframes)
	for i := 0; i < int(nframes); i++ {
		name, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated exec section", collect.ErrCorruptStream)
		}
		siteID, err := dec.Uint32()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated exec section", collect.ErrCorruptStream)
		}
		fn := p.Prog.Func(name)
		if fn == nil {
			return nil, fmt.Errorf("%w: state references unknown function %s", collect.ErrMismatch, name)
		}
		site := fn.SiteByID(int(siteID))
		if site == nil {
			return nil, fmt.Errorf("%w: function %s has no migration site %d", collect.ErrMismatch, name, siteID)
		}
		sites[i] = site
		if _, err := p.pushFrame(fn); err != nil {
			return nil, err
		}
	}
	if dec.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in exec section", collect.ErrCorruptStream, dec.Remaining())
	}
	return sites, nil
}

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
	"slices"
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
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
// touched are reused from it — from[i] is the index in the previous
// round's list of the section whose body section i carries over, -1 for a
// body encoded now — and every body is tracker-owned; without one the
// bodies alias pooled encoders until release is called. The capture is
// recorded here, once, counting the sections that were encoded (not the
// reused ones): CaptureStats, a "collect" span with partition, encode and
// per-section children, the vm.section.encode histogram and the capture
// counters.
func (p *Process) captureSectionList(dt *collect.DeltaTracker, dirty collect.DirtyFunc) (secs []snapshot.Section, from []int, release func(), err error) {
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
	secs = make([]snapshot.Section, 0, 1+len(st.Bodies))
	from = make([]int, 0, cap(secs))
	calls, fresh := st.Calls+execEnc.Calls(), 0
	add := func(kind snapshot.Kind, id uint32, body []byte, elapsed time.Duration, carried int) {
		secs = append(secs, snapshot.Section{Kind: kind, ID: id, Body: body})
		from = append(from, carried)
		if carried >= 0 {
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
	add(snapshot.KindExec, 0, execEnc.Bytes(), execElapsed, -1)
	for i, b := range st.Bodies {
		kind, id := snapshot.KindHeap, uint32(i)
		switch {
		case i == len(st.Bodies)-1:
			kind, id = snapshot.KindGlobals, 0
		case i >= st.Heap:
			kind, id = snapshot.KindFrame, uint32(nframes-(i-st.Heap))
		}
		if b.From >= 0 {
			b.From++ // the previous round's list opened with its exec section too
		}
		add(kind, id, b.Body, b.Elapsed, b.From)
	}

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
	return secs, from, st.Release, nil
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
// and that nothing trails the last — in front of the one restore loop.
func (p *Process) restoreSectioned(state []byte, restoreStart time.Time) error {
	r := p.NewRestore()
	defer r.span.End()
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
	r.framing, r.elapsed = dec.Calls(), time.Since(restoreStart)
	return r.once(secs)
}

// RestoreSections restores a section list into a freshly created process
// (one that has not started running) — the section-valued form of
// RestoreInto, for a caller that holds verified bodies (a checkpoint
// store's) and has no reason to frame them first.
func (p *Process) RestoreSections(secs []snapshot.Section) error {
	if len(p.frames) != 0 {
		return errors.New("vm: RestoreSections on a process that already has frames")
	}
	return p.NewRestore().once(secs)
}

// Sum is the content address a round exchange names a section body by.
// The restore compares sums; it never computes one.
type Sum = [32]byte

// Restore is the one sectioned restore loop as a value: a process shell
// that section lists are applied into as they arrive. A cold, warm or
// checkpoint restore applies its one list and finishes; a live exchange
// applies every round's list into the same shell and finishes after the
// final one, so the final round restores only what it carries.
//
// Apply places the heap components at once, reconciled with the shell's:
// a component the list names under a sum the shell holds stays as it is,
// one whose directory (block IDs, types, counts) a new body repeats is
// refilled in place, and every other is dropped — its blocks freed and
// unregistered — before the new bodies allocate theirs, so the shell never
// holds more heap than the latest list. The exec, frame and globals
// sections are checked and held; Finish rebuilds the frames from the
// latest exec section and fills the variables. A failed step leaves a
// shell to be discarded.
type Restore struct {
	p     *Process
	span  *obs.Span
	heap  []*held            // the latest list's heap components, in list order
	bySum map[Sum]*held      // every section of the latest list, by sum
	vars  []snapshot.Section // its exec, frame and globals sections
	fns   []*minic.FuncSymbol
	sites []*minic.Site // its exec section, decoded

	stats   collect.RestoreStats
	size    int // what the applied sections frame to
	framing int // decode calls a framed snapshot's reader spent
	elapsed time.Duration
}

// held is a section of the shell: a heap component applied into it, or an
// exec, frame or globals section held for Finish.
type held struct {
	kind   snapshot.Kind
	dir    []byte       // a component's directory, in its body
	blocks []*msr.Block // a component's blocks, in directory order
	// body is a variable section's, and a component's while its pointers
	// into frames wait for Finish to fill them.
	body []byte
}

// NewRestore starts a restore into p, which must be freshly created (it
// has not started running), recorded as a "restore" child of its span.
func (p *Process) NewRestore() *Restore {
	span := p.Obs.Child("restore")
	span.SetAttr("format", "sectioned")
	return &Restore{p: p, span: span, size: 8}
}

// Holds reports whether the shell holds the body a list names under sum
// as a section of kind, so that a round need not fetch it again.
func (r *Restore) Holds(kind snapshot.Kind, sum Sum) bool {
	h := r.bySum[sum]
	return h != nil && h.kind == kind
}

// Apply takes one section list into the shell. sums, when set, are the
// content addresses the list names its sections by, and a section with a
// nil Body is one the shell Holds. The list must be in snapshot order:
// exec first and once, heap components in number order before any
// variable section, each frame of the exec section's chain exactly once,
// globals exactly once.
func (r *Restore) Apply(secs []snapshot.Section, sums []Sum) error {
	return r.timed(func() error { return r.apply(secs, sums) })
}

// Finish rebuilds the frames of the latest list, fills the pointers into
// them its heap sections left null, and restores the frame and globals
// sections; the process is then ready to resume. It runs once.
func (r *Restore) Finish() error {
	if err := r.timed(r.finish); err != nil {
		return err
	}
	p := r.p
	p.resumeSites, p.restoreStats, p.restoreElapsed = r.sites, r.stats, r.elapsed
	r.span.SetBytes(int64(r.size))
	r.span.SetDuration(r.elapsed)
	flushRestore(r.framing, r.size, r.elapsed)
	return nil
}

// once applies a restore's only list and finishes.
func (r *Restore) once(secs []snapshot.Section) error {
	if err := r.Apply(secs, nil); err != nil {
		return err
	}
	return r.Finish()
}

// timed runs one step under the restore phase label and adds its wall time
// to the restore's; a failed step ends the span.
func (r *Restore) timed(step func() error) error {
	start := time.Now()
	err := obs.Phase("restore", step)
	r.elapsed += time.Since(start)
	if err != nil {
		r.span.End()
	}
	return err
}

func (r *Restore) apply(secs []snapshot.Section, sums []Sum) error {
	if len(secs) == 0 || secs[0].Kind != snapshot.KindExec || secs[0].ID != 0 {
		return fmt.Errorf("%w: snapshot does not start with the exec section", collect.ErrCorruptStream)
	}
	list := make([]*held, len(secs))
	for i, sec := range secs {
		if sec.Body != nil || sums == nil {
			list[i] = &held{kind: sec.Kind, body: sec.Body}
		} else if list[i] = r.bySum[sums[i]]; !r.Holds(sec.Kind, sums[i]) {
			return fmt.Errorf("%w: %s section %d has no body", collect.ErrCorruptStream, sec.Kind, sec.ID)
		}
	}
	dec := xdr.NewDecoder(list[0].body)
	fns, sites, err := r.p.decodeExecState(dec)
	if err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in exec section", collect.ErrCorruptStream, dec.Remaining())
	}
	vars := []snapshot.Section{{Kind: snapshot.KindExec, Body: list[0].body}}
	framesSeen, globalsSeen := make([]bool, len(sites)), false
	var heap []int
	for i, sec := range secs[1:] {
		switch sec.Kind {
		case snapshot.KindExec:
			return fmt.Errorf("%w: duplicate exec section", collect.ErrCorruptStream)
		case snapshot.KindHeap:
			if len(vars) > 1 {
				return fmt.Errorf("%w: heap section %d after variable sections", collect.ErrCorruptStream, sec.ID)
			}
			if sec.ID != uint32(len(heap)) {
				return fmt.Errorf("%w: heap sections out of order (got %d, want %d)",
					collect.ErrCorruptStream, sec.ID, len(heap))
			}
			heap = append(heap, i+1)
			continue
		case snapshot.KindFrame:
			if d := int(sec.ID); d < 1 || d > len(sites) {
				return fmt.Errorf("%w: frame section %d outside the %d restored frames",
					collect.ErrCorruptStream, d, len(sites))
			} else if framesSeen[d-1] {
				return fmt.Errorf("%w: duplicate frame section %d", collect.ErrCorruptStream, d)
			}
			framesSeen[sec.ID-1] = true
		case snapshot.KindGlobals:
			if globalsSeen {
				return fmt.Errorf("%w: duplicate globals section", collect.ErrCorruptStream)
			}
			globalsSeen = true
		default:
			return fmt.Errorf("%w: unknown section kind %d", collect.ErrCorruptStream, uint32(sec.Kind))
		}
		vars = append(vars, snapshot.Section{Kind: sec.Kind, ID: sec.ID, Body: list[i+1].body})
	}
	if d := slices.Index(framesSeen, false); d >= 0 {
		return fmt.Errorf("%w: snapshot is missing frame section %d", collect.ErrCorruptStream, d+1)
	}
	if !globalsSeen {
		return fmt.Errorf("%w: snapshot is missing the globals section", collect.ErrCorruptStream)
	}
	if err := r.reconcile(secs, list, heap); err != nil {
		return err
	}
	r.vars, r.fns, r.sites, r.bySum = vars, fns, sites, nil
	if sums != nil {
		r.bySum = make(map[Sum]*held, len(list))
		for i, h := range list {
			r.bySum[sums[i]] = h
		}
	}
	return nil
}

// reconcile brings the shell's heap to the list's, whose heap sections
// stand at the indices heap names. What the list no longer names as it was
// is stale; a new body that repeats a stale component's directory takes
// its blocks over, and every other stale component is dropped before the
// new bodies allocate theirs.
func (r *Restore) reconcile(secs []snapshot.Section, list []*held, heap []int) error {
	kept := make(map[*held]bool, len(heap))
	for _, i := range heap {
		if c := list[i]; c.blocks != nil { // the shell's, named by its sum
			if kept[c] {
				return fmt.Errorf("%w: heap section %d repeats another", collect.ErrCorruptStream, secs[i].ID)
			}
			kept[c] = true
		}
	}
	stale := make(map[string]*held)
	for _, c := range r.heap {
		if !kept[c] {
			stale[string(c.dir)] = c
		}
	}
	for _, i := range heap {
		if c := stale[string(collect.HeapDirectory(secs[i].Body))]; c != nil && list[i].blocks == nil {
			delete(stale, string(c.dir))
			list[i] = c
			r.stats.Refilled++
		}
	}
	var gone []*msr.Block
	for _, c := range r.heap {
		if !kept[c] && stale[string(c.dir)] == c {
			gone = append(gone, c.blocks...)
			r.stats.Dropped++
		}
	}
	r.p.Table.Remove(gone)
	for _, b := range gone {
		if err := r.p.Space.Free(b.Addr); err != nil {
			return err
		}
	}
	r.heap = r.heap[:0]
	for _, i := range heap {
		if c := list[i]; c.blocks == nil || secs[i].Body != nil {
			if err := r.applyHeap(c, secs[i], true); err != nil {
				return err
			}
		}
		r.heap = append(r.heap, list[i])
	}
	return nil
}

// applyHeap restores one heap section into c, into the blocks c already
// has when it has them; early says the frames do not exist yet.
func (r *Restore) applyHeap(c *held, sec snapshot.Section, early bool) error {
	start, p := time.Now(), r.p
	blocks, deferred, rs, err := collect.RestoreHeapSection(p.Space, p.Table, p.TI, sec.Body, c.blocks, p.Instrument, early)
	if err != nil {
		return fmt.Errorf("vm: restoring %s section %d: %w", sec.Kind, sec.ID, err)
	}
	c.dir, c.blocks, c.body = collect.HeapDirectory(sec.Body), blocks, nil
	if deferred {
		c.body = sec.Body
	}
	r.booked(sec, rs, start)
	return nil
}

// booked accounts for one applied section: its statistics, what it frames
// to, and a child of the restore span.
func (r *Restore) booked(sec snapshot.Section, rs collect.RestoreStats, start time.Time) {
	r.stats.Add(rs)
	r.size += 16 + (len(sec.Body)+3)&^3
	elapsed := time.Since(start)
	c := r.span.Child("section")
	c.SetSection(sec.Kind.String(), sec.ID)
	c.SetBytes(int64(len(sec.Body)))
	c.SetDuration(elapsed)
	mSectionRestore.Observe(elapsed)
}

func (r *Restore) finish() error {
	p := r.p
	if r.sites == nil {
		return fmt.Errorf("%w: no section list was applied", collect.ErrCorruptStream)
	}
	if err := p.pushFrames(r.fns); err != nil {
		return err
	}
	r.size += 16 + (len(r.vars[0].Body)+3)&^3
	for k, c := range r.heap {
		if c.body != nil {
			if err := r.applyHeap(c, snapshot.Section{Kind: snapshot.KindHeap, ID: uint32(k), Body: c.body}, false); err != nil {
				return err
			}
		}
	}
	roots := p.liveRoots(r.sites)
	for _, sec := range r.vars[1:] {
		start := time.Now()
		seg, major, live := memory.Global, uint32(0), roots.Globals
		if sec.Kind == snapshot.KindFrame {
			seg, major, live = memory.Stack, sec.ID, roots.FrameLive[sec.ID-1]
		}
		rs, err := collect.RestoreVarSection(p.Space, p.Table, p.TI, sec.Body, live, seg, major, p.Instrument)
		if err != nil {
			return fmt.Errorf("vm: restoring %s section %d: %w", sec.Kind, sec.ID, err)
		}
		r.booked(sec, rs, start)
	}
	return nil
}

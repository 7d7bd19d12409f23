package vm

// Sectioned state transfer. The capture partitions the reachable MSR
// graph into independently-framed sections (internal/snapshot), sizes
// them, and encodes them one after the other (internal/collect's Walk and
// Layout.Encode), a cold capture straight into its writer; the restore
// walks the sections in order, rebuilding the MSRLT section-by-section
// with a per-section CRC check.
//
// Section order is deterministic, so two captures of the same stopped
// process produce byte-identical snapshots:
//
//	exec #0, heap #0..H-1 (component number), frame #depth
//	(innermost first), globals #0

import (
	"errors"
	"fmt"
	"io"
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

// CaptureSections is Recapture. The parameter is inert — it was the width
// of the encoding pool, which is gone — and stays only because
// bench/program.go, which no ordinary change may edit, passes one.
func (p *Process) CaptureSections(_ int) ([]byte, error) { return p.Recapture() }

// WriteSnapshot writes the state of the stopped process to w as a framed
// sectioned snapshot — the prologue, then each section — body by body as
// it is encoded, in pieces of at most 64 KiB. Every body is sized and
// every type resolved before the first byte, so after it only w can fail
// the capture, and a writer that fails stops it at once. A w that can Grow
// is grown once to the snapshot's exact size. CaptureStats().Elapsed is the
// walk and the encoding, not the time spent in w.
func (p *Process) WriteSnapshot(w io.Writer) (int, error) {
	c, err := p.beginCapture(nil, nil)
	if err != nil {
		return 0, err
	}
	defer c.span.End()
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := snapshot.PrologueSize + snapshot.SectionSize(len(c.exec))
		for _, size := range c.lay.Sizes {
			n += snapshot.SectionSize(size)
		}
		g.Grow(n)
	}
	sw := snapshot.NewWriter(w, 1+len(c.lay.Sizes))
	err = obs.Phase("collect", func() error {
		err := sw.Section(snapshot.KindExec, 0, c.exec)
		for i := 0; err == nil && i < len(c.lay.Sizes); i++ {
			kind, id := c.section(i)
			if err = sw.Begin(kind, id, c.lay.Sizes[i]); err == nil {
				err = c.encode(i, func() (time.Duration, error) { return c.lay.Encode(i, sw.Write) })
			}
			if err == nil {
				err = sw.End()
			}
		}
		return err
	})
	if err == nil {
		c.end()
	}
	return sw.Len(), err
}

// capture is one capture under way: the layout of the stopped process's
// state (collect.Walk) and its exec section, encoded. It is recorded once
// it ends, counting the sections encoded and not the ones a live round
// carries over: CaptureStats, a "collect" span with partition
// (partition=reused|walked), encode and per-section children, the
// vm.section.encode histogram and the capture counters.
type capture struct {
	p               *Process
	lay             *collect.Layout
	exec            []byte
	span            *obs.Span
	searches, steps int64
	fresh, calls    int
	elapsed         time.Duration // before the first body was encoded
}

func (p *Process) beginCapture(dt *collect.DeltaTracker, dirty []memory.DirtyRange) (*capture, error) {
	start := time.Now()
	innermost, err := p.stoppedSite()
	if err == nil {
		// Every stop registered its frames already, so this registers
		// nothing; it keeps a capture from reading a table that misses one.
		err = p.registerFrames()
	}
	if err != nil {
		return nil, err
	}
	sites, err := p.captureSites(innermost)
	if err != nil {
		return nil, err
	}
	c := &capture{p: p, span: p.Obs.Child("collect"), searches: p.Table.Stats.Searches, steps: p.Table.Stats.SearchSteps}
	c.span.SetAttr("format", "sectioned")
	if dt != nil {
		c.span.SetAttr("format", "delta")
	}
	roots := p.liveRoots(sites)
	if c.lay, err = obs.PhaseOf("collect", func() (*collect.Layout, error) {
		return collect.Walk(p.Space, p.Table, p.TI, roots, dt, dirty)
	}); err != nil {
		c.span.End()
		return nil, err
	}
	part := c.span.Child("partition")
	part.SetAttr("partition", "walked")
	if c.lay.Reused {
		part.SetAttr("partition", "reused")
	}
	save, _ := c.lay.Stats()
	part.SetDuration(save.SearchTime)
	execStart := time.Now()
	enc := xdr.NewEncoder(64)
	p.putExecState(enc, sites)
	c.exec, c.calls = enc.Bytes(), enc.Calls()
	c.record(snapshot.KindExec, 0, len(c.exec), time.Since(execStart))
	c.elapsed = time.Since(start)
	return c, nil
}

// section names body i of the layout.
func (c *capture) section(i int) (snapshot.Kind, uint32) {
	switch n := len(c.lay.Sizes); {
	case i == n-1:
		return snapshot.KindGlobals, 0
	case i >= c.lay.Heap:
		return snapshot.KindFrame, uint32(len(c.p.frames) - (i - c.lay.Heap))
	}
	return snapshot.KindHeap, uint32(i)
}

// encode encodes body i, streamed or whole, and records it. Its caller runs
// it under the collect phase label.
func (c *capture) encode(i int, encode func() (time.Duration, error)) error {
	d, err := encode()
	kind, id := c.section(i)
	c.record(kind, id, c.lay.Sizes[i], d)
	return err
}

// record books one encoded section of n body bytes; the encoding already
// ran, so its child carries the measured duration rather than wall time.
func (c *capture) record(kind snapshot.Kind, id uint32, n int, elapsed time.Duration) {
	c.fresh += n
	child := c.span.Child("section")
	child.SetSection(kind.String(), id)
	child.SetBytes(int64(n))
	child.SetDuration(elapsed)
	mSectionEncode.Observe(elapsed)
}

func (c *capture) end() {
	save, calls := c.lay.Stats()
	c.span.Child("encode").SetDuration(save.EncodeTime)
	save.Searches = c.p.Table.Stats.Searches - c.searches
	save.SearchSteps = c.p.Table.Stats.SearchSteps - c.steps
	c.p.captureStats = StateStats{Frames: len(c.p.frames), Save: save, Bytes: c.fresh, Elapsed: c.elapsed + save.EncodeTime}
	c.span.SetBytes(int64(c.fresh))
	flushCapture(c.calls+calls, c.fresh)
}

// liveRoots builds the collection roots — the live-variable addresses of
// each frame at its stopped site, and every global — in the paper's
// collection order.
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

// RestoreSections restores a section list into a freshly created process
// (one that has not started running) — the section-valued form of
// RestoreInto, for a caller that holds verified bodies (a checkpoint
// store's) and has no reason to frame them first. The list is applied as a
// round exchange's one and final list is.
func (p *Process) RestoreSections(secs []snapshot.Section) error {
	if len(p.frames) != 0 {
		return errors.New("vm: RestoreSections on a process that already has frames")
	}
	r := p.NewRestore()
	if err := r.Apply(secs, nil); err != nil {
		return err
	}
	return r.Finish()
}

// Sum is the content address a round exchange names a section body by.
// The restore compares sums; it never computes one.
type Sum = [32]byte

// Restore is the one sectioned restore loop as a value: a process shell
// that sections are applied into as they arrive, in snapshot order, which
// every restore checks section by section. A cold restore has exactly one
// list: Read applies each of its sections on arrival — the exec section
// pushes the frames at once, so heap, frame and globals sections land in
// place as they come — and Finish has nothing left to do. A round exchange
// applies every round's list into the same shell with Apply and finishes
// after the final one, so the final round restores only what it carries; a
// checkpoint restore is one such list (RestoreSections).
//
// Apply places the heap components at once, reconciled with the shell's:
// a component the list names under a sum the shell holds stays as it is,
// one whose directory (block IDs, types, counts) a new body repeats is
// refilled in place, and every other is dropped — its blocks freed and
// unregistered — before the new bodies allocate theirs, so the shell never
// holds more heap than the latest list. The exec, frame and globals
// sections are checked and held; Finish rebuilds the frames from the
// latest exec section and fills the variables. A failed step leaves a
// shell to be discarded; a finished one may be forked (Fork), so that the
// next restore of the program starts from what this one holds.
type Restore struct {
	p     *Process
	span  *obs.Span
	order order              // the order of the list being applied
	heap  []*held            // the latest list's heap components, in list order
	bySum map[Sum]*held      // every section of the latest list, by sum
	vars  []snapshot.Section // its exec, frame and globals sections
	sites []*minic.Site      // the exec section placed, decoded
	roots collect.Roots      // the frames' live variables, once pushed

	stats         collect.RestoreStats
	size          int // what the applied sections frame to
	framing       int // decode calls a framed snapshot's reader spent
	elapsed, idle time.Duration
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
	sum  Sum // what the latest list named it by
}

// order is the snapshot order as a state machine that every restore runs
// section by section: exec #0 first and once, heap components in number
// order before any variable section, each frame of the exec section's
// chain exactly once, globals exactly once.
type order struct {
	frames        []bool // which frames arrived; nil before the exec section
	heap          uint32 // heap sections admitted
	vars, globals bool
}

func (o *order) admit(kind snapshot.Kind, id uint32) error {
	if o.frames == nil {
		if kind != snapshot.KindExec || id != 0 {
			return fmt.Errorf("%w: snapshot does not start with the exec section", collect.ErrCorruptStream)
		}
		o.frames = []bool{}
		return nil
	}
	switch kind {
	case snapshot.KindExec:
		return fmt.Errorf("%w: duplicate exec section", collect.ErrCorruptStream)
	case snapshot.KindHeap:
		if o.vars {
			return fmt.Errorf("%w: heap section %d after variable sections", collect.ErrCorruptStream, id)
		}
		if id != o.heap {
			return fmt.Errorf("%w: heap sections out of order (got %d, want %d)", collect.ErrCorruptStream, id, o.heap)
		}
		o.heap++
		return nil
	case snapshot.KindFrame:
		if id < 1 || int(id) > len(o.frames) {
			return fmt.Errorf("%w: frame section %d outside the %d restored frames", collect.ErrCorruptStream, id, len(o.frames))
		} else if o.frames[id-1] {
			return fmt.Errorf("%w: duplicate frame section %d", collect.ErrCorruptStream, id)
		}
		o.frames[id-1] = true
	case snapshot.KindGlobals:
		if o.globals {
			return fmt.Errorf("%w: duplicate globals section", collect.ErrCorruptStream)
		}
		o.globals = true
	default:
		return fmt.Errorf("%w: unknown section kind %d", collect.ErrCorruptStream, uint32(kind))
	}
	o.vars = true
	return nil
}

// complete reports what a list that ends here lacks.
func (o *order) complete() error {
	if o.frames == nil {
		return fmt.Errorf("%w: snapshot does not start with the exec section", collect.ErrCorruptStream)
	}
	if d := slices.Index(o.frames, false); d >= 0 {
		return fmt.Errorf("%w: snapshot is missing frame section %d", collect.ErrCorruptStream, d+1)
	}
	if !o.globals {
		return fmt.Errorf("%w: snapshot is missing the globals section", collect.ErrCorruptStream)
	}
	return nil
}

// NewRestore starts a restore into p, which must be freshly created (it
// has not started running) or a Fork, recorded as a "restore" child of its
// span. A Fork's restore starts from what the fork holds. Every restore
// that can reach a process holding a delta capture starts here
// (RestoreInto and RestoreSections refuse one with frames, and only a
// stopped process with frames is captured), so it discards the capture.
func (p *Process) NewRestore() *Restore {
	p.discardCapture()
	span := p.Obs.Child("restore")
	span.SetAttr("format", "sectioned")
	r := &Restore{p: p, span: span, size: snapshot.PrologueSize, heap: p.forked.heap, bySum: p.forked.bySum}
	p.forked = Restore{}
	return r
}

// Process is the process the restore is into.
func (r *Restore) Process() *Process { return r.p }

// Fork hands what a finished restore holds over to a fresh process of the
// same program and machine, for the next list to be applied into
// (NewRestore takes it over), and is the restore's last use: a copy of the
// heap, every component's blocks registered in it at the addresses they
// hold here — the two tables share them, as a registered block never
// changes — and the sections under the sums the latest list named them by,
// less the components Finish filled pointers into frames of (the fork has
// no frames). Nothing of this restore's session carries over: no span,
// statistics or elapsed time.
func (r *Restore) Fork() (*Process, error) {
	q, err := NewProcess(r.p.Prog, r.p.Mach)
	if err != nil {
		return nil, err
	}
	q.Space.CopyHeap(r.p.Space)
	q.Table.Reserve(memory.Heap, r.p.Table.Len()) // one growth, not one per component
	for _, c := range r.heap {
		if err := q.Table.Insert(c.blocks); err != nil {
			return nil, err
		}
	}
	q.forked = Restore{heap: r.heap, bySum: r.bySum}
	return q, nil
}

// Holds reports whether the shell holds the body a list names under sum
// as a section of kind, so that a round need not fetch it again.
func (r *Restore) Holds(kind snapshot.Kind, sum Sum) bool {
	h := r.bySum[sum]
	return h != nil && h.kind == kind
}

// Idle books d, spent inside a step waiting for a section's bytes to
// arrive, to the transfer rather than to the restore.
func (r *Restore) Idle(d time.Duration) { r.idle += d }

// Read applies a framed sectioned snapshot, a restore's only list, section
// by section as dec decodes it — dec may still be receiving it
// (xdr.NewFeedDecoder). Each body is decoded straight out of dec into
// place and its CRC compared at its trailer. A section whose CRC fails is
// a corrupt stream whatever its decoder made of it: a body the decoder
// gave up on is read to its end for the comparison. The snapshot must end
// dec.
func (r *Restore) Read(dec *xdr.Decoder) error {
	rd, err := snapshot.NewReader(dec)
	if err != nil {
		return fmt.Errorf("vm: invalid sectioned snapshot: %w (%w)", collect.ErrCorruptStream, err)
	}
	for rd.Remaining() > 0 {
		sec, body, err := rd.Open()
		if err == nil {
			if err = r.order.admit(sec.Kind, sec.ID); err == nil {
				err = r.timed(func() error { return r.place(sec.Kind, sec.ID, body) })
			}
			if cerr := rd.Close(); err != nil && !errors.Is(cerr, snapshot.ErrChecksum) {
				return err
			} else {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("vm: reading snapshot section: %w (%w)", collect.ErrCorruptStream, err)
		}
	}
	r.framing = dec.Calls()
	switch err := dec.Ensure(1); {
	case err == nil:
		return fmt.Errorf("%w: trailing bytes after snapshot sections", collect.ErrCorruptStream)
	case !errors.Is(err, xdr.ErrShortBuffer):
		return err
	}
	return nil
}

// place restores one admitted section, its body read from dec, once the
// frames exist: the exec section pushes them, and every other section is
// restored into place.
func (r *Restore) place(kind snapshot.Kind, id uint32, dec *xdr.Decoder) error {
	start, idle, p := time.Now(), r.idle, r.p
	var rs collect.RestoreStats
	var err error
	switch kind {
	case snapshot.KindExec:
		var fns []*minic.FuncSymbol
		if fns, r.sites, err = r.exec(dec); err == nil {
			r.size += snapshot.SectionSize(dec.Offset())
			if err = p.pushFrames(fns); err == nil {
				r.roots = p.liveRoots(r.sites)
			}
			return err
		}
	case snapshot.KindHeap:
		_, _, rs, err = collect.RestoreHeapSection(p.Space, p.Table, p.TI, dec, nil, false)
	case snapshot.KindFrame:
		rs, err = collect.RestoreVarSection(p.Space, p.Table, p.TI, dec, r.roots.FrameLive[id-1], memory.Stack, id)
	default:
		rs, err = collect.RestoreVarSection(p.Space, p.Table, p.TI, dec, r.roots.Globals, memory.Global, 0)
	}
	if err != nil {
		return fmt.Errorf("vm: restoring %s section %d: %w", kind, id, err)
	}
	r.booked(kind, id, dec.Offset(), rs, time.Since(start)-(r.idle-idle))
	return nil
}

// exec decodes an exec section, whose frame chain sizes the frames the
// order admits.
func (r *Restore) exec(dec *xdr.Decoder) ([]*minic.FuncSymbol, []*minic.Site, error) {
	fns, sites, err := r.p.decodeExecState(dec)
	if err == nil && dec.Remaining() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes in exec section", collect.ErrCorruptStream, dec.Remaining())
	}
	r.order.frames = make([]bool, len(sites))
	return fns, sites, err
}

// Apply takes one section list into the shell. sums, when set, are the
// content addresses the list names its sections by, and a section with a
// nil Body is one the shell Holds.
func (r *Restore) Apply(secs []snapshot.Section, sums []Sum) error {
	return r.timed(func() error { return r.apply(secs, sums) })
}

// Finish completes the restore; the process is then ready to resume. After
// Apply it rebuilds the frames of the latest list, fills the pointers into
// them its heap sections left null, and restores the frame and globals
// sections. It runs once.
func (r *Restore) Finish() error {
	if err := r.timed(r.finish); err != nil {
		return err
	}
	p := r.p
	p.resumeSites, p.restoreStats, p.restoreElapsed = r.sites, r.stats, r.elapsed
	r.span.SetBytes(int64(r.size))
	r.span.SetDuration(r.elapsed)
	flushRestore(r.framing)
	return nil
}

// timed runs one step under the restore phase label and adds its wall time,
// less what it spent Idle, to the restore's; a failed step ends the span.
func (r *Restore) timed(step func() error) error {
	start, idle := time.Now(), r.idle
	err := obs.Phase("restore", step)
	r.elapsed += time.Since(start) - (r.idle - idle)
	if err != nil {
		r.span.End()
	}
	return err
}

func (r *Restore) apply(secs []snapshot.Section, sums []Sum) error {
	r.order = order{}
	list := make([]*held, len(secs))
	var vars []snapshot.Section
	var heap []int
	for i, sec := range secs {
		if err := r.order.admit(sec.Kind, sec.ID); err != nil {
			return err
		}
		if sec.Body != nil || sums == nil {
			list[i] = &held{kind: sec.Kind, body: sec.Body}
		} else if list[i] = r.bySum[sums[i]]; !r.Holds(sec.Kind, sums[i]) {
			return fmt.Errorf("%w: %s section %d has no body", collect.ErrCorruptStream, sec.Kind, sec.ID)
		}
		switch sec.Kind {
		case snapshot.KindExec:
			if _, _, err := r.exec(xdr.NewDecoder(list[i].body)); err != nil {
				return err
			}
		case snapshot.KindHeap:
			heap = append(heap, i)
			continue
		}
		vars = append(vars, snapshot.Section{Kind: sec.Kind, ID: sec.ID, Body: list[i].body})
	}
	if err := r.order.complete(); err != nil {
		return err
	}
	if err := r.reconcile(secs, list, heap); err != nil {
		return err
	}
	r.vars, r.bySum = vars, nil
	if sums != nil {
		r.bySum = make(map[Sum]*held, len(list))
		for i, h := range list {
			r.bySum[sums[i]], h.sum = h, sums[i]
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
	blocks, deferred, rs, err := collect.RestoreHeapSection(p.Space, p.Table, p.TI, xdr.NewDecoder(sec.Body), c.blocks, early)
	if err != nil {
		return fmt.Errorf("vm: restoring %s section %d: %w", sec.Kind, sec.ID, err)
	}
	// The directory is copied out, so a shell keeps no frame alive.
	c.dir, c.blocks, c.body = slices.Clone(collect.HeapDirectory(sec.Body)), blocks, nil
	if deferred {
		c.body = sec.Body
	}
	r.booked(sec.Kind, sec.ID, len(sec.Body), rs, time.Since(start))
	return nil
}

// booked accounts for one applied section of n body bytes: its
// statistics, what it frames to, and a child of the restore span.
func (r *Restore) booked(kind snapshot.Kind, id uint32, n int, rs collect.RestoreStats, elapsed time.Duration) {
	r.stats.Add(rs)
	r.size += snapshot.SectionSize(n)
	c := r.span.Child("section")
	c.SetSection(kind.String(), id)
	c.SetBytes(int64(n))
	c.SetDuration(elapsed)
	mSectionRestore.Observe(elapsed)
}

// finish completes a restore: a one-list restore placed everything on
// arrival; after Apply the latest list's frames, deferred pointers and
// variables are still to place.
func (r *Restore) finish() error {
	if err := r.order.complete(); err != nil || r.vars == nil {
		return err
	}
	if err := r.place(snapshot.KindExec, 0, xdr.NewDecoder(r.vars[0].Body)); err != nil {
		return err
	}
	for k, c := range r.heap {
		if c.body != nil {
			delete(r.bySum, c.sum) // a Fork has no frames to fill it against
			if err := r.applyHeap(c, snapshot.Section{Kind: snapshot.KindHeap, ID: uint32(k), Body: c.body}, false); err != nil {
				return err
			}
		}
	}
	for _, sec := range r.vars[1:] {
		if err := r.place(sec.Kind, sec.ID, xdr.NewDecoder(sec.Body)); err != nil {
			return err
		}
	}
	return nil
}

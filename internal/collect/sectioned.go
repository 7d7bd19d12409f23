package collect

// Sectioned collection: the pipeline behind the sectioned snapshot format
// (internal/snapshot, envelope version 3). EncodeSections is the one
// producer; cold, warm and live captures all go through it.
//
// It first walks the MSR graph reachable from the live set — the same
// depth-first traversal and visited-set discipline as the monolithic
// Saver — but instead of encoding as it goes, it partitions the visited
// blocks into section owners: each stack block belongs to its frame's
// section, each global block to the globals section, and the heap blocks
// are grouped into the connected components of the heap subgraph
// (union-find over heap-to-heap pointer edges). A block shared by two
// traversal paths is assigned to exactly one owner here, so aliasing and
// cycles restore exactly as in the monolithic stream.
//
// It then encodes the section bodies, one after the other in the
// partition's order (heap components by first visit, frames, globals), on
// the calling goroutine; given a DeltaTracker it skips the sections the
// dirty set cannot have touched and hands back their cached bodies.
// Section bodies are flat: a pointer scalar encodes only its (header,
// ordinal) reference, never an inline block record, because every block's
// record lives in the directory of the section that owns it.
//
// # Section body format
//
//	heap body     = directory, contents
//	var body      = liveRefs, directory, contents      ; frames, globals
//	liveRefs      = count u32, ref*count               ; layout cross-check
//	directory     = count u32, (major, minor, typeIndex, elemCount)*count
//	contents      = per directory entry, in order: scalars in plan order,
//	                pointer scalars as flat refs
//
// Restoration order (enforced by the vm layer): the execution state
// rebuilds the frames; each heap section allocates its blocks from the
// directory before its contents are decoded; frame and globals sections
// then fill variable contents. Because heap components are closed under
// heap pointers, every reference a section decodes resolves against
// blocks already registered by that order.

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// Roots lists the traversal roots of one capture in the paper's
// collection order: the live variables of each frame, then the globals.
type Roots struct {
	// FrameLive[i] holds the live-variable addresses of frame i
	// (i = depth-1, outermost first). Traversal visits frames in
	// reverse order, innermost first, exactly as the monolithic capture
	// does.
	FrameLive [][]memory.Address
	// Globals holds every global variable address in declaration order.
	Globals []memory.Address
}

// partition is the section assignment of every reachable block.
type partition struct {
	// components are the connected components of the heap subgraph,
	// numbered and ordered by first visit; members are in first-visit
	// order too, so the encoding is deterministic.
	components [][]*msr.Block
	// frames[i] are the stack blocks of frame i (depth i+1) reached by
	// the traversal, in first-visit order.
	frames [][]*msr.Block
	// globals are the reachable global blocks in first-visit order.
	globals []*msr.Block
}

// partitioner carries the DFS + union-find state of the partition walk.
type partitioner struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine

	visited map[msr.BlockID]bool

	heapIdx    map[msr.BlockID]int
	heapBlocks []*msr.Block
	parent     []int

	frames  [][]*msr.Block
	globals []*msr.Block
}

// buildPartition runs the partition walk: one depth-first traversal from
// the live set, reusing the monolithic traversal order so the set of
// transferred blocks is identical to the v1 stream's.
func buildPartition(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots) (*partition, error) {
	w := &partitioner{
		space:   space,
		table:   table,
		ti:      ti,
		mach:    space.Machine(),
		visited: make(map[msr.BlockID]bool),
		heapIdx: make(map[msr.BlockID]int),
		frames:  make([][]*msr.Block, len(roots.FrameLive)),
	}
	// Innermost frame first, then globals — the v1 order.
	for i := len(roots.FrameLive) - 1; i >= 0; i-- {
		for _, addr := range roots.FrameLive[i] {
			if addr == 0 {
				return nil, fmt.Errorf("collect: null live-variable address in frame %d", i+1)
			}
			if _, err := w.visitAddr(addr); err != nil {
				return nil, err
			}
		}
	}
	for _, addr := range roots.Globals {
		if addr == 0 {
			return nil, fmt.Errorf("collect: null global address")
		}
		if _, err := w.visitAddr(addr); err != nil {
			return nil, err
		}
	}
	return w.finish(), nil
}

// visitAddr resolves the block containing addr and visits it.
func (w *partitioner) visitAddr(addr memory.Address) (*msr.Block, error) {
	b, _, err := w.table.Lookup(addr, func(ty *types.Type) int { return ty.SizeOf(w.mach) })
	if err != nil {
		return nil, fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(addr), err)
	}
	if err := w.visitBlock(b); err != nil {
		return nil, err
	}
	return b, nil
}

// visitBlock assigns a first-seen block to its section owner and scans
// its pointer scalars, recursing depth-first.
func (w *partitioner) visitBlock(b *msr.Block) error {
	if w.visited[b.ID] {
		return nil
	}
	w.visited[b.ID] = true
	switch b.ID.Seg {
	case memory.Heap:
		w.heapIdx[b.ID] = len(w.heapBlocks)
		w.heapBlocks = append(w.heapBlocks, b)
		w.parent = append(w.parent, len(w.parent))
	case memory.Stack:
		fi := int(b.ID.Major) - 1
		if fi < 0 || fi >= len(w.frames) {
			return fmt.Errorf("collect: stack block %s outside the active frame range", b.ID)
		}
		w.frames[fi] = append(w.frames[fi], b)
	case memory.Global:
		w.globals = append(w.globals, b)
	default:
		return fmt.Errorf("collect: block %s in unexpected segment", b.ID)
	}
	plan := w.ti.Plan(b.Type, w.mach)
	for elem := 0; elem < b.Count; elem++ {
		if err := w.scanOps(b, plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize)); err != nil {
			return err
		}
	}
	return nil
}

// scanOps walks the pointer scalars of one element, visiting targets and
// recording heap-to-heap edges in the union-find.
func (w *partitioner) scanOps(from *msr.Block, ops []types.PlanOp, base memory.Address) error {
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			for i := 0; i < op.Count; i++ {
				if err := w.scanOps(from, op.Sub, base+memory.Address(op.Off+i*op.Stride)); err != nil {
					return err
				}
			}
		case op.Kind == arch.Ptr:
			for i := 0; i < op.Count; i++ {
				val, err := w.space.LoadPtr(base + memory.Address(op.Off+i*op.Stride))
				if err != nil {
					return err
				}
				if val == 0 {
					continue
				}
				tb, err := w.visitAddr(val)
				if err != nil {
					return err
				}
				if from.ID.Seg == memory.Heap && tb.ID.Seg == memory.Heap {
					w.union(w.heapIdx[from.ID], w.heapIdx[tb.ID])
				}
			}
		}
	}
	return nil
}

// find with path halving.
func (w *partitioner) find(i int) int {
	for w.parent[i] != i {
		w.parent[i] = w.parent[w.parent[i]]
		i = w.parent[i]
	}
	return i
}

func (w *partitioner) union(a, b int) {
	ra, rb := w.find(a), w.find(b)
	if ra != rb {
		// Attach the later-visited root under the earlier one so the
		// component keeps its first-visit identity.
		if ra < rb {
			w.parent[rb] = ra
		} else {
			w.parent[ra] = rb
		}
	}
}

// finish groups the heap blocks into their components, both numbered and
// ordered by first visit.
func (w *partitioner) finish() *partition {
	compOf := make(map[int]int)
	var comps [][]*msr.Block
	for i, b := range w.heapBlocks {
		root := w.find(i)
		c, ok := compOf[root]
		if !ok {
			c = len(comps)
			compOf[root] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], b)
	}
	return &partition{components: comps, frames: w.frames, globals: w.globals}
}

// EncodedSection is one section body of a capture.
type EncodedSection struct {
	Body []byte
	// Reused reports the body was carried over from the tracker's previous
	// round without re-encoding; Elapsed is then zero.
	Reused  bool
	Elapsed time.Duration
}

// SectionedState holds every section body of one capture, in the
// partition's deterministic order, plus the collection statistics.
type SectionedState struct {
	// Heap[i] is component i's body; Frames[i] is frame depth i+1's.
	Heap    []EncodedSection
	Frames  []EncodedSection
	Globals EncodedSection
	// Stats covers the sections that were encoded (not the reused ones).
	// Searches and SearchSteps are left zero: the caller derives the
	// capture-wide deltas from the table exactly as Saver.Finish does.
	Stats SaveStats
	// Calls is the number of XDR encode operations behind those sections.
	Calls int
	// Partition is the wall time of the partition walk.
	Partition time.Duration

	// encs holds the pooled per-section encoders whose buffers back the
	// Body slices of a capture made without a tracker; Release returns
	// them.
	encs []*xdr.Encoder
}

// Release returns the pooled per-section encoders to the buffer pool.
// After a capture without a tracker every Body slice aliases one of those
// buffers, so the caller must be done with the bodies — typically after
// splicing them into the top-level snapshot stream. After a capture with
// a tracker the bodies are tracker-owned and Release has nothing to
// return. Safe to call more than once.
func (st *SectionedState) Release() {
	for _, e := range st.encs {
		e.Release()
	}
	st.encs = nil
	st.Heap, st.Frames, st.Globals = nil, nil, EncodedSection{}
}

// sectionJob is one body to encode.
type sectionJob struct {
	blocks   []*msr.Block
	live     []memory.Address
	withLive bool

	// key names the section across the rounds of a DeltaTracker; sig and
	// reuse are set by DeltaTracker.mark.
	key   deltaKey
	sig   uint64
	reuse bool
}

// jobs lays a partition out as the encode job list, in the deterministic
// section order: heap components, frames, globals.
func (pt *partition) jobs(roots Roots) []sectionJob {
	jobs := make([]sectionJob, 0, len(pt.components)+len(pt.frames)+1)
	for _, comp := range pt.components {
		jobs = append(jobs, sectionJob{blocks: comp, key: deltaKey{class: 0, id: comp[0].ID.Major}})
	}
	for i, blocks := range pt.frames {
		jobs = append(jobs, sectionJob{blocks: blocks, live: roots.FrameLive[i], withLive: true,
			key: deltaKey{class: 1, id: uint32(i) + 1}})
	}
	return append(jobs, sectionJob{blocks: pt.globals, live: roots.Globals, withLive: true, key: deltaKey{class: 2}})
}

// EncodeSections captures the state reachable from roots as section
// bodies: every heap component, frame, and the globals become one body
// each. With a nil tracker every section is encoded and its body aliases
// a pooled encoder until Release. With a tracker (one pre-copy round)
// the sections dirty cannot have touched since the tracker's previous
// round are reused from it and the rest are encoded and handed to it, so
// every body is tracker-owned; dirty answers "was this range written
// since the last round", and a nil dirty treats everything as dirty. The
// bodies are the same bytes either way.
func EncodeSections(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots, dt *DeltaTracker, dirty DirtyFunc) (*SectionedState, error) {
	start := time.Now()
	pt, err := buildPartition(space, table, ti, roots)
	if err != nil {
		return nil, err
	}
	st := &SectionedState{Partition: time.Since(start)}
	jobs := pt.jobs(roots)
	mach := space.Machine()
	if dt != nil {
		dt.mark(jobs, ti, mach, dirty)
	}

	secs := make([]EncodedSection, len(jobs))
	st.encs = make([]*xdr.Encoder, 0, len(jobs))
	se := &sectionEncoder{space: space, table: table, ti: ti, mach: mach}
	for idx, job := range jobs {
		if job.reuse {
			continue
		}
		secStart := time.Now()
		se.enc = xdr.GetEncoder(sectionSizeHint(job.blocks, mach))
		st.encs = append(st.encs, se.enc)
		if err := se.encodeBody(job.blocks, job.live, job.withLive); err != nil {
			st.Release()
			return nil, err
		}
		st.Calls += se.enc.Calls()
		secs[idx] = EncodedSection{Body: se.enc.Bytes(), Elapsed: time.Since(secStart)}
	}
	if dt != nil {
		// The tracker takes its own copy of every fresh body, so the
		// encoders go back at once.
		dt.fold(jobs, secs)
		st.Release()
	}

	h, f := len(pt.components), len(pt.frames)
	st.Heap, st.Frames, st.Globals = secs[:h], secs[h:h+f], secs[h+f]
	st.Stats = se.stats
	return st, nil
}

// sectionSizeHint estimates a body's encoded size from the machine-side
// block sizes, so encoders rarely reallocate.
func sectionSizeHint(blocks []*msr.Block, m *arch.Machine) int {
	est := 64 + 24*len(blocks)
	for _, b := range blocks {
		est += b.Count * b.Type.SizeOf(m)
	}
	return est
}

// sectionEncoder encodes section bodies (flat references, no inline
// records) into enc, which EncodeSections swaps per section; stats runs
// across all of them.
type sectionEncoder struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine
	enc   *xdr.Encoder
	stats SaveStats
}

func (e *sectionEncoder) encodeBody(blocks []*msr.Block, live []memory.Address, withLive bool) error {
	if withLive {
		e.enc.PutUint32(uint32(len(live)))
		for _, addr := range live {
			if addr == 0 {
				return fmt.Errorf("collect: null live-variable address")
			}
			if err := e.putRef(addr); err != nil {
				return err
			}
		}
	}
	e.enc.PutUint32(uint32(len(blocks)))
	for _, b := range blocks {
		ti, ok := e.ti.Index(b.Type)
		if !ok {
			return fmt.Errorf("collect: block %s has type %s not in TI table", b.ID, b.Type)
		}
		e.enc.Put4Uint32(b.ID.Major, b.ID.Minor, uint32(ti), uint32(b.Count))
	}
	for _, b := range blocks {
		e.stats.Blocks++
		plan := e.ti.Plan(b.Type, e.mach)
		for elem := 0; elem < b.Count; elem++ {
			if err := e.encodeOps(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize)); err != nil {
				return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
			}
		}
	}
	return nil
}

func (e *sectionEncoder) encodeOps(ops []types.PlanOp, base memory.Address) error {
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			for i := 0; i < op.Count; i++ {
				if err := e.encodeOps(op.Sub, base+memory.Address(op.Off+i*op.Stride)); err != nil {
					return err
				}
			}
		case op.Kind == arch.Ptr:
			for i := 0; i < op.Count; i++ {
				val, err := e.space.LoadPtr(base + memory.Address(op.Off+i*op.Stride))
				if err != nil {
					return err
				}
				if err := e.putRef(val); err != nil {
					return err
				}
			}
		default:
			n, err := encodeRun(e.enc, e.space, op, base)
			if err != nil {
				return err
			}
			e.stats.DataBytes += int64(n)
		}
	}
	return nil
}

// putRef encodes one flat pointer reference.
func (e *sectionEncoder) putRef(p memory.Address) error {
	e.stats.Pointers++
	if p == 0 {
		e.stats.NullPointers++
		e.enc.PutUint32(nullSeg)
		return nil
	}
	ref, err := msr.Resolve(e.table, e.mach, p)
	if err != nil {
		return fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(p), err)
	}
	e.enc.Put4Uint32(uint32(ref.ID.Seg), ref.ID.Major, ref.ID.Minor, uint32(ref.Ordinal))
	return nil
}

// RestoreHeapSection rebuilds one heap-component section: every block in
// the directory is allocated and registered, in stream order, before any
// content is decoded, then the contents are filled with flat reference
// translation.
func RestoreHeapSection(space *memory.Space, table *msr.Table, ti *types.TI, body []byte, instrument bool) (RestoreStats, error) {
	r := NewRestorer(space, table, ti, xdr.NewDecoder(body))
	r.flat = true
	r.Instrument = instrument

	n, err := r.dec.Uint32()
	if err != nil {
		return r.Stats, fmt.Errorf("%w: truncated heap section directory", ErrCorruptStream)
	}
	if int64(n)*16 > int64(r.dec.Remaining()) {
		return r.Stats, fmt.Errorf("%w: heap directory declares %d entries, %d bytes remain",
			ErrCorruptStream, n, r.dec.Remaining())
	}
	var start time.Time
	if instrument {
		start = time.Now()
	}
	blocks := make([]*msr.Block, 0, n)
	for i := uint32(0); i < n; i++ {
		major, minor, ty, count, err := r.directoryEntry()
		if err != nil {
			return r.Stats, err
		}
		if minor != 0 {
			return r.Stats, fmt.Errorf("%w: heap block with nonzero minor %d", ErrCorruptStream, minor)
		}
		id := msr.BlockID{Seg: memory.Heap, Major: major}
		if _, exists := r.table.ByID(id); exists {
			return r.Stats, fmt.Errorf("%w: duplicate heap block %s", ErrCorruptStream, id)
		}
		b, err := r.allocHeapBlock(id, ty, count)
		if err != nil {
			return r.Stats, err
		}
		blocks = append(blocks, b)
	}
	if instrument {
		r.Stats.UpdateTime += time.Since(start)
	}
	err = r.fillBlocks(blocks)
	return r.Stats, err
}

// RestoreVarSection rebuilds one frame or globals section: the live
// references are verified against the destination's own layout (the
// RestoreVariable cross-check of the paper), the directory is matched
// against the already-registered variable blocks, and the contents are
// filled. seg and major bound the identifications a directory entry may
// carry (Stack + frame depth, or Global + 0).
func RestoreVarSection(space *memory.Space, table *msr.Table, ti *types.TI, body []byte, live []memory.Address, seg memory.Segment, major uint32, instrument bool) (RestoreStats, error) {
	r := NewRestorer(space, table, ti, xdr.NewDecoder(body))
	r.flat = true
	r.Instrument = instrument

	n, err := r.dec.Uint32()
	if err != nil {
		return r.Stats, fmt.Errorf("%w: truncated live-reference list", ErrCorruptStream)
	}
	if int(n) != len(live) {
		return r.Stats, fmt.Errorf("%w: section carries %d live references, destination expects %d",
			ErrMismatch, n, len(live))
	}
	for _, addr := range live {
		if err := r.RestoreVariable(addr); err != nil {
			return r.Stats, err
		}
	}

	nb, err := r.dec.Uint32()
	if err != nil {
		return r.Stats, fmt.Errorf("%w: truncated section directory", ErrCorruptStream)
	}
	if int64(nb)*16 > int64(r.dec.Remaining()) {
		return r.Stats, fmt.Errorf("%w: directory declares %d entries, %d bytes remain",
			ErrCorruptStream, nb, r.dec.Remaining())
	}
	blocks := make([]*msr.Block, 0, nb)
	for i := uint32(0); i < nb; i++ {
		maj, minor, ty, count, err := r.directoryEntry()
		if err != nil {
			return r.Stats, err
		}
		if maj != major {
			return r.Stats, fmt.Errorf("%w: block %s.%d outside section (want major %d)",
				ErrCorruptStream, seg, maj, major)
		}
		id := msr.BlockID{Seg: seg, Major: maj, Minor: minor}
		b, ok := r.table.ByID(id)
		if !ok {
			return r.Stats, fmt.Errorf("%w: section references unknown %s block %s", ErrMismatch, seg, id)
		}
		if b.Type != ty || b.Count != count {
			return r.Stats, fmt.Errorf("%w: block %s shape mismatch: stream %s x%d, destination %s x%d",
				ErrMismatch, id, ty, count, b.Type, b.Count)
		}
		blocks = append(blocks, b)
	}
	err = r.fillBlocks(blocks)
	return r.Stats, err
}

// fillBlocks decodes the contents of a section's directory blocks, in
// order, and requires them to end where the body does.
func (r *Restorer) fillBlocks(blocks []*msr.Block) error {
	for _, b := range blocks {
		r.Stats.Blocks++
		if err := r.fillContents(b); err != nil {
			return err
		}
	}
	if r.dec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in section", ErrCorruptStream, r.dec.Remaining())
	}
	return nil
}

// directoryEntry decodes one section-directory record (one take for the
// whole 16-byte entry).
func (r *Restorer) directoryEntry() (major, minor uint32, ty *types.Type, count int, err error) {
	major, minor, tIdx, c, err := r.dec.Uint32x4()
	if err != nil {
		return 0, 0, nil, 0, fmt.Errorf("%w: truncated directory entry", ErrCorruptStream)
	}
	ty, err = r.ti.At(int(tIdx))
	if err != nil {
		return 0, 0, nil, 0, fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}
	return major, minor, ty, int(c), nil
}

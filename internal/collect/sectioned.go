package collect

// Sectioned collection: the pipeline behind the sectioned snapshot format
// (internal/snapshot). EncodeSections is the one
// producer; cold, warm and live captures all go through it.
//
// It first walks the MSR graph reachable from the live set — the paper's
// depth-first order and visited-set discipline, on an explicit stack — but
// instead of encoding as it goes, it partitions the visited blocks into
// section owners: each stack block belongs to its frame's section, each
// global block to the globals section, and the heap blocks are grouped
// into the connected components of the heap subgraph (union-find over
// heap-to-heap pointer edges). A block shared by two traversal paths is
// assigned to exactly one owner here, so aliasing and cycles restore
// exactly. Following a pointer means resolving it, so the walk records
// every pointer scalar's resolved form as it goes: each pointer costs one
// MSRLT search per capture, through the capture's page index
// (msr.PageIndex), not the paper's bisection.
//
// It then encodes the section bodies, one after the other in snapshot
// order (heap components by first visit, frames innermost first, globals),
// on the calling goroutine, writing the recorded references where the
// pointers stand. Given a DeltaTracker (delta.go) it keeps the previous
// round's partition instead of walking when the dirty set shows the walk
// would find the same one, skips the sections the dirty set cannot have
// touched and hands back their cached bodies, saying where in the previous
// round each came from.
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
// Restoration order (enforced by the vm layer): each heap section
// allocates its blocks from the directory before its contents are
// decoded; the execution state rebuilds the frames; frame and globals
// sections then fill variable contents. Because heap components are closed
// under heap pointers, every reference a section decodes resolves against
// blocks already registered by that order — except a heap block's pointer
// into a frame, when the heap section was applied before the frames
// existed: it is filled once more after them.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
	// reverse order, innermost first, as the paper's collection does.
	FrameLive [][]memory.Address
	// Globals holds every global variable address in declaration order.
	Globals []memory.Address
}

// member is one block of a section, with the place in partition.refs where
// its recorded pointer references start and its position in the table.
type member struct {
	b    *msr.Block
	refs int32
	pos  int32
}

// partition is the section assignment of every reachable block.
type partition struct {
	// components are the connected components of the heap subgraph,
	// numbered and ordered by first visit; members are in first-visit
	// order too, so the encoding is deterministic.
	components [][]member
	// frames[i] are the stack blocks of frame i (depth i+1) reached by
	// the traversal, in first-visit order.
	frames [][]member
	// globals are the reachable global blocks in first-visit order.
	globals []member

	// refs holds the pointer scalars of every visited block in resolved
	// form — the words that go on the wire: nullSeg, or segment, major,
	// minor, ordinal — block by block, in plan order. The walk has to
	// resolve each pointer to follow it; the encoder writes what the walk
	// found instead of loading and searching again (the process is stopped
	// between the two). It holds no Go pointer, so the GC never scans it.
	refs []uint32
	// frameLive[i] and globalLive are the live variables' references in
	// the same form, four words each.
	frameLive  [][]uint32
	globalLive []uint32
	// pages resolved every reference above; it stays valid while the
	// table's Version is the one the walk ran at.
	pages *msr.PageIndex
}

// edge is a pointer the walk still has to follow.
type edge struct {
	to   *msr.Block
	pos  int32 // to's position in the table
	from int32 // index in partitioner.heap of the block holding the pointer, -1 outside the heap
}

// partitioner carries the DFS + union-find state of the partition walk.
type partitioner struct {
	space *memory.Space
	mach  *arch.Machine
	pt    partition

	// slot is the visit state of every block by table position (the
	// process is stopped, so positions hold for the whole walk): 0 not
	// visited, -1 visited outside the heap, else 1 + its index in heap.
	slot []int32
	// heap lists the visited heap blocks in first-visit order; parent is
	// the union-find forest over them.
	heap   []member
	parent []int32
	// pending is the explicit stack: targets not yet visited when their
	// pointer was scanned, the next to follow last.
	pending []edge
	from    int32    // index in heap of the block being scanned, -1 outside the heap
	live    []uint32 // backing of pt.frameLive and pt.globalLive
}

// buildPartition runs the partition walk: one depth-first traversal from
// the live set, in the order of the paper's recursive Save_pointer. The
// stack is explicit — a million-node list is ordinary state, and a
// recursion as deep would exhaust the goroutine stack and take the whole
// process down.
func buildPartition(space *memory.Space, table *msr.Table, roots Roots) (*partition, error) {
	nroots := len(roots.Globals)
	for _, live := range roots.FrameLive {
		nroots += len(live)
	}
	// Sized from the table, so no slice regrows block by block: the heap
	// blocks are at most all of them, and a four-word reference and a null
	// per block hold a list's or a binary tree's pointers.
	n := table.Len()
	w := &partitioner{
		space:  space,
		mach:   space.Machine(),
		slot:   make([]int32, n),
		heap:   make([]member, 0, n),
		parent: make([]int32, 0, n),
		live:   make([]uint32, 0, 4*nroots),
	}
	w.pt.refs, w.pt.pages = make([]uint32, 0, 5*n), table.Pages()
	w.pt.frames = make([][]member, len(roots.FrameLive))
	w.pt.frameLive = make([][]uint32, len(roots.FrameLive))
	// Innermost frame first, then globals — the paper's order.
	for i := len(roots.FrameLive) - 1; i >= 0; i-- {
		start := len(w.live)
		for _, addr := range roots.FrameLive[i] {
			if addr == 0 {
				return nil, fmt.Errorf("collect: null live-variable address in frame %d", i+1)
			}
			if err := w.root(addr); err != nil {
				return nil, err
			}
		}
		w.pt.frameLive[i] = w.live[start:]
	}
	start := len(w.live)
	for _, addr := range roots.Globals {
		if addr == 0 {
			return nil, fmt.Errorf("collect: null global address")
		}
		if err := w.root(addr); err != nil {
			return nil, err
		}
	}
	w.pt.globalLive = w.live[start:]
	w.finish()
	return &w.pt, nil
}

// resolve is the one MSRLT search a pointer value costs: it appends the
// value's wire form to into and returns the block it points into with the
// block's table position.
func resolve(pages *msr.PageIndex, m *arch.Machine, into []uint32, addr memory.Address) ([]uint32, *msr.Block, int, error) {
	b, pos, off, err := pages.Lookup(m, addr)
	if err == nil {
		var ord int
		if ord, err = b.OrdinalAt(m, off); err == nil {
			return append(into, uint32(b.ID.Seg), b.ID.Major, b.ID.Minor, uint32(ord)), b, pos, nil
		}
	}
	return into, nil, 0, fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(addr), err)
}

// root records one live variable's reference and visits everything
// reachable from its block that no earlier root reached.
func (w *partitioner) root(addr memory.Address) error {
	live, b, pos, err := resolve(w.pt.pages, w.mach, w.live, addr)
	if err != nil {
		return err
	}
	w.live = live
	w.pending = append(w.pending, edge{to: b, pos: int32(pos), from: -1})
	for len(w.pending) > 0 {
		e := w.pending[len(w.pending)-1]
		w.pending = w.pending[:len(w.pending)-1]
		if w.slot[e.pos] == 0 {
			if err := w.visit(e.to, e.pos); err != nil {
				return err
			}
		}
		if to := w.slot[e.pos]; e.from >= 0 && to > 0 {
			w.union(e.from, to-1)
		}
	}
	return nil
}

// visit assigns a first-seen block to its section owner and scans its
// pointer scalars, in plan order: each is resolved and recorded, and each
// target not yet visited is left on the stack so that the first is
// followed — to the end of everything only it reaches — before the second,
// which is the recursive traversal's first-visit order.
func (w *partitioner) visit(b *msr.Block, pos int32) error {
	mb := member{b: b, refs: int32(len(w.pt.refs)), pos: pos}
	w.from, w.slot[pos] = -1, -1
	switch b.ID.Seg {
	case memory.Heap:
		w.from = int32(len(w.heap))
		w.slot[pos] = w.from + 1
		w.heap = append(w.heap, mb)
		w.parent = append(w.parent, w.from)
	case memory.Stack:
		fi := int(b.ID.Major) - 1
		if fi < 0 || fi >= len(w.pt.frames) {
			return fmt.Errorf("collect: stack block %s outside the active frame range", b.ID)
		}
		w.pt.frames[fi] = append(w.pt.frames[fi], mb)
	case memory.Global: // Register admits no fourth segment
		w.pt.globals = append(w.pt.globals, mb)
	}
	plan := b.Plan(w.mach)
	if !plan.HasPtr {
		return nil
	}
	first := len(w.pending)
	for elem := 0; elem < b.Count; elem++ {
		if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), w.scanRun); err != nil {
			return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
		}
	}
	slices.Reverse(w.pending[first:])
	return nil
}

// scanRun resolves and records the pointer scalars of one run of the block
// being scanned, unioning heap-to-heap edges.
func (w *partitioner) scanRun(op *types.PlanOp, base memory.Address) error {
	if op.Kind != arch.Ptr {
		return nil
	}
	for i := 0; i < op.Count; i++ {
		val, err := w.space.LoadPtr(base + memory.Address(op.Off+i*op.Stride))
		if err != nil {
			return err
		}
		if val == 0 {
			w.pt.refs = append(w.pt.refs, nullSeg)
			continue
		}
		refs, tb, pos, err := resolve(w.pt.pages, w.mach, w.pt.refs, val)
		if err != nil {
			return err
		}
		w.pt.refs = refs
		switch to := w.slot[pos]; {
		case to == 0:
			w.pending = append(w.pending, edge{to: tb, pos: int32(pos), from: w.from})
		case to > 0 && w.from >= 0:
			w.union(w.from, to-1)
		}
	}
	return nil
}

// find with path halving.
func (w *partitioner) find(i int32) int32 {
	for w.parent[i] != i {
		w.parent[i] = w.parent[w.parent[i]]
		i = w.parent[i]
	}
	return i
}

func (w *partitioner) union(a, b int32) {
	// Attach the later-visited root under the earlier one, so a
	// component's root is its first-visited member.
	if ra, rb := w.find(a), w.find(b); ra < rb {
		w.parent[rb] = ra
	} else {
		w.parent[ra] = rb
	}
}

// finish groups the heap blocks into their components, both numbered and
// ordered by first visit: a block that is its own root opens the next
// component, and every other block's root came before it.
func (w *partitioner) finish() {
	comp := make([]int32, len(w.heap))
	var sizes []int
	for i := range w.heap {
		if root := w.find(int32(i)); root == int32(i) {
			comp[i] = int32(len(sizes))
			sizes = append(sizes, 0)
		} else {
			comp[i] = comp[root]
		}
		sizes[comp[i]]++
	}
	all := make([]member, len(w.heap))
	w.pt.components = make([][]member, len(sizes))
	for c, n := range sizes {
		w.pt.components[c], all = all[:0:n], all[n:]
	}
	for i, mb := range w.heap {
		w.pt.components[comp[i]] = append(w.pt.components[comp[i]], mb)
	}
}

// site is a block of a partition as a dirty range finds it: its extent and
// the job that owns it.
type site struct {
	member
	end memory.Address
	job int32
}

// sitesOf lists the blocks of a partition's jobs in address order, which is
// table order, so the walk's positions sort them without a sort.
func sitesOf(jobs []sectionJob, m *arch.Machine, nblocks int) []site {
	at := make([]site, nblocks) // by table position; unreached positions stay empty
	for j, job := range jobs {
		for _, mb := range job.blocks {
			at[mb.pos] = site{member: mb, end: mb.b.Addr + memory.Address(mb.b.Count*mb.b.Plan(m).ElemSize), job: int32(j)}
		}
	}
	sites := at[:0]
	for _, s := range at {
		if s.b != nil {
			sites = append(sites, s)
		}
	}
	return sites
}

// overlapped calls f, in address order, for every site a dirty range
// overlaps, with the ranges that overlap it. Both lists are in address order
// and disjoint, so one pass with a search across each gap does it.
func overlapped(sites []site, dirty []memory.DirtyRange, f func(*site, []memory.DirtyRange) error) error {
	for i, k := 0, 0; i < len(dirty) && k < len(sites); {
		lo, rest := dirty[i].Lo, sites[k:]
		if k += sort.Search(len(rest), func(n int) bool { return rest[n].end > lo }); k == len(sites) {
			break
		}
		s := &sites[k]
		if s.b.Addr >= dirty[i].Hi {
			i++ // the range falls between blocks
			continue
		}
		j := i + 1
		for j < len(dirty) && dirty[j].Lo < s.end {
			j++
		}
		if err := f(s, dirty[i:j]); err != nil {
			return err
		}
		i, k = j-1, k+1 // the last of them may run on into the next block
	}
	return nil
}

// refScan walks partition members' pointer scalars, in plan order, along
// the references the walk recorded for them: one word for a null, four for
// any other.
type refScan struct {
	pt    *partition
	m     *arch.Machine
	refs  []uint32                                    // the member's references still to visit
	visit func(at memory.Address, rec []uint32) error // nil when only the span is wanted
	run   func(*types.PlanOp, memory.Address) error   // scanRun, bound once
}

func (pt *partition) refScan(m *arch.Machine, visit func(memory.Address, []uint32) error) *refScan {
	s := &refScan{pt: pt, m: m, visit: visit}
	s.run = s.scanRun
	return s
}

// member visits one member's pointer scalars and returns the references
// recorded for them.
func (s *refScan) member(mb member) ([]uint32, error) {
	all, plan := s.pt.refs[mb.refs:], mb.b.Plan(s.m)
	s.refs = all
	for elem := 0; elem < mb.b.Count && plan.HasPtr; elem++ {
		if err := types.EachRun(plan.Ops, mb.b.Addr+memory.Address(elem*plan.ElemSize), s.run); err != nil {
			return nil, err
		}
	}
	return all[:len(all)-len(s.refs)], nil
}

func (s *refScan) scanRun(op *types.PlanOp, base memory.Address) error {
	for i := 0; i < op.Count && op.Kind == arch.Ptr; i++ {
		n := 4
		if s.refs[0] == nullSeg {
			n = 1
		}
		rec := s.refs[:n]
		s.refs = s.refs[n:]
		if s.visit != nil {
			if err := s.visit(base+memory.Address(op.Off+i*op.Stride), rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// errMoved reports a pointer that no longer resolves to the reference a
// kept partition recorded for it.
var errMoved = errors.New("collect: a recorded reference moved")

// recheck holds a kept partition to the memory it was walked over: every
// pointer scalar a dirty range overlaps must still resolve to the reference
// the walk recorded for it. It resolves through the partition's page index,
// which the unchanged table Version the reuse rule requires keeps valid.
type recheck struct {
	space *memory.Space
	dirty []memory.DirtyRange // the ranges that overlap the block being checked
	got   []uint32            // one re-resolved reference
	scan  *refScan
}

func newRecheck(space *memory.Space, pt *partition) *recheck {
	c := &recheck{space: space}
	c.scan = pt.refScan(space.Machine(), c.pointer)
	return c
}

// block rechecks one site against the ranges that overlap it.
func (c *recheck) block(s *site, dirty []memory.DirtyRange) error {
	c.dirty = dirty
	_, err := c.scan.member(s.member)
	return err
}

func (c *recheck) pointer(at memory.Address, rec []uint32) error {
	end := at + memory.Address(c.scan.m.PtrSize())
	if d := sort.Search(len(c.dirty), func(d int) bool { return c.dirty[d].Hi > at }); d == len(c.dirty) || c.dirty[d].Lo >= end {
		return nil // this pointer was not written
	}
	val, err := c.space.LoadPtr(at)
	if err != nil {
		return err
	}
	c.got = append(c.got[:0], nullSeg)
	if val != 0 {
		if c.got, _, _, err = resolve(c.scan.pt.pages, c.scan.m, c.got[:0], val); err != nil {
			return err
		}
	}
	if !slices.Equal(c.got, rec) {
		return errMoved
	}
	return nil
}

// EncodedSection is one section body of a capture.
type EncodedSection struct {
	Body []byte
	// From is the index in the tracker's previous round of the body this
	// one was carried over from without re-encoding (Elapsed is then zero),
	// or -1 when this capture encoded it.
	From    int
	Elapsed time.Duration
}

// SectionedState holds every section body of one capture, in the
// partition's deterministic order, plus the collection statistics.
type SectionedState struct {
	// Bodies lists the sections in snapshot order after the exec section
	// the caller puts first: the Heap components by number, the frames
	// innermost first, the globals.
	Bodies []EncodedSection
	Heap   int
	// Stats covers the sections that were encoded (not the reused ones).
	// Searches and SearchSteps are left zero: the caller derives the
	// capture-wide deltas from the table's counters.
	Stats SaveStats
	// Calls is the number of XDR encode operations behind those sections.
	Calls int
	// Reused says the tracker's previous partition was kept instead of
	// walking; Stats.SearchTime is then the check that kept it.
	Reused bool

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
	st.encs, st.Bodies = nil, nil
}

// sectionJob is one body to encode.
type sectionJob struct {
	blocks   []member
	live     []memory.Address
	liveRefs []uint32 // live's recorded references
	withLive bool

	// key names the section across the rounds of a DeltaTracker. reuse
	// marks a section whose body is that of the previous round's job from,
	// unchanged (set by DeltaTracker.plan).
	key   deltaKey
	reuse bool
	from  int
}

// jobs lays a partition out as the encode job list, in snapshot order:
// heap components, frames innermost first, globals.
func (pt *partition) jobs(roots Roots) []sectionJob {
	jobs := make([]sectionJob, 0, len(pt.components)+len(pt.frames)+1)
	for _, comp := range pt.components {
		jobs = append(jobs, sectionJob{blocks: comp, key: deltaKey{class: 0, id: comp[0].b.ID.Major}})
	}
	for i := len(pt.frames) - 1; i >= 0; i-- {
		jobs = append(jobs, sectionJob{blocks: pt.frames[i], live: roots.FrameLive[i], liveRefs: pt.frameLive[i],
			withLive: true, key: deltaKey{class: 1, id: uint32(i) + 1}})
	}
	return append(jobs, sectionJob{blocks: pt.globals, live: roots.Globals, liveRefs: pt.globalLive,
		withLive: true, key: deltaKey{class: 2}})
}

// EncodeSections captures the state reachable from roots as section
// bodies: every heap component, frame, and the globals become one body
// each. With a nil tracker every section is encoded and its body aliases
// a pooled encoder until Release. With a tracker (one pre-copy round) the
// tracker's previous partition is kept when the reuse rule holds, the
// sections dirty cannot have touched since its previous round are reused
// from it, and the rest are encoded and handed to it, so every body is
// tracker-owned; dirty lists the ranges written since that round, in
// address order (memory.Space.DirtyRangesSince). The bodies are the same
// bytes either way.
func EncodeSections(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots, dt *DeltaTracker, dirty []memory.DirtyRange) (*SectionedState, error) {
	start := time.Now()
	var round *deltaRound
	var err error
	if dt == nil {
		round, err = walk(space, table, roots)
	} else {
		round, err = dt.plan(space, table, roots, dirty)
	}
	if err != nil {
		return nil, err
	}
	partition := time.Since(start)
	st := &SectionedState{Reused: round.reused}
	pt, jobs, mach := round.pt, round.jobs, space.Machine()

	secs := make([]EncodedSection, len(jobs))
	st.encs = make([]*xdr.Encoder, 0, len(jobs))
	se := &sectionEncoder{space: space, ti: ti, mach: mach, pt: pt}
	for idx, job := range jobs {
		if job.reuse {
			continue
		}
		secStart := time.Now()
		if dt == nil {
			se.enc = xdr.GetEncoder(sectionSizeHint(job.blocks, mach))
			st.encs = append(st.encs, se.enc)
		} else {
			se.enc = xdr.NewEncoder(sectionSizeHint(job.blocks, mach)) // its buffer becomes the tracker's
		}
		if err := se.encodeBody(job); err != nil {
			st.Release()
			return nil, err
		}
		st.Calls += se.enc.Calls()
		secs[idx] = EncodedSection{Body: se.enc.Bytes(), From: -1, Elapsed: time.Since(secStart)}
	}
	if dt != nil {
		dt.fold(round, secs)
	}
	st.Bodies, st.Heap, st.Stats = secs, len(pt.components), se.stats
	st.Stats.SearchTime, st.Stats.EncodeTime = partition, time.Since(start)-partition
	return st, nil
}

// sectionSizeHint estimates a body's encoded size from the machine-side
// block sizes, so encoders rarely reallocate.
func sectionSizeHint(blocks []member, m *arch.Machine) int {
	est := 64 + 24*len(blocks)
	for _, mb := range blocks {
		est += mb.b.Count * mb.b.Plan(m).ElemSize
	}
	return est
}

// sectionEncoder encodes section bodies (flat references, no inline
// records) into enc, which EncodeSections swaps per section; stats runs
// across all of them.
type sectionEncoder struct {
	space *memory.Space
	ti    *types.TI
	mach  *arch.Machine
	pt    *partition
	enc   *xdr.Encoder
	refs  []uint32 // the recorded references still to be written
	stats SaveStats
}

func (e *sectionEncoder) encodeBody(job sectionJob) error {
	if job.withLive {
		e.enc.PutUint32(uint32(len(job.live)))
		e.refs = job.liveRefs
		for range job.live {
			e.putRef()
		}
	}
	e.enc.PutUint32(uint32(len(job.blocks)))
	for _, mb := range job.blocks {
		ti, ok := e.ti.Index(mb.b.Type)
		if !ok {
			return fmt.Errorf("collect: block %s has type %s not in TI table", mb.b.ID, mb.b.Type)
		}
		e.enc.Put4Uint32(mb.b.ID.Major, mb.b.ID.Minor, uint32(ti), uint32(mb.b.Count))
	}
	for _, mb := range job.blocks {
		e.stats.Blocks++
		b, plan := mb.b, mb.b.Plan(e.mach)
		e.refs = e.pt.refs[mb.refs:]
		for elem := 0; elem < b.Count; elem++ {
			if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), e.encodeRun); err != nil {
				return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
			}
		}
	}
	return nil
}

func (e *sectionEncoder) encodeRun(op *types.PlanOp, base memory.Address) error {
	if op.Kind == arch.Ptr {
		for i := 0; i < op.Count; i++ {
			e.putRef()
		}
		return nil
	}
	n, err := encodeRun(e.enc, e.space, *op, base)
	e.stats.DataBytes += int64(n)
	return err
}

// putRef encodes the next recorded pointer reference, flat.
func (e *sectionEncoder) putRef() {
	e.stats.Pointers++
	if e.refs[0] == nullSeg {
		e.stats.NullPointers++
		e.enc.PutUint32(nullSeg)
		e.refs = e.refs[1:]
		return
	}
	e.enc.Put4Uint32(e.refs[0], e.refs[1], e.refs[2], e.refs[3])
	e.refs = e.refs[4:]
}

// HeapDirectory returns the directory of a heap section body: the bytes
// that name its blocks, their types and their counts. Two bodies with equal
// directories restore into the same blocks. It is nil for a body too short
// for the directory it declares.
func HeapDirectory(body []byte) []byte {
	n, err := xdr.NewDecoder(body).Uint32()
	if end := 4 + 16*int64(n); err == nil && end <= int64(len(body)) {
		return body[:end]
	}
	return nil
}

// RestoreHeapSection rebuilds one heap-component section, read from dec,
// and returns its blocks in directory order. Given the blocks of an earlier
// section with the same directory (a live restore refilling a component in
// place), it decodes the contents into them. Otherwise every block in the
// directory is allocated, and the directory registered in one merge,
// before any content is decoded. Contents are filled with flat reference
// translation. early marks a restore that runs before the frames exist: a
// pointer into the stack is left null, and deferred reports that the
// section must be filled again once the frames do.
func RestoreHeapSection(space *memory.Space, table *msr.Table, ti *types.TI, dec *xdr.Decoder, blocks []*msr.Block, early bool) (_ []*msr.Block, deferred bool, _ RestoreStats, err error) {
	r := NewRestorer(space, table, ti, dec)
	r.early = early

	n, err := r.directorySize()
	if err != nil {
		return nil, false, r.Stats, err
	}
	if blocks != nil {
		// The caller matched this directory byte for byte with the one the
		// blocks were restored from.
		r.dec.FixedOpaque(16 * n)
	} else if blocks, err = r.allocDirectory(n); err != nil {
		return nil, false, r.Stats, err
	}
	err = r.fillBlocks(blocks)
	return blocks, r.deferred, r.Stats, err
}

// directorySize decodes a section directory's entry count, which the bytes
// that arrived must hold the entries of before anything is sized by it.
func (r *Restorer) directorySize() (int, error) {
	n, err := r.dec.Uint32()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated section directory", ErrCorruptStream)
	}
	if r.dec.Ensure(16*int(n)) != nil {
		return 0, fmt.Errorf("%w: directory declares %d entries, %d bytes remain",
			ErrCorruptStream, n, r.dec.Remaining())
	}
	return int(n), nil
}

// allocDirectory allocates the n blocks of a heap section directory and
// registers them. The directory is known to fit the bytes present, so its
// size can be announced: the blocks come from one slab and the table's and
// the allocator's indexes grow once, not once per block.
func (r *Restorer) allocDirectory(n int) ([]*msr.Block, error) {
	start := time.Now()
	slab := make([]msr.Block, n)
	blocks := make([]*msr.Block, n)
	r.table.Reserve(memory.Heap, n)
	r.space.ReserveMallocs(n)
	for i := range slab {
		major, minor, ty, count, err := r.directoryEntry()
		if err != nil {
			return nil, err
		}
		if minor != 0 {
			return nil, fmt.Errorf("%w: heap block with nonzero minor %d", ErrCorruptStream, minor)
		}
		b := &slab[i]
		*b = msr.Block{ID: msr.BlockID{Seg: memory.Heap, Major: major}, Type: ty, Count: count}
		if err := r.allocHeapBlock(b); err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	if err := r.table.Insert(blocks); err != nil {
		return nil, fmt.Errorf("%w: heap directory: %v", ErrCorruptStream, err)
	}
	r.Stats.UpdateTime += time.Since(start)
	return blocks, nil
}

// RestoreVarSection rebuilds one frame or globals section, read from dec:
// the live references are verified against the destination's own layout (the
// RestoreVariable cross-check of the paper), the directory is matched
// against the already-registered variable blocks, and the contents are
// filled. seg and major bound the identifications a directory entry may
// carry (Stack + frame depth, or Global + 0).
func RestoreVarSection(space *memory.Space, table *msr.Table, ti *types.TI, dec *xdr.Decoder, live []memory.Address, seg memory.Segment, major uint32) (RestoreStats, error) {
	r := NewRestorer(space, table, ti, dec)

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

	nb, err := r.directorySize()
	if err != nil {
		return r.Stats, err
	}
	blocks := make([]*msr.Block, 0, nb)
	for range nb {
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
	start := time.Now()
	defer func() { r.Stats.DecodeTime += time.Since(start) }()
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

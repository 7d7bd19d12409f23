package collect

// Sectioned collection: the pipeline behind the sectioned snapshot format
// (internal/snapshot). Walk and Layout.Encode are the one producer; cold,
// warm and live captures all go through them.
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
// every pointer scalar's reference as it goes: each pointer costs one
// MSRLT search per capture, through the capture's page index
// (msr.PageIndex), not the paper's bisection. Once the walk is done, each
// section's members are put in ascending ID order by a radix sort over
// their ID words, which fixes every block's index in its section.
//
// It then sizes every body exactly — the walk knew each pointer's
// reference form and so its width, the only thing a body's size depends on
// beyond the blocks' types and counts — and encodes the bodies one after
// the other in snapshot order (heap components by first visit, frames
// innermost first, globals), on the calling goroutine, writing the
// recorded references where the pointers stand. A streamed body goes to
// its writer in pieces of at most 64 KiB as it is encoded, a long scalar
// run cut across them, so the writer can frame and ship it while the rest
// is still being encoded. Given a DeltaTracker (delta.go) it keeps the
// previous round's partition instead of walking when the dirty set shows
// the walk would find the same one, skips the sections the dirty set
// cannot have touched and hands back their cached bodies, saying where in
// the previous round each came from.
// Section bodies are flat: a pointer scalar encodes only a reference,
// never an inline block record, because every block's record lives in the
// directory of the section that owns it.
//
// # Section body format
//
//	heap body     = directory, contents
//	var body      = liveRefs, directory, contents      ; frames, globals
//	liveRefs      = count u32, fullRef*count           ; layout cross-check
//	directory     = count u32, run*count               ; ascending IDs
//	run           = first u32, length u32, typeIndex u32, elemCount u32
//	contents      = per block, in directory order: scalars in plan order,
//	                pointer scalars as refs
//	ref           = 0xffffffff                         ; null
//	              | 1, o, index:30, [ordinal u32]      ; same section
//	              | fullRef
//	fullRef       = segment, major, minor, ordinal     ; segment < 3
//
// A section's blocks are its members in ascending ID order: by Major in
// the heap, by Minor in a frame (whose depth is their Major) and in the
// globals (Major 0). A run names length blocks of one type and element
// count whose ID words count up from first; the section implies the other
// ID word. A heap block under blockWire content bytes runs alone, so that
// its entry backs what restoring it costs. A reference to a block of the
// same section — every heap-to-heap pointer, since a component is closed
// under them, a frame's pointer into its own variables, a global's into
// the globals — is one word: the tag bit, the "ordinal follows" bit o, and
// the block's index among the section's blocks; the element ordinal
// follows only when it is not 0.
// Null is the word with index 2³⁰−1 and o set, an index no section
// reaches. Any other reference is the paper's (header, offset): four
// words.
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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// The first word of a reference: null, a same-section reference (the tag
// bit, the "ordinal follows" bit and the index), or a full reference's
// segment.
const (
	nullSeg    = 0xffffffff
	compactTag = 1 << 31
	ordTag     = 1 << 30
	indexMask  = ordTag - 1
)

// refLen is the number of words of the reference that opens with w: by
// its top two bits, a full reference's segment, then a same-section
// reference without and with its ordinal.
func refLen(w uint32) int {
	if w == nullSeg {
		return 1
	}
	return [4]int{4, 4, 1, 2}[w>>30]
}

// full appends the four-word reference to element ord of b.
func full(into []uint32, b *msr.Block, ord int) []uint32 {
	return append(into, uint32(b.ID.Seg), b.ID.Major, b.ID.Minor, uint32(ord))
}

// compact appends the same-section reference to element ord of the block
// at index i.
func compact(into []uint32, i uint32, ord int) []uint32 {
	if ord == 0 {
		return append(into, compactTag|i)
	}
	return append(into, compactTag|ordTag|i, uint32(ord))
}

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

// tiCache looks types up in a TI table through the last one it found: a
// structure's blocks mostly share one type.
type tiCache struct {
	ti   *types.TI
	last *types.Type
	idx  uint32
}

func (c *tiCache) index(t *types.Type) (uint32, bool) {
	if t != c.last {
		i, ok := c.ti.Index(t)
		if !ok {
			return 0, false
		}
		c.last, c.idx = t, uint32(i)
	}
	return c.idx, true
}

// partition is the section assignment of every reachable block.
type partition struct {
	// components are the connected components of the heap subgraph,
	// numbered by first visit, and firsts[c] is the Major of component c's
	// first-visited member; frames[i] are the stack blocks of frame i
	// (depth i+1) the traversal reached, and globals the global blocks.
	// Each section's members are in ascending ID order, its directory's.
	components [][]member
	firsts     []uint32
	frames     [][]member
	globals    []member

	// refs holds the pointer scalars of every visited block in wire form —
	// null, a same-section reference or a full one — block by block, in
	// plan order. The walk has to resolve each pointer to follow it; the
	// encoder writes what the walk found instead of loading and searching
	// again (the process is stopped between the two). It holds no Go
	// pointer, so the GC never scans it.
	refs []uint32
	// frameLive[i] and globalLive are the live variables' references, four
	// words each.
	frameLive  [][]uint32
	globalLive []uint32
	// pages resolved every reference above; it stays valid while the
	// table's Version is the one the walk ran at.
	pages *msr.PageIndex
	// wire holds each reached block's contents' exact wire size by table
	// position. It has no Go pointer either.
	wire  []uint32
	types tiCache
}

// edge is a pointer the walk still has to follow.
type edge struct {
	to   *msr.Block
	pos  int32 // to's position in the table
	from int32 // index in partitioner.seen of the heap block holding the pointer, -1 outside the heap
}

// partitioner carries the DFS + union-find state of the partition walk.
type partitioner struct {
	space *memory.Space
	mach  *arch.Machine
	pt    partition

	// slot is the visit state of every block by table position (the
	// process is stopped, so positions hold for the whole walk): 0 not
	// visited, else 1 + its index in seen, negated outside the heap.
	// finish makes it each block's index in its section.
	slot []int32
	// seen lists the visited blocks in first-visit order, key their ID
	// words (Major in the heap, Minor elsewhere), and parent is the
	// union-find forest over them, which joins heap blocks only.
	seen   []member
	key    []uint32
	parent []int32
	// pending is the explicit stack: targets not yet visited when their
	// pointer was scanned, the next to follow last.
	pending []edge
	src     msr.BlockID // the block being scanned
	from    int32       // its index in seen, -1 outside the heap
	extra   int         // the wire bytes its references add to its fewest
	live    []uint32    // backing of pt.frameLive and pt.globalLive
}

// buildPartition runs the partition walk: one depth-first traversal from
// the live set, in the order of the paper's recursive Save_pointer. The
// stack is explicit — a million-node list is ordinary state, and a
// recursion as deep would exhaust the goroutine stack and take the whole
// process down.
func buildPartition(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots) (*partition, error) {
	nroots := len(roots.Globals)
	for _, live := range roots.FrameLive {
		nroots += len(live)
	}
	// Sized from the table, so no slice regrows block by block: the visited
	// blocks are at most all of them, and two one-word references per
	// block hold a list's or a binary tree's pointers. A section's index
	// stays below null's.
	n := table.Len()
	if n >= indexMask {
		return nil, fmt.Errorf("collect: %d blocks, more than a section can index", n)
	}
	w := &partitioner{
		space:  space,
		mach:   space.Machine(),
		slot:   make([]int32, n),
		seen:   make([]member, 0, n),
		key:    make([]uint32, 0, n),
		parent: make([]int32, 0, n),
		live:   make([]uint32, 0, 4*nroots),
	}
	w.pt.refs, w.pt.pages, w.pt.wire, w.pt.types = make([]uint32, 0, 2*n), table.Pages(), make([]uint32, n), tiCache{ti: ti}
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

// resolve is the one MSRLT search a pointer value costs: the block it
// points into, the block's table position and the element ordinal.
func resolve(pages *msr.PageIndex, m *arch.Machine, addr memory.Address) (*msr.Block, int, int, error) {
	b, pos, off, err := pages.Lookup(m, addr)
	if err == nil {
		var ord int
		if ord, err = b.OrdinalAt(m, off); err == nil {
			return b, pos, ord, nil
		}
	}
	return nil, 0, 0, fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(addr), err)
}

// root records one live variable's reference and visits everything
// reachable from its block that no earlier root reached.
func (w *partitioner) root(addr memory.Address) error {
	b, pos, ord, err := resolve(w.pt.pages, w.mach, addr)
	if err != nil {
		return err
	}
	w.live = full(w.live, b, ord)
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

// visit records a first-seen block and scans its pointer scalars, in plan
// order: each is resolved and recorded, and each target not yet visited is
// left on the stack so that the first is followed — to the end of
// everything only it reaches — before the second, which is the recursive
// traversal's first-visit order. The block's wire size is its elements at
// their fewest wire bytes and what its references add: 12 bytes for a full
// one, 4 for an ordinal behind a same-section one.
func (w *partitioner) visit(b *msr.Block, pos int32) error {
	if _, ok := w.pt.types.index(b.Type); !ok {
		return fmt.Errorf("collect: block %s has type %s not in TI table", b.ID, b.Type)
	}
	i := int32(len(w.seen))
	w.seen = append(w.seen, member{b: b, refs: int32(len(w.pt.refs)), pos: pos})
	w.parent = append(w.parent, i)
	w.src, w.from, w.slot[pos] = b.ID, -1, -(i + 1)
	key := b.ID.Minor
	switch b.ID.Seg {
	case memory.Heap:
		w.from, w.slot[pos], key = i, i+1, b.ID.Major
	case memory.Stack:
		if fi := int(b.ID.Major) - 1; fi < 0 || fi >= len(w.pt.frameLive) {
			return fmt.Errorf("collect: stack block %s outside the active frame range", b.ID)
		}
	}
	w.key = append(w.key, key)
	plan := b.Plan(w.mach)
	w.extra = 0
	if plan.HasPtr {
		first := len(w.pending)
		for elem := 0; elem < b.Count; elem++ {
			if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), w.scanRun); err != nil {
				return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
			}
		}
		slices.Reverse(w.pending[first:])
	}
	// A segment holds at most 512 MiB, which no more than quadruples on the
	// wire (a 4-byte pointer as 16 bytes): every size fits 32 bits.
	w.pt.wire[pos] = uint32(b.Count*plan.WireMin + w.extra)
	return nil
}

// scanRun resolves and records the pointer scalars of one run of the block
// being scanned, unioning heap-to-heap edges. A reference within the
// block's section records the target's table position in place of its
// index in the section, which finish puts there.
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
		tb, pos, ord, err := resolve(w.pt.pages, w.mach, val)
		if err != nil {
			return err
		}
		switch id := tb.ID; {
		case id.Seg != w.src.Seg || id.Seg == memory.Stack && id.Major != w.src.Major:
			w.pt.refs, w.extra = full(w.pt.refs, tb, ord), w.extra+12
		case ord != 0:
			w.extra += 4
			fallthrough
		default:
			w.pt.refs = compact(w.pt.refs, uint32(pos), ord)
		}
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

// finish lays the visited blocks out in their sections — the frames, the
// globals, and the heap components, numbered by first visit (a block that
// is its own root opens the next, and every other block's root came before
// it) — each in ascending ID order, and writes every same-section
// reference's index.
func (w *partitioner) finish() {
	nframes := int32(len(w.pt.frameLive))
	sec, sizes := make([]int32, len(w.seen)), make([]int, nframes+1)
	for i, mb := range w.seen {
		switch root := w.find(int32(i)); {
		case w.slot[mb.pos] > 0 && root == int32(i):
			sec[i], sizes = int32(len(sizes)), append(sizes, 0)
			w.pt.firsts = append(w.pt.firsts, w.key[i])
		case w.slot[mb.pos] > 0:
			sec[i] = sec[root]
		case mb.b.ID.Seg == memory.Stack:
			sec[i] = int32(mb.b.ID.Major) - 1
		default:
			sec[i] = nframes
		}
		sizes[sec[i]]++
	}
	all, secs := make([]member, len(w.seen)), make([][]member, len(sizes))
	for s, n := range sizes {
		secs[s], all = all[:0:n], all[n:]
	}
	for _, i := range byKey(w.key, w.parent) { // the forest is done with
		mb, s := w.seen[i], sec[i]
		w.slot[mb.pos], secs[s] = int32(len(secs[s])), append(secs[s], mb)
	}
	w.pt.frames, w.pt.globals, w.pt.components = secs[:nframes], secs[nframes], secs[nframes+1:]
	for k := 0; k < len(w.pt.refs); k += refLen(w.pt.refs[k]) {
		if r := w.pt.refs[k]; r != nullSeg && r&compactTag != 0 {
			w.pt.refs[k] = r&^indexMask | uint32(w.slot[r&indexMask])
		}
	}
}

// byKey returns the indices of keys in ascending key order, stably: a
// least-significant-digit radix sort with one pass per byte the largest
// key needs and no comparison. scratch is as long as keys and is
// overwritten.
func byKey(keys []uint32, scratch []int32) []int32 {
	idx, tmp, all := make([]int32, len(keys)), scratch, uint32(0)
	for i, k := range keys {
		idx[i], all = int32(i), all|k
	}
	for shift := 0; shift < 32 && all>>shift != 0; shift += 8 {
		var at [256]int32
		for _, k := range keys {
			at[k>>shift&0xff]++
		}
		for d, sum := 0, int32(0); d < len(at); d++ {
			at[d], sum = sum, sum+at[d]
		}
		for _, i := range idx {
			d := keys[i] >> shift & 0xff
			tmp[at[d]], at[d] = i, at[d]+1
		}
		idx, tmp = tmp, idx
	}
	return idx
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
// the references the walk recorded for them.
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
		n := refLen(s.refs[0])
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
// the walk recorded for it — the same block, named by its ID or by its
// index in the section being checked, at the same ordinal. It resolves
// through the partition's page index, which the unchanged table Version
// the reuse rule requires keeps valid.
type recheck struct {
	space  *memory.Space
	jobs   []sectionJob
	dirty  []memory.DirtyRange // the ranges that overlap the block being checked
	blocks []member            // the blocks of its section
	got    []uint32            // one re-resolved reference
	scan   *refScan
}

func newRecheck(space *memory.Space, r *deltaRound) *recheck {
	c := &recheck{space: space, jobs: r.jobs}
	c.scan = r.pt.refScan(space.Machine(), c.pointer)
	return c
}

// block rechecks one site against the ranges that overlap it.
func (c *recheck) block(s *site, dirty []memory.DirtyRange) error {
	c.dirty, c.blocks = dirty, c.jobs[s.job].blocks
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
		b, _, ord, err := resolve(c.scan.pt.pages, c.scan.m, val)
		if err != nil {
			return err
		}
		c.got = full(c.got[:0], b, ord)
		if w := rec[0]; w != nullSeg && w&compactTag != 0 {
			if i := w & indexMask; int(i) < len(c.blocks) && c.blocks[i].b == b {
				c.got = compact(c.got[:0], i, ord)
			}
		}
	}
	if !slices.Equal(c.got, rec) {
		return errMoved
	}
	return nil
}

// sectionJob is one body to encode.
type sectionJob struct {
	blocks   []member
	runs     int // the directory entries blocks take
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
	for c, comp := range pt.components {
		jobs = append(jobs, sectionJob{blocks: comp, key: deltaKey{class: 0, id: pt.firsts[c]}})
	}
	for i := len(pt.frames) - 1; i >= 0; i-- {
		jobs = append(jobs, sectionJob{blocks: pt.frames[i], live: roots.FrameLive[i], liveRefs: pt.frameLive[i],
			withLive: true, key: deltaKey{class: 1, id: uint32(i) + 1}})
	}
	jobs = append(jobs, sectionJob{blocks: pt.globals, live: roots.Globals, liveRefs: pt.globalLive,
		withLive: true, key: deltaKey{class: 2}})
	for i := range jobs {
		for k := 0; k < len(jobs[i].blocks); k += pt.runLen(jobs[i].blocks[k:]) {
			jobs[i].runs++
		}
	}
	return jobs
}

// idWord is the ID word a directory names a block by: Major in the heap,
// Minor in a frame or the globals, where the section implies the Major.
func idWord(id msr.BlockID) uint32 {
	if id.Seg == memory.Heap {
		return id.Major
	}
	return id.Minor
}

// blockWire is the fewest body bytes a restore charges a heap block,
// since it allocates one per block the directory declares: an msr.Block,
// its table and allocator slots and its storage, which the bytes that
// arrived must back at sixteen to one. A tree node's three words reach it.
const blockWire = 12

// runLen is the length of the directory run that opens blocks: the first
// block and each after it whose ID word counts on by one and whose type
// and element count are the first's. A heap block whose contents take
// fewer than blockWire bytes only starts a run, so that its entry's 16
// bytes back it.
func (pt *partition) runLen(blocks []member) int {
	b, n := blocks[0].b, 1
	for ; n < len(blocks); n++ {
		if c := blocks[n]; idWord(c.b.ID) != idWord(b.ID)+uint32(n) || c.b.Type != b.Type || c.b.Count != b.Count ||
			c.b.ID.Seg == memory.Heap && pt.wire[c.pos] < blockWire {
			break
		}
	}
	return n
}

// Layout is one capture's partition laid out in snapshot order, with
// every body's exact size resolved before any body is encoded: a capture
// frames each section's header from Sizes and then encodes its body
// straight into the writer behind it.
type Layout struct {
	// Sizes lists the body sizes in snapshot order after the exec section
	// (zero for a body carried over): the Heap components by number, the
	// frames innermost first, the globals.
	Sizes []int
	Heap  int
	// From[i] is, in a pre-copy round, the index in the tracker's previous
	// round of the body section i carries over unchanged (Carried), and -1
	// for a body to encode, as every body is without a tracker.
	From []int
	// Reused says the tracker's previous partition was kept instead of
	// walking.
	Reused bool
	round  *deltaRound
	dt     *DeltaTracker
	se     *sectionEncoder
}

// Walk lays out the state reachable from roots. Given a tracker (one
// pre-copy round) and the ranges written since its previous round, in
// address order (memory.Space.DirtyRangesSince), it keeps that round's
// partition when the reuse rule holds and carries over the bodies dirty
// cannot have touched (delta.go); Fold then hands the round to it.
func Walk(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots, dt *DeltaTracker, dirty []memory.DirtyRange) (*Layout, error) {
	start := time.Now()
	r, err := dt.plan(space, table, ti, roots, dirty)
	if err != nil {
		return nil, err
	}
	l := &Layout{Sizes: make([]int, len(r.jobs)), Heap: len(r.pt.components), From: make([]int, len(r.jobs)), Reused: r.reused,
		round: r, dt: dt, se: &sectionEncoder{space: space, mach: space.Machine(), pt: r.pt}}
	// A body's exact size is its live references and its directory, and
	// each block's wire size as the walk counted it.
	for i, job := range r.jobs {
		if l.From[i] = -1; job.reuse {
			l.From[i] = job.from
			continue
		}
		l.Sizes[i] = 4 + 16*job.runs + 16*len(job.live) // a live variable's reference is never null
		if job.withLive {
			l.Sizes[i] += 4
		}
		for _, mb := range job.blocks {
			l.Sizes[i] += int(r.pt.wire[mb.pos])
		}
	}
	l.se.stats.SearchTime = time.Since(start)
	return l, nil
}

// pieces holds the piece encoders of streamed bodies from one capture to
// the next.
var pieces = sync.Pool{New: func() any { return xdr.NewEncoder(xdr.PieceSize) }}

// Encode encodes body i and hands it to write in pieces of at most 64 KiB,
// each as soon as it is full; write's error ends it. It returns the time
// spent encoding, which the time spent in write is not part of.
func (l *Layout) Encode(i int, write func([]byte) (int, error)) (time.Duration, error) {
	piece := pieces.Get().(*xdr.Encoder)
	defer pieces.Put(piece)
	piece.Reset()
	l.se.enc, l.se.out = piece, write
	return l.encode(i)
}

// Body encodes body i whole, into a buffer of exactly its size, and
// returns it with the time spent.
func (l *Layout) Body(i int) ([]byte, time.Duration, error) {
	l.se.enc, l.se.out = xdr.NewEncoder(l.Sizes[i]), nil
	d, err := l.encode(i)
	l.se.calls += l.se.enc.Calls()
	return l.se.enc.Bytes(), d, err
}

func (l *Layout) encode(i int) (time.Duration, error) {
	start, waited := time.Now(), l.se.waited
	err := l.se.encodeBody(&l.round.jobs[i])
	d := time.Since(start) - (l.se.waited - waited)
	l.se.stats.EncodeTime += d
	return d, err
}

// Carried returns the body section i carries over from the tracker's
// previous round.
func (l *Layout) Carried(i int) []byte { return l.dt.last.bodies[l.From[i]] }

// Fold hands the round's bodies — every section's, carried or encoded into
// a buffer of its own — to the tracker, which keeps them for the next
// round to carry over. The pre-copy sender may still be shipping one while
// the next round encodes, so they must not be mutated.
func (l *Layout) Fold(bodies [][]byte) { l.round.bodies, l.dt.last = bodies, l.round }

// Stats returns the statistics of the walk and of the bodies encoded so
// far, and the XDR encode operations behind them.
func (l *Layout) Stats() (SaveStats, int) { return l.se.stats, l.se.calls }

// sectionEncoder encodes section bodies (flat references, no inline
// records) into enc: given out, a piece of at most xdr.PieceSize bytes that is
// handed to out whenever the next item would overrun it, else a buffer the
// whole body fits. stats and calls run across all the bodies.
type sectionEncoder struct {
	space  *memory.Space
	mach   *arch.Machine
	pt     *partition
	enc    *xdr.Encoder
	out    func([]byte) (int, error)
	err    error         // out's
	waited time.Duration // spent in out
	refs   []uint32      // the recorded references still to be written
	stats  SaveStats
	calls  int
}

// spill hands the piece built so far to out when n more bytes would
// overrun it.
func (e *sectionEncoder) spill(n int) {
	if e.out != nil && e.enc.Len()+n > xdr.PieceSize {
		e.flush()
	}
}

// flush hands the piece built so far to out. A writer's error is kept:
// nothing more is handed out, and the encoding stops at the next run.
func (e *sectionEncoder) flush() {
	if e.err == nil {
		e.calls += e.enc.Calls()
		start := time.Now()
		_, e.err = e.out(e.enc.Bytes())
		e.waited += time.Since(start)
	}
	e.enc.Reset()
}

// encodeBody encodes a job's body, cut across pieces wherever the next
// item would overrun the one at hand; a long scalar run is cut too. A
// directory entry's type is looked up once per run.
func (e *sectionEncoder) encodeBody(job *sectionJob) error {
	if job.withLive {
		e.spill(4)
		e.enc.PutUint32(uint32(len(job.live)))
		e.refs = job.liveRefs
		for range job.live {
			e.spill(16)
			e.putRef()
		}
	}
	e.spill(4)
	e.enc.PutUint32(uint32(job.runs))
	for k, n := 0, 0; k < len(job.blocks); k += n {
		b := job.blocks[k].b
		n = e.pt.runLen(job.blocks[k:])
		ti, _ := e.pt.types.index(b.Type) // the walk found every type
		e.spill(16)
		e.enc.Put4Uint32(idWord(b.ID), uint32(n), ti, uint32(b.Count))
	}
	for _, mb := range job.blocks {
		e.stats.Blocks++
		b, plan := mb.b, mb.b.Plan(e.mach)
		e.refs = e.pt.refs[mb.refs:]
		for elem := 0; elem < b.Count && e.err == nil; elem++ {
			if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), e.encodeRun); err != nil {
				return fmt.Errorf("collect: block %s element %d: %w", b.ID, elem, err)
			}
		}
	}
	if e.out != nil {
		e.flush()
	}
	return e.err
}

func (e *sectionEncoder) encodeRun(op *types.PlanOp, base memory.Address) error {
	if op.Kind == arch.Ptr {
		for range op.Count {
			e.spill(16)
			e.putRef()
		}
		return nil
	}
	ws := types.WireSize(op.Kind)
	for run := *op; run.Count > 0 && e.err == nil; {
		part := run
		if e.out != nil && e.enc.Len()+run.Count*ws > xdr.PieceSize {
			e.spill(ws)
			part.Count = min(run.Count, (xdr.PieceSize-e.enc.Len())/ws)
		}
		n, err := encodeRun(e.enc, e.space, part, base)
		e.stats.DataBytes += int64(n)
		if err != nil {
			return err
		}
		run.Off, run.Count = run.Off+part.Count*run.Stride, run.Count-part.Count
	}
	return nil
}

// putRef encodes the next recorded pointer reference as it was recorded.
func (e *sectionEncoder) putRef() {
	w, n := e.refs[0], refLen(e.refs[0])
	e.stats.Pointers++
	if w == nullSeg {
		e.stats.NullPointers++
	} else if n < 4 {
		e.stats.SameSection++
		e.stats.Ordinals += int64(n - 1)
	}
	out := e.enc.Grow(4 * n)
	for k, v := range e.refs[:n] {
		binary.BigEndian.PutUint32(out[4*k:], v)
	}
	e.refs = e.refs[n:]
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

	dir, total, err := r.directory()
	if err != nil {
		return nil, false, r.Stats, err
	}
	// Given blocks, the caller matched this directory byte for byte with
	// the one they were restored from.
	if blocks == nil {
		if blocks, err = r.allocDirectory(dir, total); err != nil {
			return nil, false, r.Stats, err
		}
	}
	err = r.fillBlocks(blocks)
	return blocks, r.deferred, r.Stats, err
}

// dirRun is one directory entry decoded: count blocks of elems elements
// of ty, whose ID words count up from first.
type dirRun struct {
	first, count uint32
	ty           *types.Type
	elems        int
}

// entry decodes the directory entry that opens e.
func (r *Restorer) entry(e []byte) (dirRun, error) {
	be := binary.BigEndian
	ty, err := r.ti.At(int(be.Uint32(e[8:])))
	if err != nil {
		return dirRun{}, fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}
	return dirRun{first: be.Uint32(e), count: be.Uint32(e[4:]), ty: ty, elems: int(be.Uint32(e[12:]))}, nil
}

// directory decodes a section directory, whose entries the bytes that
// arrived must hold before anything is sized by their count. It returns
// the entries, 16 bytes each, once each is known to be in ascending ID
// order with no ID named twice, and their total block count.
func (r *Restorer) directory() ([]byte, int, error) {
	n, err := r.dec.Uint32()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: truncated section directory", ErrCorruptStream)
	}
	if r.dec.Ensure(16*int(n)) != nil {
		return nil, 0, fmt.Errorf("%w: directory declares %d entries, %d bytes remain",
			ErrCorruptStream, n, r.dec.Remaining())
	}
	dir, _ := r.dec.FixedOpaque(16 * int(n)) // present: ensured above
	next, total := uint64(0), 0
	for k := 0; k < len(dir); k += 16 {
		run, err := r.entry(dir[k:])
		if err != nil {
			return nil, 0, err
		}
		if uint64(run.first) < next || run.count == 0 || uint64(run.first)+uint64(run.count) > 1<<32 {
			return nil, 0, fmt.Errorf("%w: directory run of %d from %d out of ID order", ErrCorruptStream, run.count, run.first)
		}
		next, total = uint64(run.first)+uint64(run.count), total+int(run.count)
	}
	return dir, total, nil
}

// allocDirectory allocates the blocks of a heap section directory and
// registers them. Before the runs size anything, the blocks they declare
// — one 16-byte entry can declare 2³² blocks — must fit the body and have
// arrived: each block takes its contents' fewest wire bytes, and at least
// blockWire of the body, its directory included. Then the total can be
// announced: the blocks come from one slab and the table's and the
// allocator's indexes grow once, not once per block.
func (r *Restorer) allocDirectory(dir []byte, total int) ([]*msr.Block, error) {
	start := time.Now()
	for k := 0; k < len(dir); k += 16 {
		run, _ := r.entry(dir[k:]) // directory decoded every entry
		plan := run.ty.Plan(r.mach)
		per, left := max(int64(run.elems)*int64(plan.WireMin), blockWire), r.given-r.claimed
		if run.elems == 0 || plan.ElemSize <= 0 || per > left || int64(run.count) > left/per {
			return nil, fmt.Errorf("%w: directory run of %d from %d declares %d elements of %s each; %d of the section's %d bytes are unclaimed",
				ErrCorruptStream, run.count, run.first, run.elems, run.ty, left, r.given)
		}
		r.claimed += per * int64(run.count)
	}
	if read := r.given - int64(r.dec.Remaining()); r.dec.Ensure(int(max(r.claimed-read, 0))) != nil {
		return nil, fmt.Errorf("%w: directory claims %d body bytes, %d remain", ErrCorruptStream, r.claimed, r.dec.Remaining())
	}
	slab, blocks := make([]msr.Block, total), make([]*msr.Block, 0, total)
	r.table.Reserve(memory.Heap, total)
	r.space.ReserveMallocs(total)
	for k := 0; k < len(dir); k += 16 {
		run, _ := r.entry(dir[k:])
		size := run.elems * run.ty.Plan(r.mach).ElemSize
		for j := range run.count {
			b := &slab[len(blocks)]
			*b = msr.Block{ID: msr.BlockID{Seg: memory.Heap, Major: run.first + j}, Type: run.ty, Count: run.elems}
			var err error
			if b.Addr, err = r.space.Malloc(size); err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		}
	}
	r.Stats.Allocated += int64(total)
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
// filled. seg and major are the section's own (Stack and the frame's
// depth, or Global and 0): the directory's ID words are Minors.
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

	dir, total, err := r.directory()
	if err != nil {
		return r.Stats, err
	}
	// Every block must be one the table holds, and its contents are decoded
	// as they arrive.
	blocks := make([]*msr.Block, 0, min(total, r.table.Len()))
	for k := 0; k < len(dir); k += 16 {
		run, _ := r.entry(dir[k:])
		for j := range run.count {
			id := msr.BlockID{Seg: seg, Major: major, Minor: run.first + j}
			b, ok := r.table.ByID(id)
			if !ok {
				return r.Stats, fmt.Errorf("%w: section references unknown %s block %s", ErrMismatch, seg, id)
			}
			if b.Type != run.ty || b.Count != run.elems {
				return r.Stats, fmt.Errorf("%w: block %s shape mismatch: stream %s x%d, destination %s x%d",
					ErrMismatch, id, run.ty, run.elems, b.Type, b.Count)
			}
			blocks = append(blocks, b)
		}
	}
	err = r.fillBlocks(blocks)
	return r.Stats, err
}

// fillBlocks decodes the contents of a section's directory blocks, in
// order, against which its same-section references resolve, and requires
// them to end where the body does.
func (r *Restorer) fillBlocks(blocks []*msr.Block) error {
	start := time.Now()
	defer func() { r.Stats.DecodeTime += time.Since(start) }()
	r.blocks = blocks
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

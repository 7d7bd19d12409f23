package collect

// Sectioned collection: the two-phase pipeline behind the sectioned
// snapshot format (internal/snapshot, envelope version 3).
//
// Phase 1 (BuildPartition) walks the MSR graph reachable from the live
// set — the same depth-first traversal and visited-set discipline as the
// monolithic Saver — but instead of encoding as it goes, it partitions
// the visited blocks into section owners: each stack block belongs to
// its frame's section, each global block to the globals section, and the
// heap blocks are grouped into the connected components of the heap
// subgraph (union-find over heap-to-heap pointer edges). A block shared
// by two traversal paths is assigned to exactly one owner here, so
// aliasing and cycles restore exactly as in the monolithic stream.
//
// Phase 2 (EncodeSections) encodes the section bodies. Heap components
// are independent by construction — no pointer crosses between two
// components, and the MSRLT is read-only during a collection — so the
// bodies are encoded concurrently on a bounded worker pool, each worker
// carrying its own encoder and its own MSRLT counter set (folded back
// into the table after the join). Section bodies are flat: a pointer
// scalar encodes only its (header, ordinal) reference, never an inline
// block record, because every block's record lives in the directory of
// the section that owns it.
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
// rebuilds the frames; heap sections allocate their blocks from the
// directory before any content is decoded; frame and globals sections
// then fill variable contents. Because heap components are closed under
// heap pointers, every reference a section decodes resolves against
// blocks already registered by that order.

import (
	"fmt"
	"runtime"
	"sync"
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

// Partition is the section assignment of every reachable block.
type Partition struct {
	// Components are the connected components of the heap subgraph,
	// numbered and ordered by first visit; members are in first-visit
	// order too, so the encoding is deterministic.
	Components [][]*msr.Block
	// Frames[i] are the stack blocks of frame i (depth i+1) reached by
	// the traversal, in first-visit order.
	Frames [][]*msr.Block
	// Globals are the reachable global blocks in first-visit order.
	Globals []*msr.Block
	// Blocks is the total number of visited blocks.
	Blocks int
}

// partitioner carries the DFS + union-find state of phase 1.
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

// BuildPartition runs the partition phase: one serial depth-first walk
// from the live set, reusing the monolithic traversal order so the set
// of transferred blocks is identical to the v1 stream's.
func BuildPartition(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots) (*Partition, error) {
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
func (w *partitioner) finish() *Partition {
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
	total := len(w.heapBlocks) + len(w.globals)
	for _, f := range w.frames {
		total += len(f)
	}
	return &Partition{
		Components: comps,
		Frames:     w.frames,
		Globals:    w.globals,
		Blocks:     total,
	}
}

// EncodedSection is one encoded section body with its encode wall time.
type EncodedSection struct {
	Body    []byte
	Elapsed time.Duration
}

// SectionedState holds every encoded section body of one capture, in the
// partition's deterministic order, plus the aggregated collection
// statistics.
type SectionedState struct {
	// Heap[i] is component i's body; Frames[i] is frame depth i+1's.
	Heap    []EncodedSection
	Frames  []EncodedSection
	Globals EncodedSection
	// Stats aggregates the per-worker SaveStats. Searches and
	// SearchSteps are left zero: the workers' MSRLT counters are folded
	// into the table, and the caller derives the capture-wide deltas
	// from it exactly as Saver.Finish does.
	Stats SaveStats
	// Workers is the number of pool workers that encoded at least one
	// section (1 for a serial encode).
	Workers int

	// encs holds the pooled per-section encoders whose buffers back the
	// Body slices above; Release returns them.
	encs []*xdr.Encoder
}

// Release returns the pooled per-section encoders to the buffer pool.
// Every Body slice in the state aliases one of those buffers, so the
// caller must be done with the bodies — typically after splicing them
// into the top-level snapshot stream. Safe to call more than once.
func (st *SectionedState) Release() {
	for _, e := range st.encs {
		if e != nil {
			e.Release()
		}
	}
	st.encs = nil
	st.Heap, st.Frames, st.Globals = nil, nil, EncodedSection{}
}

// sectionJob is one body to encode.
type sectionJob struct {
	blocks   []*msr.Block
	live     []memory.Address
	withLive bool
}

// EncodeSections runs the encode phase over a partition: every heap
// component, frame, and the globals become one body each, encoded on a
// bounded worker pool. workers <= 0 selects GOMAXPROCS; 1 encodes
// serially on the calling goroutine. The bodies are identical regardless
// of worker count.
func EncodeSections(space *memory.Space, table *msr.Table, ti *types.TI, pt *Partition, roots Roots, workers int) (*SectionedState, error) {
	jobs := partitionJobs(pt, roots)
	results, encs, agg, engaged, err := encodeJobs(space, table, ti, jobs, nil, workers)
	if err != nil {
		return nil, err
	}

	h := len(pt.Components)
	f := len(pt.Frames)
	out := &SectionedState{
		Heap:    results[:h],
		Frames:  results[h : h+f],
		Globals: results[h+f],
		Stats:   agg,
		Workers: engaged,
		encs:    encs,
	}
	return out, nil
}

// partitionJobs lays a partition out as the encode job list, in the
// deterministic section order: heap components, frames, globals.
func partitionJobs(pt *Partition, roots Roots) []sectionJob {
	jobs := make([]sectionJob, 0, len(pt.Components)+len(pt.Frames)+1)
	for _, comp := range pt.Components {
		jobs = append(jobs, sectionJob{blocks: comp})
	}
	for i, blocks := range pt.Frames {
		jobs = append(jobs, sectionJob{blocks: blocks, live: roots.FrameLive[i], withLive: true})
	}
	jobs = append(jobs, sectionJob{blocks: pt.Globals, live: roots.Globals, withLive: true})
	return jobs
}

// encodeJobs runs the bounded worker pool over the job list. A true
// entry in skip (which may be nil) leaves that job's result and encoder
// zero — the delta capture uses this to re-encode only the sections the
// dirty set touched. On error every acquired encoder is released.
func encodeJobs(space *memory.Space, table *msr.Table, ti *types.TI, jobs []sectionJob, skip []bool, workers int) ([]EncodedSection, []*xdr.Encoder, SaveStats, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]EncodedSection, len(jobs))
	encs := make([]*xdr.Encoder, len(jobs))
	mach := space.Machine()

	var (
		mu       sync.Mutex
		firstErr error
		engaged  int
		agg      SaveStats
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	// Static round-robin sharding: worker w owns jobs w, w+W, w+2W, ...
	// Deterministic engagement (every worker with a nonempty shard encodes)
	// and no queue contention; the components of one workload are close in
	// size, so the balance loss against work-stealing is small.
	run := func(worker int) {
		local := msr.Stats{}
		save := SaveStats{}
		did := 0
		for idx := worker; idx < len(jobs); idx += workers {
			if failed() || (skip != nil && skip[idx]) {
				continue
			}
			did++
			job := jobs[idx]
			start := time.Now()
			// Pooled encoder: the body aliases its buffer until the
			// caller's SectionedState.Release.
			enc := xdr.GetEncoder(sectionSizeHint(job.blocks, mach))
			encs[idx] = enc
			se := &sectionEncoder{
				space:    space,
				table:    table,
				ti:       ti,
				mach:     mach,
				enc:      enc,
				msrStats: &local,
				stats:    &save,
			}
			if err := se.encodeBody(job.blocks, job.live, job.withLive); err != nil {
				fail(err)
				continue
			}
			results[idx] = EncodedSection{Body: enc.Bytes(), Elapsed: time.Since(start)}
		}
		mu.Lock()
		// The MSRLT index is read-only during collection; the counters
		// are the only mutable table state, merged here post-hoc.
		table.Stats.Add(local)
		if did > 0 {
			engaged++
		}
		agg.Blocks += save.Blocks
		agg.Pointers += save.Pointers
		agg.NullPointers += save.NullPointers
		agg.DataBytes += save.DataBytes
		mu.Unlock()
	}

	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(i)
		}
		wg.Wait()
	}
	if firstErr != nil {
		for _, e := range encs {
			if e != nil {
				e.Release()
			}
		}
		return nil, nil, SaveStats{}, 0, firstErr
	}
	return results, encs, agg, engaged, nil
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

// sectionEncoder encodes one section body (flat references, no inline
// records). One per job; never shared across goroutines.
type sectionEncoder struct {
	space    *memory.Space
	table    *msr.Table
	ti       *types.TI
	mach     *arch.Machine
	enc      *xdr.Encoder
	msrStats *msr.Stats
	stats    *SaveStats
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
	ref, err := msr.ResolveStats(e.table, e.mach, p, e.msrStats)
	if err != nil {
		return fmt.Errorf("collect: unresolvable pointer %#x: %w", uint64(p), err)
	}
	e.enc.Put4Uint32(uint32(ref.ID.Seg), ref.ID.Major, ref.ID.Minor, uint32(ref.Ordinal))
	return nil
}

// PreparedHeapSection is a heap-component section after its serial
// phase: the directory has been decoded and every block allocated and
// registered in the MSRLT, in stream order. Fill decodes the contents —
// independently of every other prepared section, because heap components
// are closed under heap pointers.
type PreparedHeapSection struct {
	blocks   []*msr.Block
	contents []byte
	// Stats carries the allocation-phase counters (Allocated, UpdateTime).
	Stats RestoreStats
}

// PrepareHeapSection runs the serial phase of one heap-component restore:
// the directory is decoded and every block allocated and registered, but
// no content is filled. Allocation and registration mutate the space and
// the MSRLT, so Prepare calls must not run concurrently — the vm layer
// prepares every heap section in snapshot order (keeping the heap layout
// deterministic), then fills them on a worker pool.
func PrepareHeapSection(space *memory.Space, table *msr.Table, ti *types.TI, body []byte, instrument bool) (*PreparedHeapSection, error) {
	r := NewRestorer(space, table, ti, xdr.NewDecoder(body))
	r.flat = true
	r.Instrument = instrument

	n, err := r.dec.Uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated heap section directory", ErrCorruptStream)
	}
	if int64(n)*16 > int64(r.dec.Remaining()) {
		return nil, fmt.Errorf("%w: heap directory declares %d entries, %d bytes remain",
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
			return nil, err
		}
		if minor != 0 {
			return nil, fmt.Errorf("%w: heap block with nonzero minor %d", ErrCorruptStream, minor)
		}
		id := msr.BlockID{Seg: memory.Heap, Major: major}
		if _, exists := r.table.ByID(id); exists {
			return nil, fmt.Errorf("%w: duplicate heap block %s", ErrCorruptStream, id)
		}
		b, err := r.allocHeapBlock(id, ty, count)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
	if instrument {
		r.Stats.UpdateTime += time.Since(start)
	}
	return &PreparedHeapSection{blocks: blocks, contents: body[r.dec.Offset():], Stats: r.Stats}, nil
}

// Extent returns the lowest address and one-past-the-highest address of
// the section's allocated blocks (both zero for an empty section), so the
// caller can pre-materialize the backing storage before concurrent fills.
func (ps *PreparedHeapSection) Extent(m *arch.Machine) (lo, hi memory.Address) {
	for _, b := range ps.blocks {
		end := b.Addr + memory.Address(b.Count*b.Type.SizeOf(m))
		if lo == 0 || b.Addr < lo {
			lo = b.Addr
		}
		if end > hi {
			hi = end
		}
	}
	return lo, hi
}

// Fill runs the parallel-safe phase of one heap-component restore: the
// contents are decoded into the already-allocated blocks with flat
// reference translation. msrStats receives the MSRLT resolve counters
// (pass a worker-private set under concurrency; the table's block index
// must be read-only, i.e. every section must be Prepared first, and the
// space's backing storage pre-materialized over the sections' extents).
func (ps *PreparedHeapSection) Fill(space *memory.Space, table *msr.Table, ti *types.TI, instrument bool, msrStats *msr.Stats) (RestoreStats, error) {
	r := NewRestorer(space, table, ti, xdr.NewDecoder(ps.contents))
	r.flat = true
	r.Instrument = instrument
	if msrStats != nil {
		r.msrStats = msrStats
	}
	for _, b := range ps.blocks {
		r.Stats.Blocks++
		if err := r.fillContents(b); err != nil {
			return r.Stats, err
		}
	}
	if r.dec.Remaining() != 0 {
		return r.Stats, fmt.Errorf("%w: %d trailing bytes in heap section", ErrCorruptStream, r.dec.Remaining())
	}
	return r.Stats, nil
}

// RestoreHeapSection rebuilds one heap-component section: every block in
// the directory is allocated and registered before any content is
// decoded, then the contents are filled with flat reference translation.
func RestoreHeapSection(space *memory.Space, table *msr.Table, ti *types.TI, body []byte, instrument bool) (RestoreStats, error) {
	ps, err := PrepareHeapSection(space, table, ti, body, instrument)
	if err != nil {
		return RestoreStats{}, err
	}
	stats, err := ps.Fill(space, table, ti, instrument, nil)
	stats.Add(ps.Stats)
	return stats, err
}

// HeapRestore is the outcome of RestoreHeapSections: per-section restore
// statistics and fill wall times in section order, and the worker count.
type HeapRestore struct {
	// PerSection[i] aggregates section i's allocation and fill counters.
	PerSection []RestoreStats
	// Prepare[i] is section i's serial allocation-phase wall time.
	Prepare []time.Duration
	// Elapsed[i] is section i's fill wall time as measured on its worker
	// (the per-component latency the restore speedup comes from).
	Elapsed []time.Duration
	// Workers is the number of pool workers that filled at least one
	// section (1 for a serial restore).
	Workers int
}

// RestoreHeapSections restores every heap-component section of one
// snapshot: the directories are decoded and their blocks allocated
// serially in section order — the heap layout is identical to a fully
// serial restore — then the independent component contents are filled on
// a bounded worker pool, mirroring EncodeSections on the capture side.
// workers <= 0 selects GOMAXPROCS; 1 fills serially on the calling
// goroutine. The restored memory image is identical for every worker
// count.
func RestoreHeapSections(space *memory.Space, table *msr.Table, ti *types.TI, bodies [][]byte, instrument bool, workers int) (*HeapRestore, error) {
	out := &HeapRestore{
		PerSection: make([]RestoreStats, len(bodies)),
		Prepare:    make([]time.Duration, len(bodies)),
		Elapsed:    make([]time.Duration, len(bodies)),
		Workers:    1,
	}
	if len(bodies) == 0 {
		return out, nil
	}

	// Serial phase: allocate and register every section's blocks in
	// snapshot order (Malloc and Register mutate shared state).
	prepared := make([]*PreparedHeapSection, len(bodies))
	mach := space.Machine()
	var lo, hi memory.Address
	for i, body := range bodies {
		prepStart := time.Now()
		ps, err := PrepareHeapSection(space, table, ti, body, instrument)
		if err != nil {
			return nil, fmt.Errorf("heap section %d: %w", i, err)
		}
		out.Prepare[i] = time.Since(prepStart)
		prepared[i] = ps
		out.PerSection[i] = ps.Stats
		slo, shi := ps.Extent(mach)
		if lo == 0 || (slo != 0 && slo < lo) {
			lo = slo
		}
		if shi > hi {
			hi = shi
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(bodies) {
		workers = len(bodies)
	}
	if workers < 1 {
		workers = 1
	}

	// Pre-materialize the heap backing storage over the full extent: a
	// segment store grows (and may re-base) its backing array on first
	// touch, which must not happen under concurrent fills.
	if workers > 1 && hi > lo {
		if err := space.Materialize(lo, int(hi-lo)); err != nil {
			return nil, err
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
		engaged  int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	// Static round-robin sharding, exactly as EncodeSections: worker w
	// owns sections w, w+W, w+2W, ... Each worker translates references
	// through its own MSRLT counter set, folded into the table after the
	// join.
	run := func(worker int) {
		local := msr.Stats{}
		did := 0
		for idx := worker; idx < len(prepared); idx += workers {
			if failed() {
				continue
			}
			did++
			start := time.Now()
			st, err := prepared[idx].Fill(space, table, ti, instrument, &local)
			if err != nil {
				fail(fmt.Errorf("heap section %d: %w", idx, err))
				continue
			}
			out.Elapsed[idx] = time.Since(start)
			out.PerSection[idx].Add(st)
		}
		mu.Lock()
		table.Stats.Add(local)
		if did > 0 {
			engaged++
		}
		mu.Unlock()
	}

	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(i)
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out.Workers = engaged
	return out, nil
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
	for _, b := range blocks {
		r.Stats.Blocks++
		if err := r.fillContents(b); err != nil {
			return r.Stats, err
		}
	}
	if r.dec.Remaining() != 0 {
		return r.Stats, fmt.Errorf("%w: %d trailing bytes in section", ErrCorruptStream, r.dec.Remaining())
	}
	return r.Stats, nil
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

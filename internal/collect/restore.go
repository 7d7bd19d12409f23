package collect

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// RestoreStats decomposes the cost of a restoration in the terms of the
// paper's Section 4.2: Restore = MSRLT_update + Decode_and_Copy.
type RestoreStats struct {
	// UpdateTime is time spent allocating blocks and updating the MSRLT
	// (only accumulated when instrumented).
	UpdateTime time.Duration
	// DecodeTime is time spent converting and copying block contents
	// (only accumulated when instrumented).
	DecodeTime time.Duration
	// Blocks is the number of memory blocks restored.
	Blocks int64
	// Allocated is the subset of blocks newly allocated on the heap
	// (variable blocks already exist in the rebuilt frames).
	Allocated int64
	// Pointers is the number of pointer scalars decoded.
	Pointers int64
	// DataBytes is the number of content bytes decoded.
	DataBytes int64
	// Refilled and Dropped count the heap components a restore applied
	// round by round refilled in place and dropped as later rounds changed
	// them.
	Refilled, Dropped int64
}

// Add folds another restoration's counters into s (used to aggregate the
// per-section restore statistics of a sectioned snapshot).
func (s *RestoreStats) Add(o RestoreStats) {
	s.UpdateTime += o.UpdateTime
	s.DecodeTime += o.DecodeTime
	s.Blocks += o.Blocks
	s.Allocated += o.Allocated
	s.Pointers += o.Pointers
	s.DataBytes += o.DataBytes
	s.Refilled += o.Refilled
	s.Dropped += o.Dropped
}

// Restorer rebuilds memory blocks in a destination process from a
// collection stream. The destination's MSRLT must already contain the
// global and stack variable blocks (re-registered while reconstructing the
// execution state); heap blocks are allocated on demand as their records
// arrive, exactly mirroring the source's traversal.
type Restorer struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine
	dec   *xdr.Decoder

	restored map[msr.BlockID]bool

	// flat disables the inline-record discipline: pointer references are
	// translated through the MSRLT only, never followed by a block
	// record. Sectioned snapshots use this mode — the records live in
	// the directory of the section that owns each block.
	flat bool
	// early marks a heap section restored before the frames exist (a live
	// round applied on arrival): a reference into the stack is left null
	// and deferred set, so the section is filled again once they do.
	early, deferred bool

	// given is the number of stream bytes left when the Restorer was
	// created, and claimed the minimum encoding of every heap block
	// allocated so far: allocHeapBlock holds the one against the other, and
	// a section's claims against the bytes that arrived, so what a stream
	// makes the restorer allocate is bounded by the bytes it delivered.
	given, claimed int64

	depth int // nesting of the v1 records being restored, held to maxDepth

	// Instrument enables the fine-grained timing split in Stats.
	Instrument bool
	Stats      RestoreStats
}

// NewRestorer returns a Restorer reading from dec into the destination
// process state.
func NewRestorer(space *memory.Space, table *msr.Table, ti *types.TI, dec *xdr.Decoder) *Restorer {
	return &Restorer{
		space:    space,
		table:    table,
		ti:       ti,
		mach:     space.Machine(),
		dec:      dec,
		restored: make(map[msr.BlockID]bool),
		given:    int64(dec.Remaining()),
	}
}

// RestoreVariable restores the memory block containing the variable at
// addr (the paper's Restore_variable(&x)). It verifies the stream's
// reference resolves to the same block the destination laid the variable
// out in — a cheap consistency check between the two processes.
func (r *Restorer) RestoreVariable(addr memory.Address) error {
	got, err := r.RestorePointer()
	if err != nil {
		return err
	}
	if got != addr {
		return fmt.Errorf("%w: restored variable reference %#x does not match destination layout %#x",
			ErrMismatch, uint64(got), uint64(addr))
	}
	return nil
}

// RestorePointer decodes one pointer value (the paper's
// p = Restore_pointer()), restoring the referenced component of the MSR
// graph if this is its first occurrence, and returns the machine-specific
// address the pointer takes on the destination.
func (r *Restorer) RestorePointer() (memory.Address, error) {
	r.Stats.Pointers++
	seg, err := r.dec.Uint32()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
	}
	if seg == nullSeg {
		return 0, nil
	}
	if seg >= uint32(memory.NumSegments) {
		return 0, fmt.Errorf("%w: invalid segment %d", ErrCorruptStream, seg)
	}
	major, minor, ordinal, err := r.dec.Uint32x3()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
	}
	ref := msr.Ref{
		ID:      msr.BlockID{Seg: memory.Segment(seg), Major: major, Minor: minor},
		Ordinal: int(ordinal),
	}
	if !r.flat && !r.restored[ref.ID] {
		r.restored[ref.ID] = true
		if err := r.restoreBlock(ref.ID); err != nil {
			return 0, err
		}
	}
	if r.early && ref.ID.Seg == memory.Stack {
		r.deferred = true
		return 0, nil
	}
	addr, err := msr.AddrOf(r.table, r.mach, ref)
	if err != nil {
		// Every target must have been registered by now — by an earlier
		// record in the monolithic stream, or by the owning section of a
		// sectioned snapshot.
		return 0, fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}
	return addr, nil
}

// restoreBlock consumes one block record: resolves or allocates the block,
// then fills its contents through the type-specific restoring plan.
func (r *Restorer) restoreBlock(id msr.BlockID) error {
	tIdx, err := r.dec.Uint32()
	count, err2 := r.dec.Uint32()
	if err != nil || err2 != nil {
		return fmt.Errorf("%w: truncated record for block %s", ErrCorruptStream, id)
	}
	ty, err := r.ti.At(int(tIdx))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}

	var start time.Time
	if r.Instrument {
		start = time.Now()
	}
	b, ok := r.table.ByID(id)
	switch {
	case ok:
		// A variable block laid out during execution-state
		// reconstruction. Its shape must agree with the stream.
		if b.Type != ty || b.Count != int(count) {
			return fmt.Errorf("%w: block %s shape mismatch: stream %s x%d, destination %s x%d",
				ErrMismatch, id, ty, count, b.Type, b.Count)
		}
	case id.Seg == memory.Heap:
		b = &msr.Block{ID: id, Type: ty, Count: int(count)}
		if err := r.allocHeapBlock(b); err != nil {
			return err
		}
		if err := r.table.Register(b); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: stream references unknown %s block %s", ErrMismatch, id.Seg, id)
	}
	if r.Instrument {
		r.Stats.UpdateTime += time.Since(start)
	}
	r.Stats.Blocks++
	// A v1 record nests inside the record that first points at its block,
	// and this decoder recurses as the stream nests.
	if r.depth >= maxDepth {
		return fmt.Errorf("%w: %w (limit %d)", ErrCorruptStream, ErrTooDeep, maxDepth)
	}
	r.depth++
	err = r.fillContents(b)
	r.depth--
	return err
}

// fillContents decodes a block's content through its restoring plan.
func (r *Restorer) fillContents(b *msr.Block) error {
	plan := b.Plan(r.mach)
	for elem := 0; elem < b.Count; elem++ {
		if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), r.restoreRun); err != nil {
			if r.depth > errContextDepth {
				return err
			}
			return fmt.Errorf("collect: restoring block %s element %d: %w", b.ID, elem, err)
		}
	}
	return nil
}

// allocHeapBlock allocates one heap block arriving in a stream, for the
// caller to register; b carries its identification and shape and receives
// its address.
// Before trusting the declared element count it checks the
// stream holds at least the minimum encoding of that many
// elements — and of every block allocated before it: a section directory
// is decoded in full before any content is consumed, and a v1 record is
// checked before its enclosing records have been, so the bytes remaining
// alone would let every one of n declarations claim the same remainder.
// A section's contents all lie ahead of its directory, so there the bytes
// every claim so far needs must also have arrived: a declared length
// never becomes an allocation before the bytes that justify it.
func (r *Restorer) allocHeapBlock(b *msr.Block) error {
	plan := b.Plan(r.mach)
	es := plan.ElemSize
	if b.Count <= 0 || es <= 0 {
		return fmt.Errorf("%w: heap block %s declares %d elements of %d bytes",
			ErrCorruptStream, b.ID, b.Count, es)
	}
	need := int64(b.Count) * int64(max(plan.WireMin, 1))
	r.claimed += need
	ahead := need
	if r.flat {
		ahead = r.claimed
	}
	if r.claimed > r.given || r.dec.Ensure(int(ahead)) != nil {
		return fmt.Errorf("%w: heap block %s declares %d elements; %d bytes remain and earlier blocks claim %d of the stream's %d",
			ErrCorruptStream, b.ID, b.Count, r.dec.Remaining(), r.claimed-need, r.given)
	}
	var err error
	if b.Addr, err = r.space.Malloc(b.Count * es); err != nil {
		return err
	}
	r.Stats.Allocated++
	return nil
}

// restoreRun mirrors Saver.saveRun: pointer scalars are translated (and, in
// a v1 stream, followed), canonical wire scalars are converted to the
// destination machine representation and copied into place.
func (r *Restorer) restoreRun(op *types.PlanOp, base memory.Address) error {
	if op.Kind == arch.Ptr {
		for i := 0; i < op.Count; i++ {
			val, err := r.RestorePointer()
			if err == nil {
				err = r.space.StorePtr(base+memory.Address(op.Off+i*op.Stride), val)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var start time.Time
	if r.Instrument {
		start = time.Now()
	}
	n, err := decodeRun(r.dec, r.space, *op, base)
	if err != nil {
		return err
	}
	r.Stats.DataBytes += int64(n)
	if r.Instrument {
		r.Stats.DecodeTime += time.Since(start)
	}
	return nil
}

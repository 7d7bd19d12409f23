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
	// UpdateTime is time spent allocating a heap section's blocks and
	// registering them in the MSRLT, timed per section.
	UpdateTime time.Duration
	// DecodeTime is time spent converting and copying block contents,
	// pointer translation included, timed per section.
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

// Restorer decodes one section body into a destination process. The
// destination's MSRLT must already contain the global and stack variable
// blocks (re-registered while reconstructing the execution state); a heap
// section allocates and registers its blocks from its directory before its
// contents are decoded, so every reference resolves by the time it is read.
type Restorer struct {
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	mach  *arch.Machine
	dec   *xdr.Decoder

	// early marks a heap section restored before the frames exist (a live
	// round applied on arrival): a reference into the stack is left null
	// and deferred set, so the section is filled again once they do.
	early, deferred bool

	// given is the number of stream bytes left when the Restorer was
	// created, and claimed the minimum encoding of every heap block
	// allocated so far: allocHeapBlock holds the one against the other, and
	// the claims against the bytes that arrived, so what a stream makes the
	// restorer allocate is bounded by the bytes it delivered.
	given, claimed int64

	Stats RestoreStats
}

// NewRestorer returns a Restorer reading from dec into the destination
// process state.
func NewRestorer(space *memory.Space, table *msr.Table, ti *types.TI, dec *xdr.Decoder) *Restorer {
	return &Restorer{
		space: space,
		table: table,
		ti:    ti,
		mach:  space.Machine(),
		dec:   dec,
		given: int64(dec.Remaining()),
	}
}

// RestoreVariable restores the reference to the variable at addr (the
// paper's Restore_variable(&x)). It verifies the stream's reference
// resolves to the same block the destination laid the variable out in — a
// cheap consistency check between the two processes.
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

// RestorePointer decodes one flat pointer reference (the paper's
// p = Restore_pointer()) and returns the machine-specific address the
// pointer takes on the destination. The block it names must already be
// registered: by the section that owns it, restored earlier in snapshot
// order.
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
	if r.early && seg == uint32(memory.Stack) {
		r.deferred = true
		return 0, nil
	}
	ref := msr.Ref{
		ID:      msr.BlockID{Seg: memory.Segment(seg), Major: major, Minor: minor},
		Ordinal: int(ordinal),
	}
	addr, err := msr.AddrOf(r.table, r.mach, ref)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorruptStream, err)
	}
	return addr, nil
}

// fillContents decodes a block's content through its restoring plan.
func (r *Restorer) fillContents(b *msr.Block) error {
	plan := b.Plan(r.mach)
	for elem := 0; elem < b.Count; elem++ {
		if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), r.restoreRun); err != nil {
			return fmt.Errorf("collect: restoring block %s element %d: %w", b.ID, elem, err)
		}
	}
	return nil
}

// allocHeapBlock allocates one heap block of a section directory, for the
// caller to register; b carries its identification and shape and receives
// its address. Before trusting the declared element count it checks the
// stream holds at least the minimum encoding of that many elements — and
// of every block allocated before it: a directory is decoded in full before
// any content is consumed, so the bytes remaining alone would let every one
// of n declarations claim the same remainder. A section's contents all lie
// ahead of its directory, so the bytes every claim so far needs must also
// have arrived: a declared length never becomes an allocation before the
// bytes that justify it.
func (r *Restorer) allocHeapBlock(b *msr.Block) error {
	plan := b.Plan(r.mach)
	es := plan.ElemSize
	if b.Count <= 0 || es <= 0 {
		return fmt.Errorf("%w: heap block %s declares %d elements of %d bytes",
			ErrCorruptStream, b.ID, b.Count, es)
	}
	need := int64(b.Count) * int64(max(plan.WireMin, 1))
	r.claimed += need
	if r.claimed > r.given || r.dec.Ensure(int(r.claimed)) != nil {
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

// restoreRun is the section encoder's run in reverse: pointer scalars are
// translated, canonical wire scalars are converted to the destination
// machine representation and copied into place.
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
	n, err := decodeRun(r.dec, r.space, *op, base)
	if err != nil {
		return err
	}
	r.Stats.DataBytes += int64(n)
	return nil
}

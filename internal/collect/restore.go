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
	// blocks are the section's, in directory order, once its directory is
	// read: a same-section reference names one by its index.
	blocks []*msr.Block

	// given is the number of stream bytes left when the Restorer was
	// created, and claimed the body bytes every heap block the directory
	// declared takes at least: allocDirectory holds the one against the
	// other, and the claims against the bytes that arrived, so what a
	// stream makes the restorer allocate is bounded by the bytes it
	// delivered.
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

// RestorePointer decodes one pointer reference (the paper's
// p = Restore_pointer()) and returns the machine-specific address the
// pointer takes on the destination. A same-section reference names a block
// of the section being restored by its index; the block a full reference
// names must already be registered: by the section that owns it, restored
// earlier in snapshot order.
func (r *Restorer) RestorePointer() (memory.Address, error) {
	r.Stats.Pointers++
	seg, err := r.dec.Uint32()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
	}
	switch {
	case seg == nullSeg:
		return 0, nil
	case seg&compactTag != 0:
		return r.sameSection(seg)
	case seg >= uint32(memory.NumSegments):
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

// sameSection resolves the same-section reference that opens with w
// against the section's own blocks. A live-reference list, read before the
// directory, has none to name.
func (r *Restorer) sameSection(w uint32) (memory.Address, error) {
	var ord uint32
	if w&ordTag != 0 {
		var err error
		if ord, err = r.dec.Uint32(); err != nil {
			return 0, fmt.Errorf("%w: truncated pointer reference", ErrCorruptStream)
		}
	}
	i := int(w & indexMask)
	if i >= len(r.blocks) {
		return 0, fmt.Errorf("%w: reference to block %d of a %d-block section", ErrCorruptStream, i, len(r.blocks))
	}
	addr, err := r.blocks[i].AddrAt(r.mach, int(ord))
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

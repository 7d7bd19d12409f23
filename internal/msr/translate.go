package msr

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// This file implements the two directions of pointer translation between
// the machine-specific and machine-independent representations. The paper
// encodes a pointer as a header (the logical identification of the memory
// block the pointer refers to) and an offset (the ordering number of the
// data element inside that block).

// Ref is the machine-independent form of a pointer value.
type Ref struct {
	ID      BlockID
	Ordinal int
}

// NullRef is the encoding of a null pointer.
var NullRef = Ref{ID: BlockID{Seg: memory.NumSegments}, Ordinal: 0}

// IsNull reports whether the reference encodes a null pointer.
func (r Ref) IsNull() bool { return r.ID.Seg >= memory.NumSegments }

// String formats the reference for diagnostics.
func (r Ref) String() string {
	if r.IsNull() {
		return "null"
	}
	return fmt.Sprintf("%s+%d", r.ID, r.Ordinal)
}

// Resolve translates a machine-specific pointer value into its
// machine-independent (header, offset) form using the MSRLT. The machine is
// needed to interpret element sizes. A zero address resolves to NullRef.
func Resolve(t *Table, m *arch.Machine, addr memory.Address) (Ref, error) {
	if addr == 0 {
		return NullRef, nil
	}
	b, off, err := t.Lookup(addr, func(ty *types.Type) int { return ty.SizeOf(m) })
	if err != nil {
		return Ref{}, err
	}
	es := b.Type.SizeOf(m)
	if es == 0 {
		return Ref{}, fmt.Errorf("msr: block %s has zero-size element type %s", b.ID, b.Type)
	}
	if off == b.Count*es {
		// One past the end of the block.
		return Ref{ID: b.ID, Ordinal: b.ScalarCount()}, nil
	}
	elem := off / es
	within, ok := b.Type.OffsetToOrdinal(m, off%es)
	if !ok {
		return Ref{}, fmt.Errorf("msr: address %#x falls in padding of block %s (%s)",
			uint64(addr), b.ID, b.Type)
	}
	return Ref{ID: b.ID, Ordinal: elem*b.Type.ScalarCount() + within}, nil
}

// AddrOf translates a machine-independent reference back to a
// machine-specific address, the restoration direction.
func AddrOf(t *Table, m *arch.Machine, r Ref) (memory.Address, error) {
	if r.IsNull() {
		return 0, nil
	}
	b, ok := t.ByID(r.ID)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownID, r.ID)
	}
	return BlockAddr(b, m, r.Ordinal)
}

// BlockAddr computes the address of the ordinal-th scalar of block b on
// machine m. ordinal may equal the block's scalar count (one past the end).
func BlockAddr(b *Block, m *arch.Machine, ordinal int) (memory.Address, error) {
	total := b.ScalarCount()
	if ordinal < 0 || ordinal > total {
		return 0, fmt.Errorf("%w: %d of %d in %s", ErrBadOrdinal, ordinal, total, b.ID)
	}
	es := b.Type.SizeOf(m)
	if ordinal == total {
		return b.Addr + memory.Address(b.Count*es), nil
	}
	per := b.Type.ScalarCount()
	elem, within := ordinal/per, ordinal%per
	return b.Addr + memory.Address(elem*es+b.Type.OrdinalToOffset(m, within)), nil
}

package msr

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/memory"
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
	b, _, off, err := t.Lookup(m, addr)
	if err != nil {
		return Ref{}, err
	}
	ord, err := b.OrdinalAt(m, off)
	if err != nil {
		return Ref{}, err
	}
	return Ref{ID: b.ID, Ordinal: ord}, nil
}

// OrdinalAt is the second half of a resolve: the ordinal, among the
// block's scalars on machine m, of the one at byte offset off, which Lookup
// returned. off may equal the block's size (one past the end).
func (b *Block) OrdinalAt(m *arch.Machine, off int) (int, error) {
	plan := b.Plan(m)
	es := plan.ElemSize
	if es == 0 {
		return 0, fmt.Errorf("msr: block %s has zero-size element type %s", b.ID, b.Type)
	}
	if off == b.Count*es {
		return b.Count * plan.NumScalars, nil
	}
	within, ok := plan.OffsetToOrdinal(off % es)
	if !ok {
		return 0, fmt.Errorf("msr: address %#x falls in padding of block %s (%s)",
			uint64(b.Addr)+uint64(off), b.ID, b.Type)
	}
	return off/es*plan.NumScalars + within, nil
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
	return b.AddrAt(m, r.Ordinal)
}

// AddrAt is the address on machine m of the scalar at ordinal ord of b,
// OrdinalAt's inverse. The ordinal may equal the block's scalar count (one
// past the end).
func (b *Block) AddrAt(m *arch.Machine, ord int) (memory.Address, error) {
	plan := b.Plan(m)
	per := plan.NumScalars
	if ord < 0 || ord > b.Count*per {
		return 0, fmt.Errorf("%w: %d of %d in %s", ErrBadOrdinal, ord, b.Count*per, b.ID)
	}
	if ord == b.Count*per {
		return b.Addr + memory.Address(b.Count*plan.ElemSize), nil
	}
	elem, within := ord/per, ord%per
	return b.Addr + memory.Address(elem*plan.ElemSize+plan.OrdinalToOffset(within)), nil
}

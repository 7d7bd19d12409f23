package types

import (
	"fmt"
	"hash/crc32"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// TI is the Type Information table of the paper: the registry of every type
// a process's memory blocks can have, linked into the process when the
// executable is generated. It assigns each type a stable small index — the
// wire representation of a type. (The compiled saving/restoring plans hang
// off the types themselves: Type.Plan.)
//
// Because the migratable program is pre-distributed and compiled on every
// potential destination machine, both ends of a migration construct the TI
// table from the same source program, and the indices agree. The Digest
// lets the migration protocol verify that agreement before trusting the
// stream.
type TI struct {
	mu sync.Mutex             // serialises Add
	v  atomic.Pointer[tiView] // what readers see: replaced by Add, never modified
}

// tiView is one immutable state of the table. The collector asks for a
// type's index or an index's type once per memory block, on every capture
// and restore, so reads take no lock: they load the current view.
type tiView struct {
	types []*Type
	index map[*Type]int
}

// NewTI returns an empty TI table.
func NewTI() *TI {
	ti := &TI{}
	ti.v.Store(&tiView{index: map[*Type]int{}})
	return ti
}

// Add registers t (and, transitively, every type reachable from it) and
// returns its index. Adding an already-registered type is a no-op returning
// the existing index.
func (ti *TI) Add(t *Type) int {
	if i, ok := ti.Index(t); ok {
		return i
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	old := ti.v.Load()
	// Appending past old.types' length leaves every index an earlier view
	// can reach untouched; the map is cloned.
	next := &tiView{types: old.types, index: maps.Clone(old.index)}
	i := next.add(t)
	ti.v.Store(next)
	return i
}

func (v *tiView) add(t *Type) int {
	if i, ok := v.index[t]; ok {
		return i
	}
	i := len(v.types)
	v.types = append(v.types, t)
	v.index[t] = i
	switch t.Kind {
	case KPointer, KArray:
		v.add(t.Elem)
	case KStruct:
		for _, f := range t.Fields {
			v.add(f.Type)
		}
	}
	return i
}

// Index returns the index of a registered type. The second result is false
// if the type was never added.
func (ti *TI) Index(t *Type) (int, bool) {
	i, ok := ti.v.Load().index[t]
	return i, ok
}

// At returns the type with the given index.
func (ti *TI) At(i int) (*Type, error) {
	ts := ti.v.Load().types
	if i < 0 || i >= len(ts) {
		return nil, fmt.Errorf("types: TI index %d out of range (table has %d)", i, len(ts))
	}
	return ts[i], nil
}

// Len returns the number of registered types.
func (ti *TI) Len() int { return len(ti.v.Load().types) }

// Digest returns a checksum over the definitions of all registered types,
// in registration order. Two processes built from the same program produce
// the same digest; the migration protocol refuses streams whose digest
// differs.
func (ti *TI) Digest() uint32 {
	h := crc32.NewIEEE()
	for i, t := range ti.v.Load().types {
		fmt.Fprintf(h, "%d:%s\n", i, t.Definition())
	}
	return h.Sum32()
}

// Summary returns a human-readable dump of the table, used by the
// pre-compiler's -dump-ti flag.
func (ti *TI) Summary(m *arch.Machine) string {
	ts := ti.v.Load().types
	var b strings.Builder
	fmt.Fprintf(&b, "TI table: %d types (digest %08x) on %s\n", len(ts), ti.Digest(), m.Name)
	for i, t := range ts {
		fmt.Fprintf(&b, "%4d  %-28s size=%-4d align=%-2d scalars=%-5d ptr=%v\n",
			i, t.String(), t.SizeOf(m), t.AlignOf(m), t.ScalarCount(), t.HasPointer())
	}
	return b.String()
}

// Package msr implements the Memory Space Representation model of the
// paper and its supporting MSR Lookup Table (MSRLT).
//
// A snapshot of a process memory space is modelled as a graph G = (V, E):
// each vertex is a memory block (a global variable, a local variable of an
// active function invocation, or a dynamically allocated heap block), and
// each edge represents a pointer stored in one block referring to a location
// inside another.
//
// The MSRLT is the runtime data structure that keeps track of memory blocks,
// provides them with machine-independent identifications, and supports the
// address translation both directions of a migration need:
//
//   - during data collection, a machine-specific pointer value is translated
//     to (block identification, element ordinal);
//   - during data restoration, that pair is translated back to a
//     machine-specific address in the destination's memory space.
package msr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/memory"
	"repro/internal/types"
)

// BlockID is the machine-independent identification of a memory block.
// The meaning of Major/Minor depends on the segment, chosen so that both
// ends of a migration derive the same IDs independently:
//
//   - Global: Major = 0, Minor = declaration index of the variable.
//   - Stack:  Major = frame depth of the invocation (1 = outermost),
//     Minor = variable index within the frame.
//   - Heap:   Major = allocation sequence number, Minor = 0.
//
// Stack and global IDs are reproducible on the destination because the
// migrated program pushes the same frames and declares the same globals;
// heap IDs are stream-local labels resolved through the table.
type BlockID struct {
	Seg   memory.Segment
	Major uint32
	Minor uint32
}

// String formats the ID as e.g. "global:2", "heap:42", or "stack:3.1".
func (id BlockID) String() string {
	switch id.Seg {
	case memory.Global:
		return fmt.Sprintf("global:%d", id.Minor)
	case memory.Heap:
		return fmt.Sprintf("heap:%d", id.Major)
	case memory.Stack:
		return fmt.Sprintf("stack:%d.%d", id.Major, id.Minor)
	}
	return fmt.Sprintf("%s:%d.%d", id.Seg, id.Major, id.Minor)
}

// Less orders IDs lexicographically; used for deterministic iteration.
func (id BlockID) Less(o BlockID) bool {
	if id.Seg != o.Seg {
		return id.Seg < o.Seg
	}
	if id.Major != o.Major {
		return id.Major < o.Major
	}
	return id.Minor < o.Minor
}

// Block is one vertex of the MSR graph: a contiguous memory block with a
// type. Count is the number of elements of Type the block holds; it is 1
// for variables and may be larger for heap blocks allocated as arrays
// (malloc(n * sizeof(T))).
type Block struct {
	ID    BlockID
	Addr  memory.Address
	Type  *types.Type
	Count int
	// Name is the source-level variable name, for diagnostics and the
	// example traces; empty for heap blocks.
	Name string
}

// Size returns the block's byte size on machine described by the space it
// lives in; the caller supplies the per-machine element size.
func (b *Block) Size(elemSize int) int { return b.Count * elemSize }

// ScalarCount returns the number of scalar elements in the block.
func (b *Block) ScalarCount() int { return b.Count * b.Type.ScalarCount() }

// Errors reported by the table.
var (
	ErrNotFound   = errors.New("msr: address not inside any registered block")
	ErrDuplicate  = errors.New("msr: block already registered")
	ErrUnknownID  = errors.New("msr: unknown block identification")
	ErrBadOrdinal = errors.New("msr: element ordinal out of range")
)

// Stats counts MSRLT activity. The split between search work (data
// collection) and update work (data restoration) quantifies the complexity
// decomposition of the paper's Section 4.2.
type Stats struct {
	// Registrations counts blocks added over the table's lifetime.
	Registrations int64
	// Searches counts address->block lookups.
	Searches int64
	// SearchSteps counts binary-search probe steps across all lookups;
	// SearchSteps/Searches ≈ log2(n).
	SearchSteps int64
	// IDResolves counts id->block lookups (the restoration direction).
	IDResolves int64
	// BaseHits counts lookups served by the base-address hash index
	// when it is enabled (see Table.UseBaseIndex).
	BaseHits int64
}

// Table is the MSRLT. Blocks are kept per segment in address order for
// O(log n) containment search, plus an ID index for the restoration path.
type Table struct {
	segs [memory.NumSegments][]*Block // sorted by Addr
	byID map[BlockID]*Block

	// UseBaseIndex enables a hash index over block base addresses,
	// consulted before the binary search. Most pointers in real
	// programs refer to block bases (list links, malloc results), so
	// the index converts the dominant lookup case from O(log n) to
	// O(1); interior pointers still fall back to the search. This is
	// the D3 design-ablation of DESIGN.md — the paper's MSRLT is the
	// ordered table whose O(n log n) collection term Figure 2(b)
	// exhibits, and this switch quantifies the modern alternative.
	UseBaseIndex bool
	baseIdx      map[memory.Address]*Block

	heapSeq uint32 // next heap Major

	Stats Stats
}

// NewTable returns an empty MSRLT.
func NewTable() *Table {
	return &Table{
		byID:    make(map[BlockID]*Block),
		baseIdx: make(map[memory.Address]*Block),
	}
}

// Len returns the number of registered blocks.
func (t *Table) Len() int {
	n := 0
	for _, s := range t.segs {
		n += len(s)
	}
	return n
}

// LenSegment returns the number of registered blocks in one segment.
func (t *Table) LenSegment(seg memory.Segment) int { return len(t.segs[seg]) }

// NextHeapID returns a fresh heap block identification. The sequence is
// monotonic over the life of the process; RestoreFloor advances it past
// identifications received in a migration stream.
func (t *Table) NextHeapID() BlockID {
	id := BlockID{Seg: memory.Heap, Major: t.heapSeq}
	t.heapSeq++
	return id
}

// RestoreFloor ensures future heap identifications do not collide with id,
// which was assigned by the source process and received in the stream.
func (t *Table) RestoreFloor(id BlockID) {
	if id.Seg == memory.Heap && id.Major >= t.heapSeq {
		t.heapSeq = id.Major + 1
	}
}

// Register adds a block to the table. The block must not overlap any
// registered block and its ID must be fresh.
func (t *Table) Register(b *Block) error {
	if b.Addr == 0 {
		return fmt.Errorf("msr: register of null address")
	}
	if _, ok := t.byID[b.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, b.ID)
	}
	seg, ok := memory.SegmentOf(b.Addr)
	if !ok || seg != b.ID.Seg {
		return fmt.Errorf("msr: block %s address %#x not in its segment", b.ID, uint64(b.Addr))
	}
	s := t.segs[seg]
	i := sort.Search(len(s), func(i int) bool { return s[i].Addr > b.Addr })
	// Overlap checks against neighbours are performed by the caller via
	// sizes; the table itself only requires unique base addresses.
	if i > 0 && s[i-1].Addr == b.Addr {
		return fmt.Errorf("%w: address %#x", ErrDuplicate, uint64(b.Addr))
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = b
	t.segs[seg] = s
	t.byID[b.ID] = b
	t.baseIdx[b.Addr] = b
	t.Stats.Registrations++
	return nil
}

// Unregister removes the block with the given base address (used when a
// heap block is freed or a stack frame is popped).
func (t *Table) Unregister(addr memory.Address) error {
	seg, ok := memory.SegmentOf(addr)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	s := t.segs[seg]
	i := sort.Search(len(s), func(i int) bool { return s[i].Addr >= addr })
	if i == len(s) || s[i].Addr != addr {
		return fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	delete(t.byID, s[i].ID)
	delete(t.baseIdx, addr)
	t.segs[seg] = append(s[:i], s[i+1:]...)
	return nil
}

// Lookup finds the block containing addr, given the element size function
// for the current machine. It returns the block and the byte offset of addr
// within it. This is the MSRLT search of the collection path; its cost is
// counted in Stats.
func (t *Table) Lookup(addr memory.Address, elemSize func(*types.Type) int) (*Block, int, error) {
	seg, ok := memory.SegmentOf(addr)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	t.Stats.Searches++
	if t.UseBaseIndex {
		if b, ok := t.baseIdx[addr]; ok {
			t.Stats.BaseHits++
			return b, 0, nil
		}
	}
	s := t.segs[seg]
	// Binary search for the last block with base <= addr, counting steps.
	lo, hi := 0, len(s)
	for lo < hi {
		t.Stats.SearchSteps++
		mid := (lo + hi) / 2
		if s[mid].Addr <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, 0, fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	b := s[lo-1]
	off := int(addr - b.Addr)
	if off > b.Size(elemSize(b.Type)) { // == size allowed: one past the end
		return nil, 0, fmt.Errorf("%w: %#x past block %s", ErrNotFound, uint64(addr), b.ID)
	}
	return b, off, nil
}

// ByID resolves a machine-independent identification to its block. This is
// the restoration-direction lookup; the paper observes it takes constant
// time per block, so restoration's MSRLT cost is O(n) overall.
func (t *Table) ByID(id BlockID) (*Block, bool) {
	t.Stats.IDResolves++
	b, ok := t.byID[id]
	return b, ok
}

// Blocks returns all registered blocks in (segment, address) order.
func (t *Table) Blocks() []*Block {
	out := make([]*Block, 0, t.Len())
	for _, s := range t.segs {
		out = append(out, s...)
	}
	return out
}

// SegmentBlocks returns the registered blocks of one segment in address
// order.
func (t *Table) SegmentBlocks(seg memory.Segment) []*Block {
	out := make([]*Block, len(t.segs[seg]))
	copy(out, t.segs[seg])
	return out
}

// ResetStats clears the activity counters (between experiment phases).
func (t *Table) ResetStats() { t.Stats = Stats{} }

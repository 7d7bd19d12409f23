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
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
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

	plan *types.Plan // Type's plan on the machine last asked about; see Plan
}

// Size returns the block's byte size on machine described by the space it
// lives in; the caller supplies the per-machine element size.
func (b *Block) Size(elemSize int) int { return b.Count * elemSize }

// ScalarCount returns the number of scalar elements in the block.
func (b *Block) ScalarCount() int { return b.Count * b.Type.ScalarCount() }

// Plan returns the compiled plan of the block's type on machine m — its
// element size, scalar count, geometry and save/restore program. The block
// keeps the pointer (one table serves one machine), so the per-block and
// per-pointer loops of a capture or a restore reach it without a lock or a
// map.
func (b *Block) Plan(m *arch.Machine) *types.Plan {
	if b.plan == nil || b.plan.Mach != m {
		b.plan = b.Type.Plan(m)
	}
	return b.plan
}

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
	// Searches counts address->block lookups.
	Searches int64
	// SearchSteps counts binary-search probe steps across all lookups;
	// SearchSteps/Searches ≈ log2(n).
	SearchSteps int64
	// BaseHits counts lookups served by the base-address hash index
	// when it is enabled (see Table.UseBaseIndex).
	BaseHits int64
}

// Table is the MSRLT. Blocks are kept per segment in address order for
// O(log n) containment search, plus an ID index for the restoration path.
type Table struct {
	segs [memory.NumSegments][]*Block // sorted by Addr
	// bases[seg][i] == segs[seg][i].Addr: the search bisects this
	// contiguous array and dereferences one block, the hit.
	bases [memory.NumSegments][]memory.Address
	// The ID index: heap[major] holds the heap block of that major when
	// the major was dense as it was registered (see index), byID every
	// other identification, keyed by idKey.
	heap []*Block
	byID map[uint64]*Block

	// UseBaseIndex enables a hash index over block base addresses,
	// consulted before the binary search. Most pointers in real
	// programs refer to block bases (list links, malloc results), so
	// the index converts the dominant lookup case from O(log n) to
	// O(1); interior pointers still fall back to the search. This is
	// the D3 design-ablation of DESIGN.md — the paper's MSRLT is the
	// ordered table whose O(n log n) collection term Figure 2(b)
	// exhibits, and this switch quantifies the modern alternative.
	UseBaseIndex bool
	// baseIdx maps a base address to the block's place in its segment.
	// Nothing pays for it until a lookup runs with UseBaseIndex set: it
	// is built then, and dropped again when the table changes.
	baseIdx map[memory.Address]int

	heapSeq uint32 // next heap Major
	// version counts the changes to the block set (Insert, Remove,
	// Unregister): equal versions mean the same blocks at the same places.
	version uint64

	Stats Stats
}

// Version returns the table's change counter. A capture that kept what it
// derived from the block set may reuse it while the version holds.
func (t *Table) Version() uint64 { return t.version }

// NewTable returns an empty MSRLT.
func NewTable() *Table {
	return &Table{byID: make(map[uint64]*Block)}
}

// idKey packs an identification into the one word the ID index is keyed
// by, so neither a registration nor the per-pointer ByID of a restore
// hashes a twelve-byte struct. An identification that does not fit — a
// segment that is none, a minor past 30 bits — names no block.
func idKey(id BlockID) (uint64, bool) {
	return uint64(id.Seg)<<62 | uint64(id.Major)<<30 | uint64(id.Minor),
		id.Seg < memory.NumSegments && id.Minor < 1<<30
}

// Len returns the number of registered blocks.
func (t *Table) Len() int {
	n := 0
	for _, s := range t.segs {
		n += len(s)
	}
	return n
}

// NextHeapID returns a fresh heap block identification. The sequence is
// monotonic over the life of the process; registering a heap block
// advances it past the block's identification (RestoreFloor), so one
// received in a migration stream or shared with another table is never
// handed out again.
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

// Reserve makes room for n more registrations in seg. A restore knows a
// section's block count before it allocates the first block; announcing it
// lets the ordered table grow once instead of block by block. It is
// regrown only to at least twice its size, so a snapshot of many small
// sections does not copy it once per section.
func (t *Table) Reserve(seg memory.Segment, n int) {
	if s := t.bases[seg]; cap(s)-len(s) < n {
		// At least double: slices.Grow's own steps, a quarter at a time,
		// would copy the table for every other section of a snapshot.
		n = max(n, 2*cap(s)-len(s))
		t.bases[seg] = slices.Grow(s, n)
		t.segs[seg] = slices.Grow(t.segs[seg], n)
		if seg == memory.Heap { // a directory's majors rise from its first
			t.heap = slices.Grow(t.heap, n)
		}
	}
}

// Register adds a block to the table. The block must not overlap any
// registered block and its ID must be fresh.
func (t *Table) Register(b *Block) error { return t.Insert([]*Block{b}) }

// Insert registers a batch of blocks of one segment — a restored heap
// section's directory — in one merge pass over the segment, never one
// shifting insert per block. Each block's ID and base address must be
// fresh; overlap checks against neighbours are the caller's, by sizes.
// On error nothing was registered.
func (t *Table) Insert(blocks []*Block) error {
	if len(blocks) == 0 {
		return nil
	}
	byAddr, seg := blocks, blocks[0].ID.Seg
	if !slices.IsSortedFunc(byAddr, cmpAddr) {
		byAddr = slices.Clone(blocks)
		slices.SortFunc(byAddr, cmpAddr)
	}
	bases, dense, nheap := t.bases[seg], 2*(len(t.segs[memory.Heap])+len(blocks))+64, len(t.heap)
	for i, b := range byAddr {
		if err := t.fresh(b, seg, i > 0 && byAddr[i-1].Addr == b.Addr); err != nil {
			for _, d := range byAddr[:i] {
				t.unindex(d)
			}
			t.heap = t.heap[:nheap] // unindex left nothing past it
			return err
		}
		t.index(b, dense)
		t.RestoreFloor(b.ID)
	}
	// Merge from the back: the registered blocks above the j-th new one move
	// up past the j+1 still to place, each in one copy. A fresh heap hands
	// out rising addresses, so most batches append and move nothing.
	n, m := len(bases), len(byAddr)
	t.bases[seg], t.segs[seg] = slices.Grow(bases, m)[:n+m], slices.Grow(t.segs[seg], m)[:n+m]
	nb, ns := t.bases[seg], t.segs[seg]
	for i, j := n, m-1; j >= 0; j-- {
		lo, addr := i, byAddr[j].Addr
		if i > 0 && nb[i-1] > addr {
			lo, _ = slices.BinarySearch(nb[:i], addr)
			copy(nb[lo+j+1:], nb[lo:i])
			copy(ns[lo+j+1:], ns[lo:i])
		}
		nb[lo+j], ns[lo+j], i = addr, byAddr[j], lo
	}
	t.baseIdx = nil
	t.version++
	return nil
}

func cmpAddr(a, b *Block) int { return cmp.Compare(a.Addr, b.Addr) }

// index files a registered block under its identification. A heap block
// whose major is below dense — a constant factor of the heap blocks
// registered, plus a small constant — goes into the slice indexed by
// major, so neither a registration nor a restore's per-pointer ByID hashes
// it; any other identification, a hostile stream's sparse majors too,
// goes into the map, so the slice stays within that bound of the table.
func (t *Table) index(b *Block, dense int) {
	if id := b.ID; id.Seg == memory.Heap && id.Minor == 0 && uint(id.Major) < uint(dense) {
		if n := int(id.Major) + 1; n > len(t.heap) {
			t.heap = append(t.heap, make([]*Block, n-len(t.heap))...)
		}
		t.heap[id.Major] = b
		return
	}
	key, _ := idKey(b.ID)
	t.byID[key] = b
}

// unindex removes a registered block from the ID index.
func (t *Table) unindex(b *Block) {
	if id := b.ID; id.Seg == memory.Heap && id.Minor == 0 && uint(id.Major) < uint(len(t.heap)) && t.heap[id.Major] == b {
		t.heap[id.Major] = nil
		return
	}
	key, _ := idKey(b.ID)
	delete(t.byID, key)
}

// fresh checks that b may be registered in seg: a non-null base address in
// that segment that no block holds (dup reports one in b's own batch), and
// an identification in range that no block holds.
func (t *Table) fresh(b *Block, seg memory.Segment, dup bool) error {
	if b.Addr == 0 {
		return fmt.Errorf("msr: register of null address")
	}
	if _, ok := idKey(b.ID); !ok {
		return fmt.Errorf("msr: block identification %s out of range", b.ID)
	}
	if _, ok := t.ByID(b.ID); ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, b.ID)
	}
	if s, ok := memory.SegmentOf(b.Addr); !ok || s != b.ID.Seg || s != seg {
		return fmt.Errorf("msr: block %s address %#x not in its segment", b.ID, uint64(b.Addr))
	}
	bases := t.bases[seg]
	if !dup && len(bases) > 0 && b.Addr <= bases[len(bases)-1] {
		_, dup = slices.BinarySearch(bases, b.Addr)
	}
	if dup {
		return fmt.Errorf("%w: address %#x", ErrDuplicate, uint64(b.Addr))
	}
	return nil
}

// Remove unregisters a batch of registered blocks of one segment — a heap
// component a live restore drops — in one pass over the segment from the
// first of them.
func (t *Table) Remove(blocks []*Block) {
	if len(blocks) == 0 {
		return
	}
	byAddr, seg := slices.Clone(blocks), blocks[0].ID.Seg
	slices.SortFunc(byAddr, cmpAddr)
	bases, segs := t.bases[seg], t.segs[seg]
	k, _ := slices.BinarySearch(bases, byAddr[0].Addr)
	j := 0
	for i := k; i < len(segs); i++ {
		if j < len(byAddr) && segs[i] == byAddr[j] {
			t.unindex(segs[i])
			j++
			continue
		}
		bases[k], segs[k] = bases[i], segs[i]
		k++
	}
	clear(segs[k:]) // the vacated tail holds no block for the GC
	t.bases[seg], t.segs[seg] = bases[:k], segs[:k]
	t.baseIdx = nil
	t.version++
}

// Unregister removes the block with the given base address (used when a
// heap block is freed or a stack frame is popped).
func (t *Table) Unregister(addr memory.Address) error {
	seg, ok := memory.SegmentOf(addr)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	i, found := slices.BinarySearch(t.bases[seg], addr)
	if !found {
		return fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	t.unindex(t.segs[seg][i])
	// Close the hole from its shorter side, so freeing blocks in the order
	// they were allocated shifts nothing: a hole in the front half takes
	// the blocks below it up one, and the segment starts one later.
	if bases, segs := t.bases[seg], t.segs[seg]; i < len(bases)/2 {
		copy(bases[1:], bases[:i])
		copy(segs[1:], segs[:i])
		t.bases[seg], t.segs[seg], segs[0] = bases[1:], segs[1:], nil // no block held for the GC
	} else {
		t.bases[seg], t.segs[seg] = slices.Delete(bases, i, i+1), slices.Delete(segs, i, i+1) // clears the vacated tail slot
	}
	t.baseIdx = nil
	t.version++
	return nil
}

// Lookup finds the block containing addr on machine m. It returns the
// block, its position in Blocks() order — the dense index a traversal keys
// its per-block state by — and the byte offset of addr within it. This is
// the MSRLT search of the collection path, and the table's only address
// search; its cost is counted in Stats.
func (t *Table) Lookup(m *arch.Machine, addr memory.Address) (b *Block, pos, off int, err error) {
	seg, ok := memory.SegmentOf(addr)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	t.Stats.Searches++
	for _, s := range t.segs[:seg] {
		pos += len(s)
	}
	if t.UseBaseIndex {
		if t.baseIdx == nil {
			t.baseIdx = make(map[memory.Address]int, t.Len())
			for _, bases := range t.bases {
				for i, a := range bases {
					t.baseIdx[a] = i
				}
			}
		}
		if i, ok := t.baseIdx[addr]; ok {
			t.Stats.BaseHits++
			return t.segs[seg][i], pos + i, 0, nil
		}
	}
	// Binary search for the last block with base <= addr, counting steps.
	n, steps := bisect(t.bases[seg], 0, len(t.bases[seg]), addr)
	t.Stats.SearchSteps += int64(steps)
	return t.hit(m, seg, n, pos, addr)
}

// bisect returns the number of bases at or below addr, given that it lies
// in [lo, hi], and the probe steps it took to find it.
func bisect(bases []memory.Address, lo, hi int, addr memory.Address) (n, steps int) {
	for ; lo < hi; steps++ {
		if mid := int(uint(lo+hi) >> 1); bases[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// hit ends a search of seg for addr: n is the number of the segment's
// blocks based at or below addr, pos the table position of its first.
func (t *Table) hit(m *arch.Machine, seg memory.Segment, n, pos int, addr memory.Address) (*Block, int, int, error) {
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	b := t.segs[seg][n-1]
	off := int(addr - b.Addr)
	if off > b.Count*b.Plan(m).ElemSize { // == size allowed: one past the end
		return nil, 0, 0, fmt.Errorf("%w: %#x past block %s", ErrNotFound, uint64(addr), b.ID)
	}
	return b, pos + n - 1, off, nil
}

// ByID resolves a machine-independent identification to its block. This is
// the restoration-direction lookup; the paper observes it takes constant
// time per block, so restoration's MSRLT cost is O(n) overall.
func (t *Table) ByID(id BlockID) (*Block, bool) {
	if id.Seg == memory.Heap && id.Minor == 0 && uint(id.Major) < uint(len(t.heap)) {
		if b := t.heap[id.Major]; b != nil {
			return b, true
		}
	}
	key, ok := idKey(id)
	if !ok {
		return nil, false
	}
	b, ok := t.byID[key]
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

// ResetStats clears the activity counters (between experiment phases).
func (t *Table) ResetStats() { t.Stats = Stats{} }

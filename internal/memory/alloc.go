package memory

import (
	"fmt"
	"math/bits"
	"sort"
)

// allocator is a first-fit free-list heap allocator over a contiguous
// address range, in the style of a classic C malloc. Block metadata is kept
// on the Go side rather than in headers inside the simulated space so that
// the simulated heap contains only program data — exactly what the data
// collection mechanisms should see.
//
// Free blocks are coalesced with their neighbours on free. All blocks are
// aligned to 16 bytes, sufficient for any scalar on any registered machine.
type allocator struct {
	base Address
	cap  int

	// free list ordered by address, for first-fit search and coalescing.
	freeList []span
	// allocated maps a block's base address to its requested size; the
	// span it occupies follows from that (grossSize).
	allocated blockIndex
}

// span is a contiguous free address range [addr, addr+size).
type span struct {
	addr Address
	size int
}

const allocAlign = 16

// grossSize is what a request of size bytes takes from the heap: at least
// one byte, rounded up to the alignment.
func grossSize(size int) int { return (max(size, 1) + allocAlign - 1) &^ (allocAlign - 1) }

func (a *allocator) init(base Address, capacity int) {
	a.base = base
	a.cap = capacity
	a.freeList = []span{{addr: base, size: capacity}}
}

// granule is the key addr's block is indexed under: its 16-byte granule in
// the heap, plus one, so that zero marks an empty slot. An address no block
// can start at gets zero, under which the index finds nothing.
func (a *allocator) granule(addr Address) uint32 {
	if off := addr - a.base; addr >= a.base && off < Address(a.cap) && off%allocAlign == 0 {
		return uint32(off/allocAlign) + 1
	}
	return 0
}

// reserve makes room for n more allocations in the block index, so a
// restore that knows its block count grows the index once.
func (a *allocator) reserve(n int) { a.allocated.reserve(n) }

// allocate finds the first free span large enough for size bytes.
func (a *allocator) allocate(size int) (Address, error) {
	gross := grossSize(size)
	for i, f := range a.freeList {
		if f.size < gross {
			continue
		}
		addr := f.addr
		if f.size == gross {
			a.freeList = append(a.freeList[:i], a.freeList[i+1:]...)
		} else {
			a.freeList[i] = span{addr: f.addr + Address(gross), size: f.size - gross}
		}
		a.allocated.put(a.granule(addr), size)
		return addr, nil
	}
	return 0, ErrOutOfMemory
}

// free returns a block to the free list, coalescing adjacent spans.
func (a *allocator) free(addr Address) error {
	size, ok := a.allocated.remove(a.granule(addr))
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	s := span{addr: addr, size: grossSize(size)}

	// Insert in address order.
	i := sort.Search(len(a.freeList), func(i int) bool {
		return a.freeList[i].addr > s.addr
	})
	a.freeList = append(a.freeList, span{})
	copy(a.freeList[i+1:], a.freeList[i:])
	a.freeList[i] = s

	// Coalesce with successor, then predecessor.
	if i+1 < len(a.freeList) && a.freeList[i].addr+Address(a.freeList[i].size) == a.freeList[i+1].addr {
		a.freeList[i].size += a.freeList[i+1].size
		a.freeList = append(a.freeList[:i+1], a.freeList[i+2:]...)
	}
	if i > 0 && a.freeList[i-1].addr+Address(a.freeList[i-1].size) == a.freeList[i].addr {
		a.freeList[i-1].size += a.freeList[i].size
		a.freeList = append(a.freeList[:i], a.freeList[i+1:]...)
	}
	return nil
}

// checkInvariants verifies the free list is sorted, non-overlapping, and
// fully coalesced, that no free span overlaps an allocated block, and that
// the block index finds every entry it holds. It is used by property tests.
func (a *allocator) checkInvariants() error {
	if err := a.allocated.check(); err != nil {
		return err
	}
	for i := 1; i < len(a.freeList); i++ {
		prev, cur := a.freeList[i-1], a.freeList[i]
		if prev.addr+Address(prev.size) > cur.addr {
			return fmt.Errorf("free list overlap at %d", i)
		}
		if prev.addr+Address(prev.size) == cur.addr {
			return fmt.Errorf("free list not coalesced at %d", i)
		}
	}
	for _, sl := range a.allocated.slots {
		if sl.key == 0 {
			continue
		}
		addr, size := a.base+Address(sl.key-1)*allocAlign, int(sl.size)
		for _, f := range a.freeList {
			if addr < f.addr+Address(f.size) && f.addr < addr+Address(grossSize(size)) {
				return fmt.Errorf("allocated block %#x overlaps free span %#x", uint64(addr), uint64(f.addr))
			}
		}
	}
	return nil
}

// blockIndex maps a granule key to a block's requested size: an
// open-addressing hash table with linear probing over one pointer-free
// array, which the collector never scans and which a restore that
// announces its block count sizes once. It is never more than three
// quarters full, and a deletion shifts the rest of its probe run back
// instead of leaving a tombstone, so a lookup stops at the first empty
// slot.
type blockIndex struct {
	slots []indexSlot // a power of two long, or empty
	n     int         // occupied slots
}

type indexSlot struct {
	key  uint32 // 0 marks an empty slot
	size uint32 // the heap is smaller than 4 GB
}

// home is the slot a key's probe run starts at (Fibonacci hashing: the
// granules of a heap filled in order spread over the whole table).
func (x *blockIndex) home(key uint32) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> (64 - bits.Len(uint(len(x.slots)-1))))
}

// find returns the slot holding key, or the empty slot its probe run ends
// at; the table must not be empty.
func (x *blockIndex) find(key uint32) int {
	mask := len(x.slots) - 1
	i := x.home(key)
	for x.slots[i].key != 0 && x.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// put adds a key that is not in the index.
func (x *blockIndex) put(key uint32, size int) {
	x.reserve(1)
	x.slots[x.find(key)] = indexSlot{key: key, size: uint32(size)}
	x.n++
}

// remove deletes key and returns the size it held.
func (x *blockIndex) remove(key uint32) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	i, mask := x.find(key), len(x.slots)-1
	size, found := int(x.slots[i].size), x.slots[i].key != 0
	if !found {
		return 0, false
	}
	// Move back every later entry of the run whose home is not in (i, j]
	// (cyclically: a run may wrap past the end), so no entry is left
	// behind the hole its probe would stop at.
	for j := (i + 1) & mask; x.slots[j].key != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
	return size, true
}

// reserve makes room for n more keys. A table that would pass three
// quarters full is regrown to the power of two above four thirds of what
// it must hold, which at least doubles it.
func (x *blockIndex) reserve(n int) {
	if 4*(x.n+n) <= 3*len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]indexSlot, 1<<bits.Len(uint(max(4*(x.n+n)/3, 8))))
	for _, sl := range old {
		if sl.key != 0 {
			x.slots[x.find(sl.key)] = sl
		}
	}
}

// check verifies the count and that every entry is found from its home.
func (x *blockIndex) check() error {
	n := 0
	for i, sl := range x.slots {
		if sl.key == 0 {
			continue
		}
		if n++; x.find(sl.key) != i {
			return fmt.Errorf("block index: key %d at slot %d is not found from its home %d", sl.key, i, x.home(sl.key))
		}
	}
	if n != x.n {
		return fmt.Errorf("block index holds %d keys, counts %d", n, x.n)
	}
	return nil
}

package memory

import (
	"fmt"
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
	// span it occupies follows from that (grossSize), so the index a
	// restore grows by one entry per block holds one word per block.
	allocated map[Address]int

	live      int
	bytesLive int
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
	a.allocated = make(map[Address]int)
}

// reserve makes room for n more allocations in the block index. The index
// is rebuilt only when that at least doubles it, so many small reserves
// cost no more than the map's own growth would.
func (a *allocator) reserve(n int) {
	if n > len(a.allocated) {
		grown := make(map[Address]int, len(a.allocated)+n)
		for addr, size := range a.allocated {
			grown[addr] = size
		}
		a.allocated = grown
	}
}

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
		a.allocated[addr] = size
		a.live++
		a.bytesLive += size
		return addr, nil
	}
	return 0, ErrOutOfMemory
}

// free returns a block to the free list, coalescing adjacent spans.
func (a *allocator) free(addr Address) error {
	size, ok := a.allocated[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	delete(a.allocated, addr)
	a.live--
	a.bytesLive -= size
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

// sizeOf returns the requested size of the allocated block at addr.
func (a *allocator) sizeOf(addr Address) (int, error) {
	size, ok := a.allocated[addr]
	if !ok {
		return 0, fmt.Errorf("%w: %#x", ErrBadFree, uint64(addr))
	}
	return size, nil
}

// checkInvariants verifies the free list is sorted, non-overlapping, and
// fully coalesced, and that no free span overlaps an allocated block.
// It is used by property tests.
func (a *allocator) checkInvariants() error {
	for i := 1; i < len(a.freeList); i++ {
		prev, cur := a.freeList[i-1], a.freeList[i]
		if prev.addr+Address(prev.size) > cur.addr {
			return fmt.Errorf("free list overlap at %d", i)
		}
		if prev.addr+Address(prev.size) == cur.addr {
			return fmt.Errorf("free list not coalesced at %d", i)
		}
	}
	for addr, size := range a.allocated {
		for _, f := range a.freeList {
			if addr < f.addr+Address(f.size) && f.addr < addr+Address(grossSize(size)) {
				return fmt.Errorf("allocated block %#x overlaps free span %#x", uint64(addr), uint64(f.addr))
			}
		}
	}
	return nil
}

package memory

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// wrapsOnDelete reports whether deleting key from x works across the end
// of the table: the key sits past the end of the slots from its home, or
// the probe run after it continues from the last slot to the first.
func wrapsOnDelete(x *blockIndex, key uint32) bool {
	i, mask := x.find(key), len(x.slots)-1
	if i < x.home(key) {
		return true
	}
	for j := i; x.slots[j].key != 0; j = (j + 1) & mask {
		if j == mask && x.slots[0].key != 0 {
			return true
		}
	}
	return false
}

// indexed reads a's entry from the allocator's block index, as free does.
func indexed(s *Space, a Address) (int, bool) {
	x := &s.alloc.allocated
	if x.n == 0 {
		return 0, false
	}
	sl := x.slots[x.find(s.alloc.granule(a))]
	return int(sl.size), sl.key != 0
}

// TestAllocatorIndexModel runs random Malloc, Free and index lookup
// sequences against a reference map from block base to requested size: the
// allocator's pointer-free block index must answer as the map does, for
// live blocks and for addresses that are none (interior, unaligned,
// outside the heap, freed), and checkInvariants must hold after every
// step. The sequences must delete across the table's wrap-around and
// regrow it.
func TestAllocatorIndexModel(t *testing.T) {
	wraps, regrows := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(arch.SPARC20)
		ref := map[Address]int{}
		var live []Address
		for step := 0; step < 3000; step++ {
			slots := len(s.alloc.allocated.slots)
			// Grow while the step is in the first half, shrink in the second.
			grow := 3
			if step%1000 >= 500 {
				grow = 1
			}
			switch op := rng.Intn(10); {
			case op < grow+2 || len(live) == 0:
				if rng.Intn(50) == 0 {
					s.ReserveMallocs(rng.Intn(100))
					break
				}
				size := rng.Intn(100)
				a, err := s.Malloc(size)
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := ref[a]; dup {
					t.Fatalf("seed %d step %d: Malloc returned live block %#x", seed, step, uint64(a))
				}
				ref[a] = size
				live = append(live, a)
			case op < 8:
				k := rng.Intn(len(live))
				a := live[k]
				if wrapsOnDelete(&s.alloc.allocated, s.alloc.granule(a)) {
					wraps++
				}
				if err := s.Free(a); err != nil {
					t.Fatalf("seed %d step %d: Free(%#x): %v", seed, step, uint64(a), err)
				}
				delete(ref, a)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 9:
				// An address that is no block's base: freeing it fails and
				// changes nothing.
				a := [...]Address{HeapBase - allocAlign, HeapBase + heapCap, 0, live[rng.Intn(len(live))] + 1, live[rng.Intn(len(live))] + allocAlign, HeapBase + Address(rng.Intn(1<<16))}[rng.Intn(6)]
				if _, ok := ref[a]; ok {
					break
				}
				if err := s.Free(a); !errors.Is(err, ErrBadFree) {
					t.Fatalf("seed %d step %d: Free(%#x) of no block: %v", seed, step, uint64(a), err)
				}
				if _, ok := indexed(s, a); ok {
					t.Fatalf("seed %d step %d: the index holds %#x, no block", seed, step, uint64(a))
				}
			default:
				a := live[rng.Intn(len(live))]
				if size, ok := indexed(s, a); !ok || size != ref[a] {
					t.Fatalf("seed %d step %d: index(%#x) = %d, %v; want %d", seed, step, uint64(a), size, ok, ref[a])
				}
			}
			if len(s.alloc.allocated.slots) > slots && slots > 0 {
				regrows++
			}
			if err := s.alloc.checkInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if s.HeapLive() != len(ref) {
				t.Fatalf("seed %d step %d: %d blocks live, want %d", seed, step, s.HeapLive(), len(ref))
			}
			for a, size := range ref {
				if got, ok := indexed(s, a); !ok || got != size {
					t.Fatalf("seed %d step %d: index(%#x) = %d, %v; want %d", seed, step, uint64(a), got, ok, size)
				}
			}
		}
	}
	t.Logf("%d deletions across the wrap-around, %d regrows", wraps, regrows)
	if wraps == 0 {
		t.Error("no deletion worked across the end of the table")
	}
	if regrows == 0 {
		t.Error("the index never regrew")
	}
}

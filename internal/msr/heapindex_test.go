package msr

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// heapBlocks allocates one heap block per major, for the caller to
// register.
func heapBlocks(t *testing.T, sp *memory.Space, majors ...uint32) []*Block {
	t.Helper()
	out := make([]*Block, len(majors))
	for i, major := range majors {
		a, err := sp.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = &Block{ID: BlockID{Seg: memory.Heap, Major: major}, Addr: a, Type: types.Double, Count: 1}
	}
	return out
}

// tableState is what a refused Insert must leave unchanged.
type tableState struct {
	blocks      []*Block
	dense, hash int
	version     uint64
}

func stateOf(tbl *Table) tableState {
	return tableState{tbl.Blocks(), len(tbl.heap), len(tbl.byID), tbl.Version()}
}

// refuse requires Insert of batch to fail with ErrDuplicate and to leave
// the table as it was: every block it held still found, by address and by
// identification, and none of the batch's.
func refuse(t *testing.T, tbl *Table, batch []*Block) {
	t.Helper()
	before := stateOf(tbl)
	if err := tbl.Insert(batch); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("Insert of a repeated major: %v, want ErrDuplicate", err)
	}
	after := stateOf(tbl)
	if !slices.Equal(after.blocks, before.blocks) || after.dense != before.dense || after.hash != before.hash || after.version != before.version {
		t.Fatalf("a refused Insert changed the table: %d blocks, %d dense, %d hashed, version %d -> %d, %d, %d, %d",
			len(before.blocks), before.dense, before.hash, before.version, len(after.blocks), after.dense, after.hash, after.version)
	}
	for _, b := range before.blocks {
		if got, ok := tbl.ByID(b.ID); !ok || got != b {
			t.Fatalf("after a refused Insert ByID(%s) = %v, %v", b.ID, got, ok)
		}
	}
	for _, b := range batch {
		if got, ok := tbl.ByID(b.ID); ok && got == b {
			t.Fatalf("a refused Insert left %s registered", b.ID)
		}
	}
}

// TestHeapIndexSparseMajors: a heap directory naming majors 0, 2³¹ and
// 2³²−1 registers, each found by identification, and grows the ID index by
// a few words per entry — not by the largest major, which a dense slice
// would have to reach. TotalAlloc counts what every goroutine allocates,
// so one reading around an Insert can include another's garbage; each of
// several inserts into a fresh table allocates the same, and the least
// reading is the one nothing else added to.
func TestHeapIndexSparseMajors(t *testing.T) {
	sp := memory.NewSpace(arch.SPARC20)
	batch := heapBlocks(t, sp, 0, 1<<31, 1<<32-1)
	var tbl *Table
	grew := uint64(math.MaxUint64)
	for range 5 {
		tbl = NewTable()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tbl.Insert(batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if most := uint64(len(batch)) * 64 * 8; grew > most {
		t.Errorf("registering %d sparse majors allocated %d bytes, more than 64 words each (%d)", len(batch), grew, most)
	}
	for _, b := range batch {
		if got, ok := tbl.ByID(b.ID); !ok || got != b {
			t.Errorf("ByID(%s) = %v, %v", b.ID, got, ok)
		}
	}
	if len(tbl.heap) > 2*len(batch)+64 {
		t.Errorf("the dense index reaches %d slots for %d blocks", len(tbl.heap), len(batch))
	}
	for _, major := range []uint32{1, 1<<31 - 1, 1<<31 + 1, 1<<32 - 2} {
		if _, ok := tbl.ByID(BlockID{Seg: memory.Heap, Major: major}); ok {
			t.Errorf("ByID(heap:%d) found a block", major)
		}
	}
	// Each of them, repeated in a later directory, is refused.
	for _, major := range []uint32{0, 1 << 31, 1<<32 - 1} {
		refuse(t, tbl, heapBlocks(t, sp, 7, major))
	}
	tbl.Remove(batch)
	if tbl.Len() != 0 || len(tbl.byID) != 0 {
		t.Errorf("after Remove: %d blocks, %d hashed identifications", tbl.Len(), len(tbl.byID))
	}
	for _, b := range batch {
		if _, ok := tbl.ByID(b.ID); ok {
			t.Errorf("ByID(%s) found a removed block", b.ID)
		}
	}
}

// TestHeapIndexMajorRepeatedAcrossSections: a second section's directory
// naming a major the first registered is refused whole, as is a directory
// that names one major twice.
func TestHeapIndexMajorRepeatedAcrossSections(t *testing.T) {
	sp, tbl := memory.NewSpace(arch.SPARC20), NewTable()
	if err := tbl.Insert(heapBlocks(t, sp, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)); err != nil {
		t.Fatal(err)
	}
	refuse(t, tbl, heapBlocks(t, sp, 10, 11, 5, 12, 13))
	refuse(t, tbl, heapBlocks(t, sp, 20, 21, 20))
	refuse(t, tbl, heapBlocks(t, sp, 1<<30, 1<<30))
}

// TestHeapIndexDuplicateAcrossDensityBound: the two copies of a repeated
// major land on either side of the density bound — the first hashed while
// the bound was below it and the second where the slice now reaches, or
// the first in the slice and the second after removals lowered the bound
// below it. Either way the second is refused.
func TestHeapIndexDuplicateAcrossDensityBound(t *testing.T) {
	t.Run("hashed, then dense", func(t *testing.T) {
		sp, tbl := memory.NewSpace(arch.SPARC20), NewTable()
		if err := tbl.Insert(heapBlocks(t, sp, 100)); err != nil { // bound 2·1+64 = 66
			t.Fatal(err)
		}
		if len(tbl.byID) != 1 || len(tbl.heap) != 0 {
			t.Fatalf("major 100 in an empty table: %d hashed, %d dense slots", len(tbl.byID), len(tbl.heap))
		}
		var low []uint32
		for major := range uint32(100) {
			low = append(low, major)
		}
		if err := tbl.Insert(heapBlocks(t, sp, append(low, 150)...)); err != nil { // bound 2·102+64
			t.Fatal(err)
		}
		if len(tbl.heap) <= 100 {
			t.Fatalf("the dense slice reaches %d slots, not past major 100", len(tbl.heap))
		}
		refuse(t, tbl, heapBlocks(t, sp, 100))
		refuse(t, tbl, heapBlocks(t, sp, 200, 100))
	})
	t.Run("dense, then past the bound", func(t *testing.T) {
		sp, tbl := memory.NewSpace(arch.SPARC20), NewTable()
		var majors []uint32
		for major := range uint32(100) {
			majors = append(majors, major)
		}
		blocks := heapBlocks(t, sp, majors...)
		if err := tbl.Insert(blocks); err != nil {
			t.Fatal(err)
		}
		if len(tbl.heap) != 100 || len(tbl.byID) != 0 {
			t.Fatalf("majors 0..99: %d dense slots, %d hashed", len(tbl.heap), len(tbl.byID))
		}
		tbl.Remove(blocks[:90]) // ten left: the bound for one more is 2·11+64 = 86
		refuse(t, tbl, heapBlocks(t, sp, 95))
		refuse(t, tbl, heapBlocks(t, sp, 300, 99))
		// A fresh major past the bound is hashed; one below the slice's
		// length reuses its slot.
		fresh := heapBlocks(t, sp, 300, 50)
		if err := tbl.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		for _, b := range fresh {
			if got, ok := tbl.ByID(b.ID); !ok || got != b {
				t.Errorf("ByID(%s) = %v, %v", b.ID, got, ok)
			}
		}
		if len(tbl.heap) != 100 || len(tbl.byID) != 1 {
			t.Errorf("after majors 300 and 50: %d dense slots, %d hashed; want 100 and 1", len(tbl.heap), len(tbl.byID))
		}
	})
}

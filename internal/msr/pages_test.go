package msr

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// segmentSpan is the address range of each segment, as memory.SegmentOf
// classifies it.
var segmentSpan = [memory.NumSegments]struct{ lo, hi memory.Address }{
	memory.Global: {memory.GlobalBase, memory.GlobalBase + 64<<20},
	memory.Heap:   {memory.HeapBase, memory.HeapBase + 512<<20},
	memory.Stack:  {memory.StackBase - 64<<20, memory.StackBase},
}

// randomPagedTable registers blocks of char arrays in every segment: some
// segments empty, some of one block, most of many, with sizes mixing a few
// bytes with a few hundred kilobytes — so that one block spans many pages
// and one page holds many blocks — and gaps between blocks that are
// sometimes zero. It returns the table and the probe addresses: every
// base, an interior address, one past the end, every gap, the segment's
// edges, and addresses below the first block and above the last.
func randomPagedTable(t testing.TB, rng *rand.Rand) (*Table, []memory.Address) {
	tbl := NewTable()
	var probes []memory.Address
	for seg := range memory.NumSegments {
		span := segmentSpan[seg]
		probes = append(probes, span.lo, span.hi-1, span.lo-1, span.hi)
		var n int
		switch rng.Intn(5) {
		case 0: // empty
		case 1:
			n = 1
		default:
			n = 1 + rng.Intn(300)
		}
		at := span.lo + memory.Address(rng.Intn(4096))
		var batch []*Block
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(16)
			if rng.Intn(8) == 0 {
				size = 1 + rng.Intn(256<<10)
			}
			gap := 0
			if rng.Intn(3) > 0 {
				gap = rng.Intn(64)
				if rng.Intn(10) == 0 {
					gap = rng.Intn(1 << 20)
				}
			}
			if at+memory.Address(size+gap) >= span.hi {
				break
			}
			b := &Block{ID: BlockID{Seg: seg, Major: uint32(i)}, Addr: at, Type: types.Char, Count: size}
			batch = append(batch, b)
			end := at + memory.Address(size)
			probes = append(probes, at, at+memory.Address(rng.Intn(size)), end, end+1)
			if gap > 0 {
				probes = append(probes, end+memory.Address(rng.Intn(gap)), end+memory.Address(gap)-1)
			}
			at = end + memory.Address(gap)
		}
		if len(batch) > 0 {
			first, last := batch[0], batch[len(batch)-1]
			probes = append(probes, first.Addr-1, last.Addr+memory.Address(last.Count)+1, last.Addr+memory.Address(last.Count)+1<<20)
		}
		// Register in a random order, in one merge or block by block.
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		if rng.Intn(2) == 0 {
			if err := tbl.Insert(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, b := range batch {
				if err := tbl.Register(b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tbl, append(probes, 0, 1, ^memory.Address(0))
}

// checkPages holds the page index's answer for every probe to the ordered
// table's: the same block, position, offset and error. The index counts
// each probe as a search and takes no bisection steps.
func checkPages(t *testing.T, tbl *Table, probes []memory.Address) {
	t.Helper()
	m := arch.SPARC20
	x := tbl.Pages()
	for _, addr := range probes {
		before := tbl.Stats
		b, pos, off, err := x.Lookup(m, addr)
		if after := tbl.Stats; after.SearchSteps != before.SearchSteps || (err == nil && after.Searches != before.Searches+1) {
			t.Fatalf("page lookup of %#x moved the counters %+v -> %+v", uint64(addr), before, after)
		}
		wb, wpos, woff, werr := tbl.Lookup(m, addr)
		if b != wb || pos != wpos || off != woff {
			t.Fatalf("page lookup of %#x = %v at %d +%d, ordered table %v at %d +%d", uint64(addr), b, pos, off, wb, wpos, woff)
		}
		if (err == nil) != (werr == nil) || errors.Is(err, ErrNotFound) != errors.Is(werr, ErrNotFound) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("page lookup of %#x: %v, ordered table: %v", uint64(addr), err, werr)
		}
	}
}

// TestPageIndexMatchesLookup is the differential test of the page index
// against the paper's bisection, over random tables of every shape.
func TestPageIndexMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tbl, probes := randomPagedTable(t, rng)
		checkPages(t, tbl, probes)
	}
}

// TestPageIndexShapes pins the shapes a random table may miss: an empty
// table, one block, a block spanning every page but one, and a page
// holding every block but one.
func TestPageIndexShapes(t *testing.T) {
	reg := func(tbl *Table, addr memory.Address, size int, major uint32) memory.Address {
		b := &Block{ID: BlockID{Seg: memory.Heap, Major: major}, Addr: addr, Type: types.Char, Count: size}
		if err := tbl.Register(b); err != nil {
			t.Fatal(err)
		}
		return addr + memory.Address(size)
	}
	probes := func(tbl *Table) []memory.Address {
		var out []memory.Address
		for _, b := range tbl.Blocks() {
			end := b.Addr + memory.Address(b.Count)
			out = append(out, b.Addr-1, b.Addr, b.Addr+1, end-1, end, end+1, end+4096)
		}
		return append(out, memory.HeapBase, memory.GlobalBase, memory.StackBase-1)
	}
	checkPages(t, NewTable(), probes(NewTable()))

	one := NewTable()
	reg(one, memory.HeapBase+64, 24, 0)
	checkPages(t, one, probes(one))

	big := NewTable() // 1 MB then 63 bytes: pages of 32 KB, all but one inside the first block
	at := reg(big, memory.HeapBase, 1<<20, 0)
	for i := range 63 {
		at = reg(big, at, 1, uint32(i+1))
	}
	checkPages(t, big, probes(big))

	crowd := NewTable() // 64 one-byte blocks in one page, then one far away
	at = memory.HeapBase
	for i := range 64 {
		at = reg(crowd, at, 1, uint32(i))
	}
	reg(crowd, memory.HeapBase+1<<24, 8, 64)
	checkPages(t, crowd, probes(crowd))
}

// TestPageIndexSize: a segment of n blocks gets at most n pages, whatever
// its span.
func TestPageIndexSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		tbl, _ := randomPagedTable(t, rng)
		x := tbl.Pages()
		for seg, r := range x.segs {
			if n := len(tbl.bases[seg]); len(r.first) > n+2 || (n == 0) != (len(r.first) == 0) {
				t.Fatalf("segment %d: %d page entries for %d blocks", seg, len(r.first), n)
			}
		}
	}
}

// FuzzPageIndex runs the differential test on fuzzed table shapes.
func FuzzPageIndex(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		tbl, probes := randomPagedTable(t, rand.New(rand.NewSource(seed)))
		checkPages(t, tbl, probes)
	})
}

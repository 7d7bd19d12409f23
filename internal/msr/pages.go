package msr

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/memory"
)

// PageIndex answers Table.Lookup's question — which block holds an
// address, at what table position and offset — for a table that does not
// change while the index is in use: a capture's, the process stopped. Each
// segment's range of base addresses is cut into pages of one power-of-two
// size, about as many pages as the segment holds blocks, and each page
// records the position of the first block based at or after its start. A
// lookup reads its page and bisects only the blocks based inside it; when
// none is at or below the address, the block holding it starts before the
// page. Most pages hold a block or none, so the common case is O(1).
//
// The index holds no Go pointer but the table's, so the collector never
// scans it. Its lookups count as Searches and take no SearchSteps: the
// paper's counted bisection stays Table.Lookup's, which the v1 codec uses.
type PageIndex struct {
	t    *Table
	segs [memory.NumSegments]pageRange
}

// pageRange is one segment's pages.
type pageRange struct {
	lo    memory.Address // the segment's lowest base
	shift uint           // log₂ of the page size
	pos   int            // table position of the segment's first block
	// first[p] is the index in the segment of the first block based at or
	// after lo + p<<shift; the two entries after the last page hold the
	// segment's block count, for an address past it. Empty for an empty
	// segment.
	first []int32
}

// Pages builds the page index of the table as it stands. It is valid while
// the table's Version holds.
func (t *Table) Pages() *PageIndex {
	x, pos := &PageIndex{t: t}, 0
	all := make([]int32, 0, t.Len()+2*int(memory.NumSegments)) // a segment of n blocks has at most n pages
	for seg, bases := range t.bases {
		r := &x.segs[seg]
		if r.pos, pos = pos, pos+len(bases); len(bases) == 0 {
			continue
		}
		// 2^shift > span/n, so the pages up to the last base number at most n.
		span := uint64(bases[len(bases)-1] - bases[0])
		r.lo, r.shift = bases[0], uint(bits.Len64(span/uint64(len(bases))))
		start, i := len(all), 0
		for p := uint64(0); p <= span>>r.shift+2; p++ {
			for at := r.lo + memory.Address(p<<r.shift); i < len(bases) && bases[i] < at; {
				i++
			}
			all = append(all, int32(i))
		}
		r.first = all[start:]
	}
	return x
}

// Lookup finds the block containing addr on machine m, exactly as
// Table.Lookup does: the block, its table position, the offset of addr
// within it, and the same errors.
func (x *PageIndex) Lookup(m *arch.Machine, addr memory.Address) (*Block, int, int, error) {
	seg, ok := memory.SegmentOf(addr)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %#x", ErrNotFound, uint64(addr))
	}
	x.t.Stats.Searches++
	r, n := &x.segs[seg], 0 // none is based below the first base
	if addr >= r.lo && len(r.first) > 0 {
		// Past the last page the blocks based in it are none and all.
		p := min(uint64(addr-r.lo)>>r.shift, uint64(len(r.first)-2))
		n, _ = bisect(x.t.bases[seg], int(r.first[p]), int(r.first[p+1]), addr)
	}
	return x.t.hit(m, seg, n, r.pos, addr)
}

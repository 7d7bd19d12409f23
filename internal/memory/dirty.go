// Dirty-block write tracking for live pre-copy migration.
//
// The pre-copy driver ships the full process image while the program keeps
// running, then re-ships only what changed. "What changed" is answered
// here: every mutation of the space funnels through a single write-barrier
// choke point (Space.mutable), which — when tracking is on — stamps each
// touched block with the current generation. A delta round then asks
// which block ranges carry a stamp at or above its watermark generation.
//
// Granularity is a fixed power-of-two block, far smaller than the heap
// blocks the collector partitions, so one mutated list node does not dirty
// a whole component by address-range accident; the collector still rounds
// up to whole sections (its natural delta unit). When tracking is off the
// barrier is a single predictable branch and the space behaves exactly as
// before — the off path is guarded by BenchmarkWriteBarrier* like the
// BenchmarkObs* zero-cost guards.
package memory

import (
	"cmp"
	"slices"
)

const (
	// DirtyBlockShift sets the tracking granularity: writes are recorded
	// per 1<<DirtyBlockShift-byte block.
	DirtyBlockShift = 8
	// DirtyBlockSize is the tracked block size in bytes.
	DirtyBlockSize = 1 << DirtyBlockShift
)

// dirtyEntry is one tracked block's state: the generation of its most
// recent write and the byte range written within the block. Interior
// blocks of a large write carry the full range; the two boundary blocks
// carry only the bytes actually touched, so two objects sharing a block
// across an allocation boundary do not false-share dirtiness. Ranges
// union within a generation; a write in a newer generation resets the
// range — every write of one generation is observed (and shipped) before
// the generation advances, so the superseded range is already dead.
// Consequence: DirtyRangesSince is byte-precise only for watermarks
// following the capture-then-advance discipline the pre-copy driver uses
// (query a generation fully, then AdvanceGeneration); a watermark more
// than one capture old still lists the block, just with the newest
// write's sub-range.
type dirtyEntry struct {
	gen    uint64
	lo, hi uint32 // written byte range within the block, hi exclusive
}

// dirtyTracker records the per-block write state. Generations only
// advance, so "dirty since g" is a stamp comparison and clearing a round
// is a watermark move, not a sweep.
type dirtyTracker struct {
	on     bool
	gen    uint64
	blocks map[Address]dirtyEntry // keyed by block index (addr >> DirtyBlockShift)
	// touched lists the blocks first stamped in the current generation, so
	// "dirty since the current generation" costs what was dirtied, not a
	// scan of every block ever written.
	touched []Address
}

// mark stamps every block overlapping [addr, addr+n) with the current
// generation. Re-stamping an already-tracked block allocates nothing, so
// a steady-state working set runs the barrier at 0 allocs/op.
func (d *dirtyTracker) mark(addr Address, n int) {
	if n <= 0 {
		return
	}
	first := addr >> DirtyBlockShift
	last := (addr + Address(n) - 1) >> DirtyBlockShift
	for b := first; b <= last; b++ {
		lo, hi := uint32(0), uint32(DirtyBlockSize)
		if b == first {
			lo = uint32(addr & (DirtyBlockSize - 1))
		}
		if b == last {
			hi = uint32((addr+Address(n)-1)&(DirtyBlockSize-1)) + 1
		}
		if e, ok := d.blocks[b]; ok && e.gen == d.gen {
			if e.lo < lo {
				lo = e.lo
			}
			if e.hi > hi {
				hi = e.hi
			}
		} else {
			d.touched = append(d.touched, b)
		}
		d.blocks[b] = dirtyEntry{gen: d.gen, lo: lo, hi: hi}
	}
}

// StartDirtyTracking turns the write barrier on with a fresh dirty set at
// generation 1. Mutations made before this call are not tracked — the
// pre-copy driver's round 0 ships the full image, so only writes after
// tracking starts need to be observed.
func (s *Space) StartDirtyTracking() {
	s.dirty.on = true
	s.dirty.gen = 1
	s.dirty.blocks = make(map[Address]dirtyEntry, 1024)
	s.dirty.touched = s.dirty.touched[:0]
}

// StopDirtyTracking turns the write barrier off and releases the dirty
// set.
func (s *Space) StopDirtyTracking() {
	s.dirty.on = false
	s.dirty.blocks, s.dirty.touched = nil, nil
}

// DirtyTracking reports whether the write barrier is on.
func (s *Space) DirtyTracking() bool { return s.dirty.on }

// Generation returns the current write generation. Writes performed now
// are stamped with this value.
func (s *Space) Generation() uint64 { return s.dirty.gen }

// AdvanceGeneration starts a new write generation and returns it. The
// pre-copy driver calls this after capturing a round: writes made while
// the program runs on are stamped with the new generation, so the next
// round's watermark cleanly separates them from what was already shipped.
func (s *Space) AdvanceGeneration() uint64 {
	s.dirty.gen++
	s.dirty.touched = s.dirty.touched[:0]
	return s.dirty.gen
}

// DirtySince counts the blocks whose most recent write is at generation
// gen or later. With gen just above the previous round's watermark this
// is the size of the dirty set the next round must re-ship.
func (s *Space) DirtySince(gen uint64) int {
	if gen == s.dirty.gen {
		return len(s.dirty.touched)
	}
	n := 0
	for _, e := range s.dirty.blocks {
		if e.gen >= gen {
			n++
		}
	}
	return n
}

// DirtyRange is the byte range [Lo, Hi) written within one tracked block.
type DirtyRange struct{ Lo, Hi Address }

// DirtyRangesSince lists, in address order, the written range of every
// block whose most recent write is at generation gen or later: one range
// per block DirtySince counts. For the current generation — the pre-copy
// driver's watermark — it costs what was dirtied, not what was ever
// written.
func (s *Space) DirtyRangesSince(gen uint64) []DirtyRange {
	d := &s.dirty
	var out []DirtyRange
	add := func(b Address, e dirtyEntry) {
		base := b << DirtyBlockShift
		out = append(out, DirtyRange{Lo: base + Address(e.lo), Hi: base + Address(e.hi)})
	}
	if gen == d.gen {
		out = make([]DirtyRange, 0, len(d.touched))
		for _, b := range d.touched {
			add(b, d.blocks[b])
		}
	} else {
		for b, e := range d.blocks {
			if e.gen >= gen {
				add(b, e)
			}
		}
	}
	slices.SortFunc(out, func(a, b DirtyRange) int { return cmp.Compare(a.Lo, b.Lo) })
	return out
}

// mutable resolves a writable view of n bytes at addr. This is the single
// write-barrier choke point: every mutation path of the space —
// WriteBytes, Zero, StorePrim/StorePtr, and the zeroing performed by
// Malloc, GlobalAlloc, and PushFrame — obtains its view here, so turning
// tracking on observes them all. Read paths (Bytes, LoadPrim) bypass it
// and never stamp blocks.
func (s *Space) mutable(addr Address, n int) ([]byte, error) {
	b, err := s.Bytes(addr, n)
	if err != nil {
		return nil, err
	}
	if s.dirty.on {
		s.dirty.mark(addr, n)
	}
	return b, nil
}

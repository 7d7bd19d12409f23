// Dirty-block write tracking for live pre-copy migration.
//
// The pre-copy driver ships the full process image while the program keeps
// running, then re-ships only what changed. "What changed" is answered
// here: every mutation of the space funnels through a single write-barrier
// choke point (Space.mutable, or for a View its segment's entry to the
// same mark), which — when tracking is on — stamps each touched block with
// the current generation. A delta round then asks which block ranges carry
// a stamp at or above its watermark generation.
//
// Granularity is a fixed power-of-two block, far smaller than the heap
// blocks the collector partitions, so one mutated list node does not dirty
// a whole component by address-range accident; the collector still rounds
// up to whole sections (its natural delta unit). The log is flat, as a
// hypervisor's dirty bitmap is: one word per block a segment backs, in an
// array indexed by block number from an origin that grows in both
// directions with the segment (the stack grows down), so a stamp is an
// index and a store, never a hash, and the log costs at most 1/32 of the
// backed bytes. When tracking is off the barrier is a single predictable
// branch and the space behaves exactly as before — the off path is
// guarded by BenchmarkWriteBarrier* like the BenchmarkObs* zero-cost
// guards.
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

// dirtyEntry is one tracked block's state, packed into a word: the
// generation of its most recent write (the high 48 bits) and the byte
// range written within the block (lo and hi-1, a byte each). Zero is a
// block never written, since generations start at 1. Interior blocks of a
// large write carry the full range; the two boundary blocks carry only
// the bytes actually touched, so two objects sharing a block across an
// allocation boundary do not false-share dirtiness. Ranges union within a
// generation; a write in a newer generation resets the range — every
// write of one generation is observed (and shipped) before the generation
// advances, so the superseded range is already dead. Consequence:
// DirtyRangesSince is byte-precise only for watermarks following the
// capture-then-advance discipline the pre-copy driver uses (query a
// generation fully, then AdvanceGeneration); a watermark more than one
// capture old still lists the block, just with the newest write's
// sub-range.
type dirtyEntry uint64

func stamp(gen uint64, lo, hi Address) dirtyEntry {
	return dirtyEntry(gen<<16 | uint64(lo)<<8 | uint64(hi-1))
}

func (e dirtyEntry) gen() uint64 { return uint64(e) >> 16 }
func (e dirtyEntry) lo() Address { return Address(e >> 8 & 0xff) }
func (e dirtyEntry) hi() Address { return Address(e&0xff) + 1 }

// blockLog is one segment's dirty log: e[i] is block org+i.
type blockLog struct {
	org Address // block number (address >> DirtyBlockShift) of e[0]
	e   []dirtyEntry
}

// cover extends the log over every block st backs, keeping its entries,
// including a last block it backs only in part (a heap CopyHeap cut at its
// highest exposed byte). The segment at least doubles when it grows, so
// the log does too.
func (l *blockLog) cover(st *segmentStore) {
	org := st.org >> DirtyBlockShift
	end := (st.org + Address(len(st.data)) + DirtyBlockSize - 1) >> DirtyBlockShift
	if len(l.e) > 0 {
		org, end = min(org, l.org), max(end, l.org+Address(len(l.e)))
	}
	e := make([]dirtyEntry, end-org)
	if len(l.e) > 0 {
		copy(e[l.org-org:], l.e)
	}
	l.org, l.e = org, e
}

// dirtyTracker records the per-block write state. Generations only
// advance, so "dirty since g" is a stamp comparison and clearing a round
// is a watermark move, not a sweep.
type dirtyTracker struct {
	on   bool
	gen  uint64
	logs [NumSegments]blockLog
	// touched lists the blocks first stamped in the current generation, so
	// "dirty since the current generation" costs what was dirtied, not a
	// scan of every block ever written.
	touched []Address
}

// mark stamps every block overlapping [addr, addr+n), which lies in the
// segment whose log is l and whose store is st, with the current
// generation. A block the log already covers is stamped in place, so a
// steady-state working set runs the barrier at 0 allocs/op.
func (d *dirtyTracker) mark(l *blockLog, st *segmentStore, addr Address, n int) {
	if n <= 0 {
		return
	}
	first := addr >> DirtyBlockShift
	last := (addr + Address(n) - 1) >> DirtyBlockShift
	if first < l.org || last-l.org >= Address(len(l.e)) {
		l.cover(st)
	}
	for b := first; b <= last; b++ {
		lo, hi := Address(0), Address(DirtyBlockSize)
		if b == first {
			lo = addr & (DirtyBlockSize - 1)
		}
		if b == last {
			hi = (addr+Address(n)-1)&(DirtyBlockSize-1) + 1
		}
		e := &l.e[b-l.org]
		if e.gen() == d.gen {
			lo, hi = min(lo, e.lo()), max(hi, e.hi())
		} else {
			d.touched = append(d.touched, b)
		}
		*e = stamp(d.gen, lo, hi)
	}
}

// entry returns the log entry of block b, which the log covers.
func (d *dirtyTracker) entry(b Address) dirtyEntry {
	seg, _ := SegmentOf(b << DirtyBlockShift)
	l := &d.logs[seg]
	return l.e[b-l.org]
}

// StartDirtyTracking turns the write barrier on with a fresh dirty set at
// generation 1. Mutations made before this call are not tracked — the
// pre-copy driver's round 0 ships the full image, so only writes after
// tracking starts need to be observed. The logs of an earlier tracking
// session are cleared and reused.
func (s *Space) StartDirtyTracking() {
	s.dirty.on = true
	s.dirty.gen = 1
	for i := range s.dirty.logs {
		clear(s.dirty.logs[i].e)
	}
	s.dirty.touched = s.dirty.touched[:0]
}

// StopDirtyTracking turns the write barrier off. Nothing is dirty while it
// is off; the logs are kept for the next StartDirtyTracking.
func (s *Space) StopDirtyTracking() {
	s.dirty.on = false
	s.dirty.touched = s.dirty.touched[:0]
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

// since visits every block whose most recent write is at generation gen
// or later: for the current generation the touched list, in write order;
// for an older watermark a scan of the logs, in address order. Nothing is
// dirty while tracking is off.
func (d *dirtyTracker) since(gen uint64, visit func(b Address, e dirtyEntry)) {
	switch {
	case !d.on:
	case gen == d.gen:
		for _, b := range d.touched {
			visit(b, d.entry(b))
		}
	default:
		gen = max(gen, 1) // a zero entry is a block never written
		for i := range d.logs {
			l := &d.logs[i]
			for j, e := range l.e {
				if e.gen() >= gen {
					visit(l.org+Address(j), e)
				}
			}
		}
	}
}

// DirtySince counts the blocks whose most recent write is at generation
// gen or later. With gen just above the previous round's watermark this
// is the size of the dirty set the next round must re-ship.
func (s *Space) DirtySince(gen uint64) int {
	if s.dirty.on && gen == s.dirty.gen {
		return len(s.dirty.touched)
	}
	n := 0
	s.dirty.since(gen, func(Address, dirtyEntry) { n++ })
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
	var out []DirtyRange
	if s.dirty.on && gen == s.dirty.gen {
		out = make([]DirtyRange, 0, len(s.dirty.touched))
	}
	s.dirty.since(gen, func(b Address, e dirtyEntry) {
		base := b << DirtyBlockShift
		out = append(out, DirtyRange{Lo: base + e.lo(), Hi: base + e.hi()})
	})
	slices.SortFunc(out, func(a, b DirtyRange) int { return cmp.Compare(a.Lo, b.Lo) })
	return out
}

// mutable resolves a writable view of n bytes at addr. This is the single
// write-barrier choke point: every mutation path of the space —
// WriteBytes, Zero, StorePrim/StorePtr, the zeroing performed by Malloc,
// GlobalAlloc, and PushFrame, and View.Write — obtains its view here or
// through mark, so turning tracking on observes them all. Read paths
// (Bytes, LoadPrim, View.Read) bypass it and never stamp blocks.
func (s *Space) mutable(addr Address, n int) ([]byte, error) {
	seg, st := s.store(addr)
	if st == nil {
		return nil, badAddress(addr)
	}
	return s.mutableIn(seg, st, addr, n)
}

// mutableIn is mutable for an address already resolved to its segment and
// store.
func (s *Space) mutableIn(seg Segment, st *segmentStore, addr Address, n int) ([]byte, error) {
	b, err := st.slice(addr, n)
	if err == nil && s.dirty.on {
		s.dirty.mark(&s.dirty.logs[seg], st, addr, n)
	}
	return b, err
}

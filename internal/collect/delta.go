package collect

// Delta capture for live pre-copy migration (the live rounds of the round
// exchange; they carry no envelope).
//
// A pre-copy round re-partitions the live set from scratch — allocation
// and pointer mutation can merge, split, create, or drop heap components
// between rounds — but re-encodes only the sections whose bytes can have
// changed. The decision is made per section against the memory layer's
// dirty-block set:
//
//   - a section is CLEAN when its membership signature (the ordered list
//     of member block identities and shapes, plus the live-variable
//     addresses for frame/globals sections) matches the previous round's
//     and none of its members' address ranges intersect the dirty set;
//   - a clean section's cached body from the previous round is reused
//     byte-for-byte, skipping the encoder entirely;
//   - everything else is re-encoded by the same loop as a full sectioned
//     capture (EncodeSections, which this file only filters).
//
// Reuse is sound because a section body is a pure function of its
// members' shapes, their memory bytes, and the resolution of the pointer
// values stored in those bytes. The first two are covered by the
// signature and the dirty check. Pointer resolution is stable under
// clean bytes: a live, non-dangling pointer's target block cannot have
// been freed (the program would have had to overwrite the pointer —
// dirtying the section — before the block could die), and block
// identities are never reused. A program that keeps a live dangling
// pointer is already outside the collector's contract.
//
// Section keys survive renumbering: a heap component is keyed by its
// first-visited member's block identity, not its component index, so
// components keep their cache entries as unrelated components appear and
// disappear around them.

import (
	"bytes"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// DirtyFunc reports whether any byte of [addr, addr+n) was written since
// the watermark the caller tracks — typically a closure over
// memory.Space.RangeDirtySince.
type DirtyFunc func(addr memory.Address, n int) bool

// deltaKey identifies a section across rounds independently of its
// position in the partition.
type deltaKey struct {
	class uint8  // 0 = heap component, 1 = frame, 2 = globals
	id    uint32 // first member's Major for heap, frame depth for frames
}

// cachedSection is one section's state from the previous round.
type cachedSection struct {
	sig  uint64
	body []byte // tracker-owned; never aliases a pooled encoder
	pos  int    // its index in that round's bodies
}

// DeltaTracker carries the per-section cache from round to round. One
// tracker serves one process's pre-copy sequence; the zero value is not
// usable — call NewDeltaTracker.
type DeltaTracker struct {
	prev map[deltaKey]*cachedSection
}

// NewDeltaTracker returns an empty tracker: the first round re-encodes
// everything (the full-image round of the pre-copy loop).
func NewDeltaTracker() *DeltaTracker {
	return &DeltaTracker{prev: make(map[deltaKey]*cachedSection)}
}

// mark computes every job's membership signature and sets reuse on the
// jobs whose cached body from the previous round is still exact: same
// signature, no member range dirty. A nil dirty treats everything as
// dirty, so the first round re-encodes every section.
func (dt *DeltaTracker) mark(jobs []sectionJob, ti *types.TI, mach *arch.Machine, dirty DirtyFunc) {
	for idx := range jobs {
		job := &jobs[idx]
		sig := uint64(fnvOffset)
		for _, addr := range job.live {
			sig = fnvMix(sig, uint64(addr))
		}
		clean := dirty != nil
		for _, mb := range job.blocks {
			b := mb.b
			tIdx, ok := ti.Index(b.Type)
			if !ok {
				clean = false // encodeBody will report the real error
			}
			sig = fnvMix(sig, uint64(b.ID.Seg))
			sig = fnvMix(sig, uint64(b.ID.Major)<<32|uint64(b.ID.Minor))
			sig = fnvMix(sig, uint64(tIdx)<<32|uint64(uint32(b.Count)))
			if clean && dirty(b.Addr, b.Count*b.Plan(mach).ElemSize) {
				clean = false
			}
		}
		job.sig = sig
		prev, ok := dt.prev[job.key]
		job.reuse = ok && clean && prev.sig == sig
	}
}

// fold takes one round into the tracker: reused sections keep their
// cached bodies and say where in the previous round they stood, fresh ones
// are cloned out of the pooled encoders so the cache owns every byte it
// hands back. The bodies stay valid across subsequent rounds (the pre-copy
// sender may still be shipping one while the next round encodes) but must
// not be mutated.
func (dt *DeltaTracker) fold(jobs []sectionJob, secs []EncodedSection) {
	next := make(map[deltaKey]*cachedSection, len(jobs))
	for idx, job := range jobs {
		cs := dt.prev[job.key]
		if job.reuse {
			secs[idx] = EncodedSection{Body: cs.body, From: cs.pos}
		} else {
			cs = &cachedSection{sig: job.sig, body: bytes.Clone(secs[idx].Body)}
			secs[idx].Body = cs.body
		}
		cs.pos = idx
		next[job.key] = cs
	}
	dt.prev = next
}

// fnv-1a over 8-byte words, hand-rolled to keep the per-round signature
// pass allocation-free.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

package collect

// Delta capture for live pre-copy migration (the live rounds of the round
// exchange).
//
// A pre-copy round after the first costs what the program dirtied, not what
// it holds: it keeps the previous round's partition when the partition
// cannot have changed, and re-encodes only the sections whose bytes can
// have. Both decisions come from one pass over the memory layer's dirty
// ranges, each mapped to the reachable blocks it overlaps (the partition's
// blocks in address order) and from there to their sections.
//
// The tracker keeps the last partition with what it was built from: the
// roots and the table's Version. A round reuses it when
//
//   - the table's version is unchanged: no block was registered or
//     unregistered since (no malloc, free, call or return), so every block
//     stands where it stood;
//   - the roots are unchanged: the same frames, the same live-variable and
//     global addresses;
//   - every pointer scalar of a reachable block that a dirty range overlaps
//     re-resolves to the reference the partition recorded for it.
//
// That is sound because the partition walk reads nothing else. It starts
// from the roots, resolves pointer values against the table, and reads the
// pointer scalars of the blocks it reaches. Under the three conditions each
// pointer it would read is either unwritten, so it resolves as before
// against an unchanged table, or was re-resolved to the same reference. So
// a new walk would visit the same blocks in the same order, assign the same
// owners and record the same references: the kept partition is the one
// buildPartition would build, and its membership is unchanged by
// construction. The check is deliberately weaker than "no dirty range
// covers a pointer field": a loop cursor that ends each round where it
// began, or a write range that spans a neighbour's unchanged link, does not
// cost a walk. Any mismatch, or an error, falls back to buildPartition,
// which stays the only code that builds a partition (and reports the
// error).
//
// A section body is a pure function of its members (their identities,
// types and counts), the live variables it opens with, their memory bytes,
// and the references their pointer values resolve to. A section is CLEAN
// when no dirty range overlaps any member and the previous round has a
// section under its key with exactly the same members in the same order,
// the same live variables and the same recorded references — compared
// item by item, not through a hash that two memberships could share. A
// clean section's cached body is reused byte for byte (Layout.Carried);
// everything else is re-encoded by the same section encoder as a cold
// capture (Walk, which this file only filters). Comparing the references,
// not just the blocks, matters after a table change: a pointer one past
// the end of a block resolves into the block allocated there next without
// a byte of its own changing. Under a kept partition every section is its previous
// self, so only the dirty test applies.
//
// Section keys survive renumbering: a heap component is keyed by its
// first-visited member's block identity, not its component index, so
// components keep their cache entries as unrelated components appear and
// disappear around them.

import (
	"slices"

	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
)

// deltaKey identifies a section across rounds independently of its
// position in the partition.
type deltaKey struct {
	class uint8  // 0 = heap component, 1 = frame, 2 = globals
	id    uint32 // first-visited member's Major for heap, frame depth for frames
}

// DeltaTracker carries one pre-copy sequence from round to round. One
// tracker serves one process; its first round encodes every section (the
// full-image round of the pre-copy loop).
type DeltaTracker struct {
	last *deltaRound // nil before the first round
}

// NewDeltaTracker returns an empty tracker.
func NewDeltaTracker() *DeltaTracker { return &DeltaTracker{} }

// deltaRound is one round's partition, what it was built from, and — once
// folded into the tracker — its section bodies.
type deltaRound struct {
	pt      *partition
	roots   Roots
	version uint64       // the table's Version the partition was walked at
	sites   []site       // the partition's blocks in address order
	jobs    []sectionJob // the partition laid out in snapshot order
	bodies  [][]byte     // jobs[i]'s body, tracker-owned
	reused  bool         // the partition is the previous round's
}

// plan lays one round out: the previous round's partition when the reuse
// rule holds, else a fresh walk, with every job whose cached body is still
// exact marked reuse. dirty lists the ranges written since the previous
// round, in address order. Without a tracker it is a fresh walk.
func (dt *DeltaTracker) plan(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots, dirty []memory.DirtyRange) (*deltaRound, error) {
	if dt == nil {
		return walk(space, table, ti, roots)
	}
	last := dt.last
	if last != nil && last.version == table.Version() && roots.equal(last.roots) {
		r := *last
		r.jobs, r.bodies, r.reused = slices.Clone(last.jobs), nil, true
		if stale, err := r.stale(dirty, newRecheck(space, last).block); err == nil {
			for i := range r.jobs {
				r.jobs[i].reuse, r.jobs[i].from = !stale[i], i
			}
			return &r, nil
		}
	}

	r, err := walk(space, table, ti, roots)
	if err != nil {
		return nil, err
	}
	r.sites = sitesOf(r.jobs, space.Machine(), table.Len())
	if last == nil {
		return r, nil
	}
	stale, _ := r.stale(dirty, nil)
	at := make(map[deltaKey]int, len(last.jobs))
	for i, job := range last.jobs {
		at[job.key] = i
	}
	now, then := r.pt.refScan(space.Machine(), nil), last.pt.refScan(space.Machine(), nil)
	for i := range r.jobs {
		job := &r.jobs[i]
		j, ok := at[job.key]
		job.reuse, job.from = ok && !stale[i] && sameSection(job, now, &last.jobs[j], then), j
	}
	return r, nil
}

// walk builds a fresh partition, laid out in snapshot order.
func walk(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots) (*deltaRound, error) {
	pt, err := buildPartition(space, table, ti, roots)
	if err != nil {
		return nil, err
	}
	return &deltaRound{pt: pt, roots: roots, version: table.Version(), jobs: pt.jobs(roots)}, nil
}

// stale reports, per job, whether a dirty range overlaps one of its
// blocks; check, when set, vets every such block against the ranges that
// overlap it, and its error ends the pass.
func (r *deltaRound) stale(dirty []memory.DirtyRange, check func(*site, []memory.DirtyRange) error) ([]bool, error) {
	stale := make([]bool, len(r.jobs))
	err := overlapped(r.sites, dirty, func(s *site, rs []memory.DirtyRange) error {
		stale[s.job] = true
		if check != nil {
			return check(s, rs)
		}
		return nil
	})
	return stale, err
}

// sameSection reports whether two sections, a scanned by sa and b by sb,
// hold exactly the same blocks in the same order, the same live variables,
// and the same recorded references: then only their bytes can tell their
// bodies apart.
func sameSection(a *sectionJob, sa *refScan, b *sectionJob, sb *refScan) bool {
	if len(a.blocks) != len(b.blocks) || !slices.Equal(a.live, b.live) || !slices.Equal(a.liveRefs, b.liveRefs) {
		return false
	}
	for i, mb := range a.blocks {
		if mb.b != b.blocks[i].b {
			return false
		}
		ra, _ := sa.member(mb) // a span-only scan visits nothing, so it cannot fail
		if rb, _ := sb.member(b.blocks[i]); !slices.Equal(ra, rb) {
			return false
		}
	}
	return true
}

// equal reports whether two root sets name the same frames, live variables
// and globals.
func (r Roots) equal(o Roots) bool {
	return slices.EqualFunc(r.FrameLive, o.FrameLive, slices.Equal[[]memory.Address]) &&
		slices.Equal(r.Globals, o.Globals)
}

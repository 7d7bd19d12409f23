package vm

// Live pre-copy capture (the source side of the live round exchange).
//
// A stop-and-copy migration pays the whole capture+wire+restore time as
// downtime. The pre-copy loop instead captures the process repeatedly
// while it keeps running between poll points:
//
//	round 0   full sectioned capture, process resumes while it ships
//	round k   delta capture — only the sections the dirty set touched
//	          re-encode (collect.EncodeSections with this capture's
//	          tracker); the process resumes
//	final     process stays stopped; the last delta is the only state
//	          the downtime window has to move
//
// A LiveCapture owns the per-process machinery: it turns the memory
// layer's write barrier on, carries the collect.DeltaTracker from round
// to round, and advances the dirty watermark after every capture. A round
// reads the dirty set once, as the ranges written since the watermark
// (memory.Space.DirtyRangesSince): their count is the round's DirtyBlocks,
// and the tracker maps them to the blocks and sections they overlap. When
// no block was registered or unregistered, the live set is the same and
// every overwritten pointer still resolves as before, the tracker keeps
// the previous round's partition instead of walking every reachable block
// again, so a round after the first costs what the program dirtied
// (collect/delta.go states the rule). Each round yields the full section
// list in the deterministic sectioned order —
// clean sections carry their cached bodies, and say which section of the
// previous round they were. Content hashes are not this package's
// business: the transport names the list by them when it builds the
// round's manifest, hashing only the re-encoded bodies and copying the
// previous round's entry for the rest (store.EntriesFrom), and ships only
// the bodies the destination lacks. The destination applies every round
// into one process shell as it arrives (Restore) and rebuilds the frames
// from the final one.

import (
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/snapshot"
)

// LiveRound is one delta capture of the pre-copy loop.
type LiveRound struct {
	// Sections lists every section of the process state in the
	// deterministic sectioned snapshot order: exec, heap components,
	// frames innermost-first, globals. Bodies are owned by the capture's delta
	// tracker and stay valid across rounds (the sender may still be
	// shipping a round while the next one is captured), but must not be
	// mutated.
	Sections []snapshot.Section
	// From[i] is the index in the previous round's Sections of the section
	// whose body section i carries over without re-encoding, or -1 when
	// this round encoded it.
	From []int
	// DirtyBlocks is the size of the dirty set this round observed —
	// the blocks written since the previous round's capture (0 for
	// round 0, where everything is new).
	DirtyBlocks int
	Elapsed     time.Duration
}

// LiveCapture drives the delta captures of one pre-copy migration. It
// is bound to one stopped-and-resumable process (NoAutoCapture mode);
// Close turns the write barrier back off.
type LiveCapture struct {
	p      *Process
	dt     *collect.DeltaTracker
	since  uint64 // dirty watermark: writes at or after this generation are unshipped
	rounds int
}

// NewLiveCapture prepares a process for pre-copy rounds: the write
// barrier turns on (round 0 ships everything, so earlier writes need no
// tracking) and the delta cache starts empty. The parameter is inert, as
// CaptureSections' is, and stays for the same reason.
func (p *Process) NewLiveCapture(_ int) *LiveCapture {
	p.Space.StartDirtyTracking()
	return &LiveCapture{p: p, dt: collect.NewDeltaTracker()}
}

// Close ends the pre-copy sequence, turning the write barrier off. The
// process is unchanged otherwise; after a final round it remains
// stopped at its site and can be captured or resumed like any stopped
// process.
func (lc *LiveCapture) Close() {
	lc.p.Space.StopDirtyTracking()
}

// Rounds returns the number of rounds captured so far.
func (lc *LiveCapture) Rounds() int { return lc.rounds }

// DirtyBlocks returns the current size of the unshipped dirty set —
// the blocks written since the last Round. The driver polls this
// between rounds to decide whether the loop is converging.
func (lc *LiveCapture) DirtyBlocks() int {
	if lc.since == 0 {
		return 0
	}
	return lc.p.Space.DirtySince(lc.since)
}

// Round captures one pre-copy round at the site the process is stopped
// at. Round 0 encodes every section; later rounds re-encode only what
// the dirty set touched and carry the rest over from the cache. The
// concatenation of the returned sections (snapshot framing, manifest
// order) is byte-identical to CaptureSections of the same stopped
// state.
func (lc *LiveCapture) Round() (*LiveRound, error) {
	p := lc.p
	start := time.Now()
	round := &LiveRound{}
	var dirty []memory.DirtyRange
	if lc.since > 0 {
		dirty = p.Space.DirtyRangesSince(lc.since)
		round.DirtyBlocks = len(dirty)
	}
	mDirtyBlocks.Set(int64(round.DirtyBlocks))

	// Every body is owned by the tracker, so there is nothing to release.
	secs, from, _, err := p.captureSectionList(lc.dt, dirty)
	if err != nil {
		return nil, err
	}
	round.Sections, round.From = secs, from

	// Move the watermark: writes from here on belong to the next round.
	lc.since = p.Space.AdvanceGeneration()
	lc.rounds++
	round.Elapsed = time.Since(start)
	return round, nil
}

// Snapshot frames a round's sections into a complete sectioned snapshot,
// byte-identical to CaptureSections of the same stopped state.
func (r *LiveRound) Snapshot() []byte { return snapshot.Encode(r.Sections) }

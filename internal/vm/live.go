package vm

// Delta capture: the source side of every round exchange, and of every
// checkpoint after a process's first.
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
// previous round they were. A keyed capture also names every section by
// its content key: a carried-over body copies the key the previous round
// gave it, and only a re-encoded body is hashed, by the key function the
// caller supplies (the hash itself is not this package's business). The
// destination applies every round into one process shell as it arrives
// (Restore) and rebuilds the frames from the final one.
//
// A warm checkpoint is the same capture held across calls. A process
// keeps one keyed capture from its first store checkpoint on
// (Process.Checkpoint), so each later checkpoint, a warm migration's
// included, re-encodes and re-hashes only what was written since the one
// before. The kept capture holds one state's bodies between checkpoints
// and keeps the write barrier on. Three events discard it, so the next
// checkpoint is a full one: a live capture starting on the process (which
// restarts the barrier's generations), any restore into it, and a round
// that fails.

import (
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/snapshot"
)

// LiveRound is one delta capture: a pre-copy round, or a checkpoint.
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
	// Sums[i] is section i's content key when the capture is keyed (nil
	// otherwise).
	Sums    []Sum
	Elapsed time.Duration
}

// LiveCapture drives the delta captures of one pre-copy migration, or
// the checkpoints of one process (Checkpoint). It is bound to one
// stopped-and-resumable process (NoAutoCapture mode); Close turns the
// write barrier back off.
type LiveCapture struct {
	p      *Process
	dt     *collect.DeltaTracker
	key    func([]byte) Sum // names a re-encoded body; nil leaves Sums unset
	sums   []Sum            // the previous round's keys
	since  uint64           // dirty watermark: writes at or after this generation are unshipped
	rounds int
}

// NewLiveCapture prepares a process for pre-copy rounds: the write
// barrier turns on (round 0 ships everything, so earlier writes need no
// tracking) and the delta cache starts empty. Restarting the barrier
// discards the process's kept checkpoint capture. The parameter is inert,
// as CaptureSections' is, and stays for the same reason.
func (p *Process) NewLiveCapture(_ int) *LiveCapture {
	p.discardCheckpoint()
	p.Space.StartDirtyTracking()
	return &LiveCapture{p: p, dt: collect.NewDeltaTracker()}
}

// KeyBy makes every later round name its sections by content key
// (LiveRound.Sums), hashing a body with key only when the round
// re-encoded it.
func (lc *LiveCapture) KeyBy(key func([]byte) Sum) { lc.key = key }

// Checkpoint captures the stopped process for a store checkpoint as the
// next round of the capture it keeps between checkpoints, keyed by key.
// The first call, and the first after the kept capture was discarded,
// encodes and keys every section.
func (p *Process) Checkpoint(key func([]byte) Sum) (*LiveRound, error) {
	if p.kept == nil {
		p.kept = p.NewLiveCapture(0)
		p.kept.KeyBy(key)
	}
	r, err := p.kept.Round()
	if err != nil {
		p.discardCheckpoint()
	}
	return r, err
}

// discardCheckpoint drops the kept checkpoint capture, if any, and turns
// the write barrier off; the next Checkpoint is a full one.
func (p *Process) discardCheckpoint() {
	p.kept = nil
	p.Space.StopDirtyTracking()
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
	if lc.key != nil {
		round.Sums = make([]Sum, len(secs))
		for i, f := range from {
			if f >= 0 {
				round.Sums[i] = lc.sums[f]
			} else {
				round.Sums[i] = lc.key(secs[i].Body)
			}
		}
		lc.sums = round.Sums
	}

	// Move the watermark: writes from here on belong to the next round.
	lc.since = p.Space.AdvanceGeneration()
	lc.rounds++
	round.Elapsed = time.Since(start)
	return round, nil
}

// Snapshot frames a round's sections into a complete sectioned snapshot,
// byte-identical to CaptureSections of the same stopped state.
func (r *LiveRound) Snapshot() []byte { return snapshot.Encode(r.Sections) }

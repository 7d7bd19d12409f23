package vm

// Delta capture: the source side of every round exchange, and of every
// checkpoint after a process's first.
//
// A stop-and-copy migration pays the whole capture+wire+restore time as
// downtime. The pre-copy loop instead captures the process repeatedly
// while it keeps running between poll points:
//
//	round 0   full sectioned capture (a delta when the process already
//	          keeps a capture), process resumes while it ships
//	round k   delta capture — only the sections the dirty set touched
//	          re-encode (collect.Walk with this capture's tracker);
//	          the process resumes
//	final     process stays stopped; the last delta is the only state
//	          the downtime window has to move
//
// A process keeps at most one LiveCapture, created by its first Round
// (Process.Round). It turns the memory layer's write barrier on, carries
// the collect.DeltaTracker from round to round, and advances the dirty
// watermark after every capture. A round reads the dirty set once, as the
// ranges written since the watermark (memory.Space.DirtyRangesSince):
// their count is the round's DirtyBlocks, and the tracker maps them to the
// blocks and sections they overlap. When no block was registered or
// unregistered, the live set is the same and every overwritten pointer
// still resolves as before, the tracker keeps the previous round's
// partition instead of walking every reachable block again, so a round
// after the first costs what the program dirtied (collect/delta.go states
// the rule). Each round yields the full section list in the deterministic
// sectioned order — clean sections carry their cached bodies, and say
// which section of the previous round they were. The destination applies
// every round into one process shell as it arrives (Restore) and rebuilds
// the frames from the final one.
//
// Every round the process is captured for is the next round of that one
// capture: each pre-copy round of a live session, round 0 included, each
// warm transfer and each store checkpoint. So a live session after a
// checkpoint, or a checkpoint after a live session, re-encodes only what
// was written since the round before, whoever took it. A keyed round also
// names every section by its content key, with the key function the
// caller supplies (the hash itself is not this package's business): a
// carried-over body copies the key the previous round gave it, and only a
// body it has no key for — re-encoded now, or carried over from an
// unkeyed round — is hashed. The capture holds one state's bodies between
// rounds and keeps the write barrier on. Two events discard it, so the
// next round is a full one: any restore into the process, and a round
// that fails.

import (
	"time"

	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// LiveRound is one round of a process's delta capture: a pre-copy round,
// a warm transfer's round, or a checkpoint.
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
	// the blocks written since the previous round's capture (0 for a
	// capture's first round, where everything is new).
	DirtyBlocks int
	// Sums[i] is section i's content key when the round is keyed (nil
	// otherwise).
	Sums    []Sum
	Elapsed time.Duration
}

// LiveCapture is the delta capture a process keeps between rounds
// (Process.Round). It is bound to one stopped-and-resumable process.
type LiveCapture struct {
	p     *Process
	dt    *collect.DeltaTracker
	sums  []Sum  // the previous round's keys; nil after an unkeyed round
	since uint64 // dirty watermark: writes at or after this generation are unshipped
}

// NewLiveCapture replaces the process's capture with a fresh one, so the
// next round encodes every section. The parameter is inert, as
// CaptureSections' is, and the method and its LiveCapture shims stay for
// the same reason.
func (p *Process) NewLiveCapture(_ int) *LiveCapture {
	p.discardCapture()
	p.Space.StartDirtyTracking()
	p.capture = &LiveCapture{p: p, dt: collect.NewDeltaTracker()}
	return p.capture
}

// Round captures the process at the site it is stopped at as the next
// round of the capture it keeps, keyed by key when key is not nil. The
// first round, and the first after the capture was discarded, encodes
// every section (and keys it); a later one re-encodes only what the dirty
// set touched and carries the rest over. The concatenation of the
// returned sections (snapshot framing, manifest order) is byte-identical
// to CaptureSections of the same stopped state. A round that fails
// discards the capture and turns the write barrier off.
func (p *Process) Round(key func([]byte) Sum) (*LiveRound, error) {
	if p.capture == nil {
		p.NewLiveCapture(0)
	}
	lc := p.capture
	start := time.Now()
	round := &LiveRound{}
	var dirty []memory.DirtyRange
	if lc.since > 0 {
		dirty = p.Space.DirtyRangesSince(lc.since)
		round.DirtyBlocks = len(dirty)
	}
	mDirtyBlocks.Set(int64(round.DirtyBlocks))

	// The tracker's previous round and the ranges written since it let the
	// bodies those ranges cannot have touched carry over; every other body
	// is encoded whole, into a buffer of exactly its size. The tracker
	// keeps them all for the next round.
	c, err := p.beginCapture(lc.dt, dirty)
	if err != nil {
		p.discardCapture()
		return nil, err
	}
	defer c.span.End()
	round.Sections, round.From = []snapshot.Section{{Kind: snapshot.KindExec, Body: c.exec}}, []int{-1}
	bodies := make([][]byte, len(c.lay.Sizes))
	if err := obs.Phase("collect", func() error {
		for i := range c.lay.Sizes {
			f := c.lay.From[i]
			if f >= 0 {
				bodies[i], f = c.lay.Carried(i), f+1 // the previous round's list opened with its exec section too
			} else if err := c.encode(i, func() (d time.Duration, err error) {
				bodies[i], d, err = c.lay.Body(i)
				return d, err
			}); err != nil {
				return err
			}
			kind, id := c.section(i)
			round.Sections, round.From = append(round.Sections, snapshot.Section{Kind: kind, ID: id, Body: bodies[i]}), append(round.From, f)
		}
		return nil
	}); err != nil {
		p.discardCapture()
		return nil, err
	}
	c.lay.Fold(bodies)
	c.end()
	if key != nil {
		round.Sums = make([]Sum, len(round.Sections))
		for i, f := range round.From {
			if f >= 0 && lc.sums != nil {
				round.Sums[i] = lc.sums[f]
			} else {
				round.Sums[i] = key(round.Sections[i].Body)
			}
		}
	}
	lc.sums = round.Sums

	// Move the watermark: writes from here on belong to the next round.
	lc.since = p.Space.AdvanceGeneration()
	round.Elapsed = time.Since(start)
	return round, nil
}

// DirtyBlocks returns the current size of the unshipped dirty set — the
// blocks written since the last Round. The pre-copy driver polls this
// between rounds to decide whether the loop is converging.
func (p *Process) DirtyBlocks() int {
	if p.capture == nil || p.capture.since == 0 {
		return 0
	}
	return p.Space.DirtySince(p.capture.since)
}

// discardCapture drops the kept capture, if any, and turns the write
// barrier off; the next Round is a full one.
func (p *Process) discardCapture() {
	p.capture = nil
	p.Space.StopDirtyTracking()
}

// Round is the process's next unkeyed round.
func (lc *LiveCapture) Round() (*LiveRound, error) { return lc.p.Round(nil) }

// DirtyBlocks is the process's DirtyBlocks.
func (lc *LiveCapture) DirtyBlocks() int { return lc.p.DirtyBlocks() }

// Close discards the process's capture, turning the write barrier off.
// The process is unchanged otherwise; after a final round it remains
// stopped at its site and can be captured or resumed like any stopped
// process.
func (lc *LiveCapture) Close() { lc.p.discardCapture() }

// Snapshot frames a round's sections into a complete sectioned snapshot,
// byte-identical to CaptureSections of the same stopped state.
func (r *LiveRound) Snapshot() []byte { return snapshot.Encode(r.Sections) }

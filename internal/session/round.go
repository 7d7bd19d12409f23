package session

// The round exchange: how a process state crosses when the receiver may
// already hold part of it.
//
// Each round is one ANNOUNCE listing every section of the paused state and
// one BODIES frame. How the list names a body depends on the store:
//
//   - when the responder holds a store (a warm transfer needs one on both
//     ends), by content: the ANNOUNCE is a manifest of (kind, id, length,
//     sha256) entries, the responder answers WANT with the indices whose
//     bodies it cannot resolve from the process shell it restores into or
//     from its checkpoint store, and BODIES carries exactly those;
//   - without, by position: the entries are (kind, id, length, from, crc),
//     from naming the section of the previous round's list whose body the
//     entry carries over (-1: re-encoded this round), and BODIES follows
//     the ANNOUNCE unasked with the from = -1 bodies, in list order. The
//     responder holds exactly what this session sent it, so the source
//     knows what it lacks; it holds each body under the (round, index) that
//     first shipped it, and checks each arriving body against its entry's
//     length and CRC-32. Nothing is hashed with SHA-256 and nothing waits
//     for a WANT.
//
// A round is its sections on both sides, and no framed snapshot exists
// anywhere on this path: the responder applies every round's list into one
// vm.Restore as it arrives — heap components at once, reconciled with the
// previous round's — and only the final round rebuilds the frames and
// fills the variables, so the restore left inside the downtime window is
// the final round's own sections.
//
// Every round's list, round 0 of a live session included, is the next
// round of the one delta capture the source process keeps
// (vm.Process.Round), keyed by content hash when the responder holds a
// store: it re-encodes, and hashes or checksums, only what was written
// since the process's previous round, whichever session or checkpoint took
// it. A warm migration is one final round of it, which the initiator's
// store writes while the round is exchanged, and which the initiator joins
// before it commits (store.BeginCheckpoint). A live migration is the same
// exchange repeated while the source executes:
//
//	round 0     the paused image ships while the source executes to its
//	            next poll point, and is applied on arrival
//	round 1..N  only the sections the dirty set touched re-encode, and
//	            only those are checksummed; each round ships, and is
//	            applied, while the source runs on
//	final       the source stays paused; the last (small) delta is all
//	            the downtime window has to move and to restore
//
// The loop converges (or is cut off) on the source: the next round is
// final once the unshipped dirty set drops to Config.DirtyThreshold
// blocks, Config.PrecopyRounds deltas have shipped, or the dirty set
// stops shrinking (a write rate the link cannot outrun — more rounds
// would burn bandwidth without buying downtime). In the worst case the
// transfer degrades to a full copy plus one delta round, never worse.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
)

// WarmStats is the dedup outcome of one warm transfer: how much of the
// snapshot never crossed the wire because the destination's store already
// held it.
type WarmStats struct {
	// ManifestHash is the content address of the checkpoint the transfer
	// shipped; both stores hold it (and its chain position) afterwards.
	ManifestHash store.Hash
	// Sections is the snapshot's section count; SectionsSent of them had
	// bodies the destination lacked and were transferred.
	Sections     int
	SectionsSent int
	// SnapshotBytes is the full sectioned snapshot size a cold transfer
	// would have carried; WireBytes is what the round actually put on the
	// wire (the announce frame plus the bodies frame).
	SnapshotBytes int
	WireBytes     int
}

func (w WarmStats) String() string {
	return fmt.Sprintf("checkpoint %s: sent %d of %d sections, %d of %d bytes on the wire",
		w.ManifestHash.Short(), w.SectionsSent, w.Sections, w.WireBytes, w.SnapshotBytes)
}

// LiveRoundStats describes one round as seen by either side.
type LiveRoundStats struct {
	// Round numbers the rounds from 0 (the full image).
	Round int
	// DirtyBlocks is the dirty-set size the source observed entering the
	// round (0 for the first round of the source's capture).
	DirtyBlocks int
	// Sections is the announced list's length; SectionsSent of them had
	// bodies the responder could not resolve and crossed the wire.
	Sections     int
	SectionsSent int
	// Bytes is the wire size of the round's announce and bodies frames.
	Bytes int
	// Final marks the round the source stayed paused for.
	Final bool
}

// LiveStats is the outcome of one live transfer.
type LiveStats struct {
	// Rounds holds one entry per round, in order.
	Rounds []LiveRoundStats
	// SnapshotBytes is the assembled final snapshot's size — what a
	// stop-and-copy transfer of the paused state would have carried;
	// WireBytes is the cumulative wire size of every round.
	SnapshotBytes int
	WireBytes     int
	// Downtime is the source-measured window from the final pause to the
	// responder's RESTORED confirmation (zero on the responder side).
	Downtime time.Duration
	// StopReason records why the pre-copy loop ended: "threshold" (dirty
	// set at or below the configured floor), "rounds" (round budget
	// spent), or "stalled" (dirty set stopped shrinking); empty when no
	// pre-copy round ran.
	StopReason string

	// paused is the instant of the source's final pause, from which the
	// initiator measures Downtime.
	paused time.Time
}

// TotalSent sums the sections that crossed the wire over all rounds.
func (s *LiveStats) TotalSent() int {
	n := 0
	for _, r := range s.Rounds {
		n += r.SectionsSent
	}
	return n
}

// record appends one completed round to the transfer's accounting and its
// flight recording: both sides describe a round by the same six figures.
func (s *LiveStats) record(rec *obs.FlightRecorder, verb string, round, dirty, sections, sent, bytes int, final bool) {
	r := LiveRoundStats{Round: round, DirtyBlocks: dirty, Sections: sections, SectionsSent: sent, Bytes: bytes, Final: final}
	s.Rounds = append(s.Rounds, r)
	s.WireBytes += r.Bytes
	tag := ""
	if r.Final {
		tag = " (final)"
	}
	rec.Record("session.round", "round %d%s: dirty %d blocks, %s %d of %d sections (%d bytes on wire)",
		r.Round, tag, r.DirtyBlocks, verb, r.SectionsSent, r.Sections, r.Bytes)
}

// finish closes the accounting of a completed exchange with the size the
// final list — the manifest m, or the pushed entries — frames to and, for a
// warm transfer, restates its one round as WarmStats (nil otherwise).
func (s *LiveStats) finish(m *store.Manifest, pushed []entry, warm bool) *WarmStats {
	if m != nil {
		s.SnapshotBytes = m.SnapshotBytes()
	} else {
		s.SnapshotBytes = snapshot.PrologueSize
		for _, en := range pushed {
			s.SnapshotBytes += snapshot.SectionSize(int(en.length))
		}
	}
	if !warm {
		return nil
	}
	last := s.Rounds[len(s.Rounds)-1]
	return &WarmStats{
		ManifestHash:  m.Hash(),
		Sections:      last.Sections,
		SectionsSent:  last.SectionsSent,
		SnapshotBytes: s.SnapshotBytes,
		WireBytes:     s.WireBytes,
	}
}

// round is one paused state ready to be announced: its sections, the list
// that names them — a manifest by content hash when the responder holds a
// store, else pushed entries by position — and what producing it cost.
type round struct {
	secs     []snapshot.Section
	manifest *store.Manifest
	pushed   []entry
	dirty    int
	collect  time.Duration
}

// push lists secs by position. A body carried over from the previous
// round's list (from[i] >= 0) takes that entry's CRC along; only a body
// encoded this round is checksummed, and those are the bodies that follow
// the list, in list order — the wanted set both ends derive from it. A
// session's first list (prev nil) ships and checksums every body: its from
// can name a round of the process's capture the responder never saw.
func push(secs []snapshot.Section, prev []entry, from []int) []entry {
	list := make([]entry, len(secs))
	for i, sec := range secs {
		list[i] = entry{kind: sec.Kind, id: sec.ID, length: uint32(len(sec.Body)), from: -1}
		if f := from[i]; f >= 0 && prev != nil {
			list[i].from, list[i].crc = int32(f), prev[f].crc
		} else {
			list[i].crc = checksum(sec.Body)
		}
	}
	return list
}

// checksum is the CRC-32 a pushed entry carries for its body, counted with
// the program's other integrity passes.
func checksum(body []byte) uint32 {
	obs.CRC32Bytes.Add(int64(len(body)))
	return crc32.ChecksumIEEE(body)
}

// sendRound runs the source half of one round and appends the round's
// accounting to st. It touches only the round's immutable sections, never
// the process, so it may run while the source executes.
func sendRound(t link.Transport, r *round, final bool, rec *obs.FlightRecorder, st *LiveStats) error {
	var flags uint32
	if final {
		flags |= announceFinal
	}
	announce := marshalAnnounce(uint32(len(st.Rounds)), flags, r.dirty, r.manifest, r.pushed)
	if err := t.Send(announce); err != nil {
		return fmt.Errorf("session: announce send: %w", err)
	}
	var send []uint32
	if r.manifest == nil {
		for i, en := range r.pushed {
			if en.from < 0 {
				send = append(send, uint32(i))
			}
		}
	} else {
		want, _, err := recvMessage(t, wire.Want)
		if err != nil {
			return err
		}
		// A responder lists what it lacks in list order, so anything but
		// strictly increasing indices inside the list is refused before a
		// body is gathered: a WANT that repeats itself would size the BODIES
		// frame by its own length, not by the state's.
		for k, idx := range want.indices {
			if int(idx) >= len(r.secs) || (k > 0 && idx <= want.indices[k-1]) {
				return fmt.Errorf("%w: WANT index %d out of range or out of order", ErrProtocol, idx)
			}
		}
		send = want.indices
	}
	bodies := make([][]byte, len(send))
	for k, idx := range send {
		bodies[k] = r.secs[idx].Body
	}
	frame := marshalBodies(send, bodies)
	if err := obs.Phase("transport", func() error { return t.Send(frame) }); err != nil {
		return fmt.Errorf("session: bodies send: %w", err)
	}
	st.record(rec, "sent", len(st.Rounds), r.dirty, len(r.secs), len(send), len(announce)+len(frame), final)
	return nil
}

// sendRounds is the source side of the round exchange. A warm transfer, a
// live transfer of a process that cannot resume, and the tail of every
// live transfer are the same thing: one final round from the paused state.
// Only a live session over a resumable process (NoAutoCapture mode) first
// runs pre-copy rounds, resuming the source while each one ships.
//
// When the source runs to completion between rounds there is nothing left
// to migrate: the responder is told to stand down and ErrSourceExited is
// returned.
//
// The accounting lands in res as it accrues: Timing, the per-round
// LiveStats of a live transfer (filled as far as it got when the transfer
// fails) and the WarmStats of a warm one.
func sendRounds(t link.Transport, e *core.Engine, src *arch.Machine, program string, p *vm.Process, cfg Config, res *Result) error {
	prm, timing := res.Params, &res.Timing
	st := &LiveStats{paused: time.Now()}
	if prm.Live {
		res.Live = st
	}
	// Every round's list is the next round of the capture the process
	// keeps; a warm transfer's round is also checkpointed under the
	// program's ref (dedup'd against the store's history) while it is
	// exchanged. What tells the shapes apart is how a list names its
	// bodies: by content hash when the responder holds a store, else by
	// position. Either way a carried-over body takes the hash or the CRC
	// the previous list gave it, so a paused source hashes or checksums
	// only what it has no name for: what it re-encoded, every body of a
	// session's first pushed list, and every carried body of a keyed round
	// after an unkeyed one.
	var key func([]byte) vm.Sum
	if prm.Warm {
		key = store.Key
	}
	var prevPushed []entry
	next := func() (*round, error) {
		lr, err := p.Round(key)
		if err != nil {
			return nil, err
		}
		r := &round{secs: lr.Sections, dirty: lr.DirtyBlocks, collect: lr.Elapsed}
		switch {
		case !prm.Warm:
			r.pushed = push(r.secs, prevPushed, lr.From)
			prevPushed = r.pushed
		case !prm.Live:
			if r.manifest, res.stored, err = cfg.Store.BeginCheckpoint(program, r.secs, lr.Sums, e.Digest(), src.Name); err != nil {
				return nil, err
			}
		default:
			r.manifest = &store.Manifest{ProgramDigest: e.Digest(), Machine: src.Name, Seq: 1, Entries: store.Entries(r.secs, lr.Sums)}
		}
		timing.Collect += r.collect
		return r, nil
	}
	shipped := func() {
		if prm.Live {
			cfg.metrics().Counter("session.precopy.rounds").Inc()
			cfg.metrics().Counter("session.precopy.bytes").Add(int64(st.Rounds[len(st.Rounds)-1].Bytes))
		}
	}

	r, err := next()
	if err != nil {
		return err
	}
	txStart := time.Now()
	prevDirty := int(^uint(0) >> 1)
	for precopy := prm.Live && p.NoAutoCapture; precopy; {
		// Ship the round while the source executes to its next poll.
		sendErr := make(chan error, 1)
		go func(r *round) { sendErr <- sendRound(t, r, false, cfg.Recorder, st) }(r)
		run, runErr := p.ResumeRun()
		serr := <-sendErr
		if runErr != nil {
			return runErr
		}
		st.paused = time.Now()
		if !run.Migrated {
			// The finished local run IS the surviving copy, so
			// ErrSourceExited wins no matter what the wire did meanwhile.
			// Stand the responder down best-effort — a dead transport
			// discards the partial restore on its own (the responder
			// classifies it as a transport failure), and a failed abort
			// send must not turn a completed execution into a rollback
			// attempt on a process that has nothing left to resume.
			cfg.Recorder.Record("session.round", "source exited (code %d) after %d rounds; aborting", run.ExitCode, len(st.Rounds))
			if serr == nil {
				serr = t.Send(marshalReason(wire.Abort, fmt.Sprintf("source ran to completion (exit %d)", run.ExitCode)))
			}
			if serr != nil {
				cfg.Recorder.Record("session.round", "responder not stood down cleanly: %v", serr)
			}
			return ErrSourceExited
		}
		if serr != nil {
			return serr
		}
		shipped()
		dirty := p.DirtyBlocks()
		switch {
		case dirty <= cfg.DirtyThreshold:
			st.StopReason = "threshold"
		case len(st.Rounds) > cfg.PrecopyRounds:
			st.StopReason = "rounds"
		case dirty >= prevDirty:
			st.StopReason = "stalled"
		}
		prevDirty = dirty
		precopy = st.StopReason == ""
		if r, err = next(); err != nil {
			return err
		}
	}

	// The final round: the source stays paused from here to RESTORED.
	if err := sendRound(t, r, true, cfg.Recorder, st); err != nil {
		return err
	}
	shipped()
	res.Warm = st.finish(r.manifest, r.pushed, prm.Warm && !prm.Live)
	timing.Tx, timing.Bytes = time.Since(txStart), st.WireBytes
	return nil
}

// receiveRounds is the responder side of the round exchange, for however
// many rounds the initiator drives: resolve what each ANNOUNCE lists, ask
// for the rest when the list names bodies by content, verify what arrives,
// and apply the round into one process shell at once; on the final round
// finish the restore. The accounting lands in info as it accrues, as
// sendRounds' does in its Result.
func receiveRounds(t link.Transport, reg *Registry, e *core.Engine, mach *arch.Machine, cfg Config, info *Info) (*vm.Restore, core.Timing, error) {
	prm, st := info.Params, new(LiveStats)
	if prm.Live {
		info.Live = st
	}
	// The shell exists before round 0 and every round lands in it as it
	// arrives, so the final round restores only what it carries. A body the
	// shell holds under the key the source re-announces never crosses the
	// wire twice, and whatever the latest ANNOUNCE no longer lists leaves it:
	// the shell holds one state's worth however many rounds the initiator
	// chooses to run. A session naming bodies by content starts from the
	// fork of the program's last warm restore when the registry keeps one,
	// so its first round too restores only what changed since.
	p, err := reg.shell(e, mach, prm.Warm)
	if err != nil {
		return nil, core.Timing{}, err
	}
	p.Obs = cfg.Trace
	shell := p.NewRestore()
	// A pushed list is resolved against the previous one and the keys its
	// sections are held under.
	var prev []entry
	var held []vm.Sum
	for {
		ann, n, err := recvMessage(t, wire.Announce)
		if err != nil {
			return nil, core.Timing{}, err
		}
		m := ann.manifest
		if (m != nil) != prm.Warm {
			return nil, core.Timing{}, fmt.Errorf("%w: ANNOUNCE does not name its bodies as the session negotiated", ErrProtocol)
		}
		var secs []snapshot.Section
		var sums []vm.Sum
		var want []uint32
		var wanted []store.Hash
		if !prm.Warm {
			if secs, sums, want, err = positions(ann.pushed, prev, held, len(st.Rounds)); err != nil {
				return nil, core.Timing{}, err
			}
		} else {
			if m.ProgramDigest != e.Digest() {
				return nil, core.Timing{}, fmt.Errorf("%w: announce has program digest %08x, registry matched %08x",
					core.ErrProgramMismatch, m.ProgramDigest, e.Digest())
			}
			// Resolve every body we can locally — the shell first, then the
			// checkpoint store, which re-verifies the content address on the
			// way out. A blob the store cannot vouch for is asked for again.
			// The shell resolves only what the store also holds at its
			// announced length, so the manifest and ref this round writes
			// name no missing blob.
			secs, sums = make([]snapshot.Section, len(m.Entries)), make([]vm.Sum, len(m.Entries))
			for i, en := range m.Entries {
				secs[i], sums[i] = snapshot.Section{Kind: en.Kind, ID: en.ID}, en.Hash
				if shell.Holds(en.Kind, en.Hash) && cfg.Store.HoldsBlob(en.Hash, int64(en.Length)) {
					continue
				}
				if blob, err := cfg.Store.GetBlob(en.Hash); err == nil {
					secs[i].Body = blob
					continue
				}
				want = append(want, uint32(i))
			}
			if err := t.Send(marshalWant(want)); err != nil {
				return nil, core.Timing{}, fmt.Errorf("session: want send: %w", err)
			}
		}
		got, bn, err := recvMessage(t, wire.Bodies)
		if err != nil {
			return nil, core.Timing{}, err
		}
		if len(got.indices) != len(want) {
			return nil, core.Timing{}, fmt.Errorf("%w: BODIES carries %d sections, wanted %d", ErrProtocol, len(got.indices), len(want))
		}
		for k, idx := range got.indices {
			if idx != want[k] {
				return nil, core.Timing{}, fmt.Errorf("%w: BODIES section %d answers index %d, wanted %d", ErrProtocol, k, idx, want[k])
			}
			// The announce promised a body of this length and CRC or content
			// address; verify before admitting it, so a damaged round
			// surfaces here, not at restore.
			body := got.bodies[k]
			if !prm.Warm {
				if en := ann.pushed[idx]; uint32(len(body)) != en.length || checksum(body) != en.crc {
					return nil, core.Timing{}, fmt.Errorf("%w: section %d body does not match its announced length and CRC",
						collect.ErrCorruptStream, idx)
				}
			} else {
				en := m.Entries[idx]
				if uint32(len(body)) != en.Length || store.HashBytes(body) != en.Hash {
					return nil, core.Timing{}, fmt.Errorf("%w: section %d body does not match its announced length and hash",
						store.ErrCorrupt, idx)
				}
				wanted = append(wanted, en.Hash)
			}
			secs[idx].Body = body
		}
		final := ann.flags&announceFinal != 0
		st.record(cfg.Recorder, "received", int(ann.round), int(ann.dirty), len(secs), len(want), n+bn, final)
		// The verified bodies enter the store while the round is applied,
		// and are in it before anything names them.
		stored := cfg.Store.BeginOverwrite(wanted, got.bodies)
		if err := errors.Join(shell.Apply(secs, sums), stored.Wait()); err != nil {
			return nil, core.Timing{}, err
		}
		prev, held = ann.pushed, sums
		if !final {
			continue
		}

		info.Warm = st.finish(m, ann.pushed, prm.Warm && !prm.Live)
		if err := shell.Finish(); err != nil {
			return nil, core.Timing{}, err
		}
		// The program's ref names the checkpoint this node last restored,
		// so it advances only after the restore succeeded.
		if prm.Warm {
			if err := cfg.Store.Adopt(info.Program, m); err != nil {
				return nil, core.Timing{}, err
			}
		}
		return shell, core.Timing{Restore: p.RestoreElapsed(), Bytes: st.WireBytes}, nil
	}
}

// positions names round k's pushed list for the shell, whose previous
// list prev it holds under the keys held. A body shipped now is keyed by
// (k, its index) and wanted, in list order; a carried-over one keeps the
// key of the round and index that first shipped it. An entry may carry
// over only a section of the previous list that no other entry carries
// over, and must repeat its kind, length and CRC.
func positions(list, prev []entry, held []vm.Sum, k int) (secs []snapshot.Section, sums []vm.Sum, want []uint32, err error) {
	secs, sums = make([]snapshot.Section, len(list)), make([]vm.Sum, len(list))
	carried := make([]bool, len(prev))
	for i, en := range list {
		secs[i] = snapshot.Section{Kind: en.kind, ID: en.id}
		if f := int(en.from); f == -1 {
			binary.BigEndian.PutUint64(sums[i][:], uint64(k)<<32|uint64(i))
			want = append(want, uint32(i))
		} else if f < 0 || f >= len(prev) || carried[f] || en.kind != prev[f].kind || en.length != prev[f].length || en.crc != prev[f].crc {
			return nil, nil, nil, fmt.Errorf("%w: entry %d carries over section %d, which the previous %d-section list does not hold as announced or another entry carries",
				ErrProtocol, i, f, len(prev))
		} else {
			carried[f], sums[i] = true, held[f]
		}
	}
	return secs, sums, want, nil
}

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

// Exchange is the account of one round exchange, as either side saw it: a
// warm transfer's one round or every round of a live one. Its wire bytes
// are the side's Timing.Bytes, which accrues round by round.
type Exchange struct {
	// Rounds holds one entry per round, in order.
	Rounds []RoundStats
	// Sections and SectionsSent total the rounds' lists and the bodies that
	// crossed the wire because the responder could not resolve them.
	Sections     int
	SectionsSent int
	// SnapshotBytes is the size the final list frames to: what a cold
	// transfer of the same state would have carried.
	SnapshotBytes int
	// ManifestHash is the content address of the final list when the
	// bodies are named by content; the responder's store adopts it.
	ManifestHash store.Hash
	// Downtime is the window from the source's final pause to the
	// responder's RESTORED, and StopReason why the pre-copy loop ended:
	// "threshold" (dirty set at or below the floor), "rounds" (round budget
	// spent) or "stalled" (dirty set stopped shrinking). The initiator of a
	// live transfer sets both; they are zero elsewhere.
	Downtime   time.Duration
	StopReason string

	// paused is the instant of the source's final pause, from which the
	// initiator measures Downtime.
	paused time.Time
}

// RoundStats describes one round as seen by either side.
type RoundStats struct {
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

// String is the one-line summary both of migd's sides print.
func (x *Exchange) String() string {
	s := fmt.Sprintf("%d rounds, %d/%d sections shipped, %d-byte snapshot",
		len(x.Rounds), x.SectionsSent, x.Sections, x.SnapshotBytes)
	if x.ManifestHash != (store.Hash{}) {
		s += ", checkpoint " + x.ManifestHash.Short()
	}
	if x.StopReason != "" {
		s += fmt.Sprintf(", downtime %.4fs (%s)", x.Downtime.Seconds(), x.StopReason)
	}
	return s
}

// record appends one completed round to the exchange, its wire bytes to
// tm, and the round to the flight recording: both sides describe a round
// by the same six figures.
func (x *Exchange) record(rec *obs.FlightRecorder, verb string, r RoundStats, tm *core.Timing) {
	x.Rounds = append(x.Rounds, r)
	x.Sections += r.Sections
	x.SectionsSent += r.SectionsSent
	tm.Bytes += r.Bytes
	tag := ""
	if r.Final {
		tag = " (final)"
	}
	rec.Record("session.round", "round %d%s: dirty %d blocks, %s %d of %d sections (%d bytes on wire)",
		r.Round, tag, r.DirtyBlocks, verb, r.SectionsSent, r.Sections, r.Bytes)
}

// finish closes the account of a completed exchange with what the final
// list — the manifest m, or the pushed entries — names.
func (x *Exchange) finish(m *store.Manifest, pushed []entry) {
	if m != nil {
		x.SnapshotBytes, x.ManifestHash = m.SnapshotBytes(), m.Hash()
		return
	}
	x.SnapshotBytes = snapshot.PrologueSize
	for _, en := range pushed {
		x.SnapshotBytes += snapshot.SectionSize(int(en.length))
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

// sendRound runs the source half of one round and records it in x and tm.
// It touches only the round's immutable sections, never the process, so it
// may run while the source executes.
func sendRound(t link.Transport, r *round, final bool, rec *obs.FlightRecorder, x *Exchange, tm *core.Timing) error {
	var flags uint32
	if final {
		flags |= announceFinal
	}
	announce := marshalAnnounce(uint32(len(x.Rounds)), flags, r.dirty, r.manifest, r.pushed)
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
	x.record(rec, "sent", RoundStats{Round: len(x.Rounds), DirtyBlocks: r.dirty, Sections: len(r.secs),
		SectionsSent: len(send), Bytes: len(announce) + len(frame), Final: final}, tm)
	return nil
}

// sendRounds is the source side of the round exchange. A warm transfer and
// the tail of every live transfer are the same thing: one final round from
// the paused state. A live session first runs pre-copy rounds, resuming
// the source while each one ships.
//
// When the source runs to completion between rounds there is nothing left
// to migrate: the responder is told to stand down and ErrSourceExited is
// returned.
//
// The accounting lands in res as it accrues, so a transfer that fails
// reports the rounds and bytes that crossed: Timing, and the Exchange in
// Live for a live transfer, in Warm for a warm one.
func sendRounds(t link.Transport, e *core.Engine, src *arch.Machine, program string, p *vm.Process, cfg Config, res *Result) error {
	prm, timing := res.Params, &res.Timing
	x := &Exchange{paused: time.Now()}
	if prm.Live {
		res.Live = x
	} else {
		res.Warm = x
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
			cfg.metrics().Counter("session.precopy.bytes").Add(int64(x.Rounds[len(x.Rounds)-1].Bytes))
		}
	}

	r, err := next()
	if err != nil {
		return err
	}
	txStart := time.Now()
	prevDirty := int(^uint(0) >> 1)
	for precopy := prm.Live; precopy; {
		// Ship the round while the source executes to its next poll.
		sendErr := make(chan error, 1)
		go func(r *round) { sendErr <- sendRound(t, r, false, cfg.Recorder, x, timing) }(r)
		run, runErr := p.ResumeRun()
		serr := <-sendErr
		if runErr != nil {
			return runErr
		}
		x.paused = time.Now()
		if !run.Migrated {
			// The finished local run IS the surviving copy, so
			// ErrSourceExited wins no matter what the wire did meanwhile.
			// Stand the responder down best-effort — a dead transport
			// discards the partial restore on its own (the responder
			// classifies it as a transport failure), and a failed abort
			// send must not turn a completed execution into a rollback
			// attempt on a process that has nothing left to resume.
			cfg.Recorder.Record("session.round", "source exited (code %d) after %d rounds; aborting", run.ExitCode, len(x.Rounds))
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
			x.StopReason = "threshold"
		case len(x.Rounds) > cfg.PrecopyRounds:
			x.StopReason = "rounds"
		case dirty >= prevDirty:
			x.StopReason = "stalled"
		}
		prevDirty = dirty
		precopy = x.StopReason == ""
		if r, err = next(); err != nil {
			return err
		}
	}

	// The final round: the source stays paused from here to RESTORED.
	if err := sendRound(t, r, true, cfg.Recorder, x, timing); err != nil {
		return err
	}
	shipped()
	x.finish(r.manifest, r.pushed)
	timing.Tx = time.Since(txStart)
	return nil
}

// receiveRounds is the responder side of the round exchange, for however
// many rounds the initiator drives: resolve what each ANNOUNCE lists, ask
// for the rest when the list names bodies by content, verify what arrives,
// and apply the round into one process shell at once; on the final round
// finish the restore. The accounting lands in info as it accrues, as
// sendRounds' does in its Result, and info.Timing.Restore once the restore
// is finished.
func receiveRounds(t link.Transport, reg *Registry, e *core.Engine, mach *arch.Machine, cfg Config, info *Info) (*vm.Restore, error) {
	prm, x := info.Params, new(Exchange)
	if prm.Live {
		info.Live = x
	} else {
		info.Warm = x
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
		return nil, err
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
			return nil, err
		}
		m := ann.manifest
		if (m != nil) != prm.Warm {
			return nil, fmt.Errorf("%w: ANNOUNCE does not name its bodies as the session negotiated", ErrProtocol)
		}
		var secs []snapshot.Section
		var sums []vm.Sum
		var want []uint32
		var wanted []store.Hash
		if !prm.Warm {
			if secs, sums, want, err = positions(ann.pushed, prev, held, len(x.Rounds)); err != nil {
				return nil, err
			}
		} else {
			if m.ProgramDigest != e.Digest() {
				return nil, fmt.Errorf("%w: announce has program digest %08x, registry matched %08x",
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
				return nil, fmt.Errorf("session: want send: %w", err)
			}
		}
		got, bn, err := recvMessage(t, wire.Bodies)
		if err != nil {
			return nil, err
		}
		if len(got.indices) != len(want) {
			return nil, fmt.Errorf("%w: BODIES carries %d sections, wanted %d", ErrProtocol, len(got.indices), len(want))
		}
		for k, idx := range got.indices {
			if idx != want[k] {
				return nil, fmt.Errorf("%w: BODIES section %d answers index %d, wanted %d", ErrProtocol, k, idx, want[k])
			}
			// The announce promised a body of this length and CRC or content
			// address; verify before admitting it, so a damaged round
			// surfaces here, not at restore.
			body := got.bodies[k]
			if !prm.Warm {
				if en := ann.pushed[idx]; uint32(len(body)) != en.length || checksum(body) != en.crc {
					return nil, fmt.Errorf("%w: section %d body does not match its announced length and CRC",
						collect.ErrCorruptStream, idx)
				}
			} else {
				en := m.Entries[idx]
				if uint32(len(body)) != en.Length || store.HashBytes(body) != en.Hash {
					return nil, fmt.Errorf("%w: section %d body does not match its announced length and hash",
						store.ErrCorrupt, idx)
				}
				wanted = append(wanted, en.Hash)
			}
			secs[idx].Body = body
		}
		final := ann.flags&announceFinal != 0
		x.record(cfg.Recorder, "received", RoundStats{Round: int(ann.round), DirtyBlocks: int(ann.dirty), Sections: len(secs),
			SectionsSent: len(want), Bytes: n + bn, Final: final}, &info.Timing)
		// The verified bodies enter the store while the round is applied,
		// and are in it before anything names them.
		stored := cfg.Store.BeginOverwrite(wanted, got.bodies)
		if err := errors.Join(shell.Apply(secs, sums), stored.Wait()); err != nil {
			return nil, err
		}
		prev, held = ann.pushed, sums
		if !final {
			continue
		}

		x.finish(m, ann.pushed)
		if err := shell.Finish(); err != nil {
			return nil, err
		}
		// The program's ref names the checkpoint this node last restored,
		// so it advances only after the restore succeeded.
		if prm.Warm {
			if err := cfg.Store.Adopt(info.Program, m); err != nil {
				return nil, err
			}
		}
		info.Timing.Restore = p.RestoreElapsed()
		return shell, nil
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

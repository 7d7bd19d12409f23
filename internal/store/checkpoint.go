package store

import (
	"fmt"
	"time"

	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// CheckpointStats is the dedup outcome of one checkpoint.
type CheckpointStats struct {
	// Sections is the snapshot's section count; NewBlobs of them had
	// bodies the store did not already hold, DupBlobs were deduplicated.
	Sections int
	NewBlobs int
	DupBlobs int
	// SnapshotBytes is the full sectioned snapshot size; WrittenBytes is
	// what actually reached the disk (new bodies only), DedupedBytes the
	// body bytes dedup avoided rewriting.
	SnapshotBytes int64
	WrittenBytes  int64
	DedupedBytes  int64
	Elapsed       time.Duration
}

// DedupRatio is snapshot bytes per written byte — how much the content
// addressing compressed this checkpoint relative to storing it whole.
func (c CheckpointStats) DedupRatio() float64 {
	if c.WrittenBytes == 0 {
		return float64(c.SnapshotBytes)
	}
	return float64(c.SnapshotBytes) / float64(c.WrittenBytes)
}

func (c CheckpointStats) String() string {
	return fmt.Sprintf("%d sections (%d new, %d dedup), %d of %d bytes written (%.2fx dedup)",
		c.Sections, c.NewBlobs, c.DupBlobs, c.WrittenBytes, c.SnapshotBytes, c.DedupRatio())
}

// Entries lists secs as a manifest's entries. sums, when set, holds each
// body's content address already — a keyed capture's (vm.LiveRound.Sums),
// which hashed only the bodies it re-encoded; a nil sums hashes every
// body once. It is the one place a sending side names its sections: a
// checkpoint and a round's announce both list them through it.
func Entries(secs []snapshot.Section, sums [][HashSize]byte) []Entry {
	entries := make([]Entry, len(secs))
	for i, sec := range secs {
		entries[i] = Entry{Kind: sec.Kind, ID: sec.ID, Length: uint32(len(sec.Body))}
		if sums != nil {
			entries[i].Hash = sums[i]
		} else {
			entries[i].Hash = HashBytes(sec.Body)
		}
	}
	return entries
}

// CheckpointSections records a section list, listed as Entries(secs,
// sums) lists it, as the next checkpoint of the named ref — the periodic
// "checkpoint this session again" call: every body is stored under its
// content address (bodies already present are not appended again), a
// manifest chaining from the ref's head (a ref that does not exist yet
// starts a new chain) is stored and returned with its address, and the
// ref advances to it once the pack is synced, all under one lock. The
// bodies are only read.
func (s *Store) CheckpointSections(ref string, secs []snapshot.Section, sums [][HashSize]byte, programDigest uint32, machine string) (*Manifest, Hash, CheckpointStats, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.nameCheckpointLocked(ref, secs, sums, programDigest, machine)
	if err != nil {
		return nil, Hash{}, CheckpointStats{}, err
	}
	h, st, err := s.writeCheckpointLocked(ref, m, secs, start)
	if err != nil {
		return nil, Hash{}, CheckpointStats{}, err
	}
	return m, h, st, nil
}

// BeginCheckpoint is CheckpointSections returning as soon as the manifest
// is named — its parent and seq read from the index under the store lock
// — so that its caller can announce it while the bodies, the manifest and
// the ref are appended, in that order, and synced beside it. The lock is
// held from the naming until the ref lands or a write fails, so a second
// checkpoint of the ref chains onto this one and no ref names a missing
// blob. Pending.Wait joins the writes; until it returns the bodies must
// stay as they are, and any other mutation of the store waits. A failed
// write or sync leaves the ref where it was.
func (s *Store) BeginCheckpoint(ref string, secs []snapshot.Section, sums [][HashSize]byte, programDigest uint32, machine string) (*Manifest, *Pending, error) {
	start := time.Now()
	s.mu.Lock()
	m, err := s.nameCheckpointLocked(ref, secs, sums, programDigest, machine)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	return m, background(func() error {
		defer s.mu.Unlock()
		_, _, err := s.writeCheckpointLocked(ref, m, secs, start)
		return err
	}), nil
}

// nameCheckpointLocked lists secs as the manifest of the ref's next
// checkpoint: one past the ref's head, which becomes its parent. It reads
// only the index.
func (s *Store) nameCheckpointLocked(ref string, secs []snapshot.Section, sums [][HashSize]byte, programDigest uint32, machine string) (*Manifest, error) {
	m := &Manifest{ProgramDigest: programDigest, Machine: machine, Seq: 1, Entries: Entries(secs, sums)}
	var err error
	if m.Parent, _, err = s.Ref(ref); err != nil {
		return nil, err
	}
	if !m.Parent.IsZero() {
		pl, err := s.locate(s.manifests, "manifest", m.Parent)
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint parent: %w", err)
		}
		m.Seq = pl.seq + 1
	}
	return m, nil
}

// writeCheckpointLocked appends the bodies of secs the store lacks, then
// their manifest m, then a ref record pointing ref at it, syncs the pack
// once, and accounts the checkpoint begun at start.
func (s *Store) writeCheckpointLocked(ref string, m *Manifest, secs []snapshot.Section, start time.Time) (Hash, CheckpointStats, error) {
	st := CheckpointStats{Sections: len(secs), SnapshotBytes: int64(m.SnapshotBytes())}
	for i, e := range m.Entries {
		if err := s.putBlobLocked(e.Hash, secs[i].Body, false, &st); err != nil {
			return Hash{}, CheckpointStats{}, err
		}
	}
	h, err := s.putManifestLocked(m)
	if err != nil {
		return Hash{}, CheckpointStats{}, err
	}
	if err := s.setRefLocked(ref, h); err != nil {
		return Hash{}, CheckpointStats{}, err
	}
	st.Elapsed = time.Since(start)
	s.metrics.Counter("store.checkpoints").Inc()
	s.metrics.Histogram("store.checkpoint.latency").Observe(st.Elapsed)
	return h, st, nil
}

// Pending is a batch of store writes running beside its caller: a
// checkpoint whose manifest is already named (BeginCheckpoint), or the
// bodies a responder asked for (BeginOverwrite).
type Pending struct {
	done chan struct{}
	err  error
}

// background runs write on a goroutine of its own; Wait joins it.
func background(write func() error) *Pending {
	p := &Pending{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.err = write()
	}()
	return p
}

// Wait blocks until every write of p has landed or one has failed, and
// returns the failure. It may be called more than once; a nil Pending has
// nothing in flight.
func (p *Pending) Wait() error {
	if p == nil {
		return nil
	}
	<-p.done
	return p.err
}

// CheckpointRef is CheckpointSections of a framed sectioned snapshot,
// taken apart first (every section's CRC verified, nothing trailing the
// last). It stays because bench/program.go names it.
func (s *Store) CheckpointRef(ref string, snap []byte, programDigest uint32, machine string) (*Manifest, Hash, CheckpointStats, error) {
	dec := xdr.NewDecoder(snap)
	rd, err := snapshot.NewReader(dec)
	if err != nil {
		return nil, Hash{}, CheckpointStats{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	secs, err := rd.ReadAll()
	if err != nil {
		return nil, Hash{}, CheckpointStats{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	if dec.Remaining() != 0 {
		return nil, Hash{}, CheckpointStats{}, fmt.Errorf("%w: %d trailing bytes after snapshot sections", ErrCorrupt, dec.Remaining())
	}
	return s.CheckpointSections(ref, secs, nil, programDigest, machine)
}

// Sections is CheckpointSections' inverse: the manifest stored under h and
// the section list it describes, every body fetched by content address
// (re-verified on read) and held to its entry's length, in manifest order.
func (s *Store) Sections(h Hash) (*Manifest, []snapshot.Section, error) {
	start := time.Now()
	m, err := s.GetManifest(h)
	if err != nil {
		return nil, nil, err
	}
	secs := make([]snapshot.Section, 0, len(m.Entries))
	for i, e := range m.Entries {
		body, err := s.GetBlob(e.Hash)
		if err != nil {
			return nil, nil, fmt.Errorf("store: materialize %s entry %d (%s %d): %w",
				h.Short(), i, e.Kind, e.ID, err)
		}
		if uint32(len(body)) != e.Length {
			return nil, nil, fmt.Errorf("%w: manifest %s entry %d declares %d bytes, blob holds %d",
				ErrCorrupt, h.Short(), i, e.Length, len(body))
		}
		secs = append(secs, snapshot.Section{Kind: e.Kind, ID: e.ID, Body: body})
	}
	s.metrics.Histogram("store.materialize.latency").Observe(time.Since(start))
	return m, secs, nil
}

// Materialize is Sections framed back into the exact sectioned snapshot
// that was checkpointed, byte for byte. It stays because bench/program.go
// names it.
func (s *Store) Materialize(h Hash) ([]byte, error) {
	_, secs, err := s.Sections(h)
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(secs), nil
}

// Missing reports which entries of m the store lacks bodies for — the
// responder's half of the warm-migration WANT computation.
func (s *Store) Missing(m *Manifest) []uint32 {
	var want []uint32
	for i, e := range m.Entries {
		if !s.HoldsBlob(e.Hash, int64(e.Length)) {
			want = append(want, uint32(i))
		}
	}
	return want
}

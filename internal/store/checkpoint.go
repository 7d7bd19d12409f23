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

// Entries builds a manifest's entry list from a section list, hashing each
// body once. With EntriesFrom it is the one place a sending side computes
// a body's content address: a checkpoint and a round's announce both list
// their sections through it.
func Entries(secs []snapshot.Section) []Entry { return EntriesFrom(secs, nil, nil) }

// EntriesFrom is Entries for a list that carries bodies over from an
// earlier one, prev: from[i] >= 0 names the entry of prev whose body
// section i repeats byte for byte, and its hash is copied rather than
// computed again. A nil from hashes every body.
func EntriesFrom(secs []snapshot.Section, prev []Entry, from []int) []Entry {
	entries := make([]Entry, len(secs))
	for i, sec := range secs {
		entries[i] = Entry{Kind: sec.Kind, ID: sec.ID, Length: uint32(len(sec.Body))}
		if from != nil && from[i] >= 0 {
			entries[i].Hash = prev[from[i]].Hash
		} else {
			entries[i].Hash = HashBytes(sec.Body)
		}
	}
	return entries
}

// CheckpointSections records a section list as the next checkpoint of the
// named ref — the periodic "checkpoint this session again" call: every
// body is stored under its content address (bodies already present are not
// rewritten), a manifest chaining from the ref's head (a ref that does not
// exist yet starts a new chain) is stored and returned with its address,
// and the ref advances to it, all under one lock. The bodies are only
// read; a caller whose list aliases pooled encoders may release them on
// return.
func (s *Store) CheckpointSections(ref string, secs []snapshot.Section, programDigest uint32, machine string) (*Manifest, Hash, CheckpointStats, error) {
	start := time.Now()
	m := &Manifest{ProgramDigest: programDigest, Machine: machine, Seq: 1, Entries: Entries(secs)}
	st := CheckpointStats{Sections: len(secs), SnapshotBytes: int64(m.SnapshotBytes())}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if m.Parent, _, err = s.Ref(ref); err != nil {
		return nil, Hash{}, CheckpointStats{}, err
	}
	if !m.Parent.IsZero() {
		pm, err := s.GetManifest(m.Parent)
		if err != nil {
			return nil, Hash{}, CheckpointStats{}, fmt.Errorf("store: checkpoint parent: %w", err)
		}
		m.Seq = pm.Seq + 1
	}
	for i, e := range m.Entries {
		fresh, err := s.putBlobLocked(e.Hash, secs[i].Body)
		if err != nil {
			return nil, Hash{}, CheckpointStats{}, err
		}
		if fresh {
			st.NewBlobs++
			st.WrittenBytes += int64(e.Length)
		} else {
			st.DupBlobs++
			st.DedupedBytes += int64(e.Length)
		}
	}
	h, err := s.putManifestLocked(m)
	if err != nil {
		return nil, Hash{}, CheckpointStats{}, err
	}
	if err := s.setRefLocked(ref, h); err != nil {
		return nil, Hash{}, CheckpointStats{}, err
	}
	st.Elapsed = time.Since(start)
	s.metrics.Counter("store.checkpoints").Inc()
	s.metrics.Histogram("store.checkpoint.latency").Observe(st.Elapsed)
	return m, h, st, nil
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
	return s.CheckpointSections(ref, secs, programDigest, machine)
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
		if !s.HasBlob(e.Hash) {
			want = append(want, uint32(i))
		}
	}
	return want
}

package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"

	"repro/internal/obs"
)

// formatLine identifies a store directory and its layout version.
const formatLine = "migstore/2\n"

// A pack record is its kind, the hash it is filed under, the body's
// length, the body, and a CRC-32 of all four. A blob or a manifest is
// filed under its body's SHA-256; a ref record is filed under the
// manifest it names, and its body is the ref's name. Each kind is four
// distinct bytes, so a scan that lost its place finds the next record by
// them.
const (
	kindBlob     = 0x4d504201 // "MPB\x01"
	kindManifest = 0x4d504d01 // "MPM\x01"
	kindRef      = 0x4d505201 // "MPR\x01"

	headerSize  = 4 + HashSize + 4
	trailerSize = 4
)

// Store is an on-disk content-addressed checkpoint repository: one
// append-only pack of records, and an in-memory index of it that Open
// rebuilds. Safe for concurrent use: mutations serialize on one mutex
// and append, and a reader finds a record through the index and reads
// its body with one pread. Nothing rewrites a record the index names.
type Store struct {
	dir     string
	metrics *obs.Registry
	pack    *os.File

	// mu serializes mutations against each other: a checkpoint in flight
	// holds the lock from reading its parent through the ref update, so
	// no other write lands between them. Under BeginCheckpoint that span
	// ends on the goroutine doing the writes, which unlocks what the
	// caller locked. Nothing deletes from a store; a compaction that
	// comes back with its first caller must hold mu throughout.
	mu     sync.Mutex
	size   int64 // where the next record lands
	synced int64 // how much of the pack the last sync made durable

	// ixmu guards the index against readers. Every change to it also
	// holds mu, so a holder of mu reads it without ixmu. A ref moves only
	// once its record is synced.
	ixmu sync.Mutex
	index
}

// index is what a scan of the pack finds, kept up to date by the appends
// after it.
type index struct {
	blobs     map[Hash]loc
	manifests map[Hash]loc
	refs      map[string]refAt
	// lost is the end of the last stretch of the pack that the scan could
	// not attribute to a blob or a manifest: bytes no record header spans,
	// or a damaged record that may have been a ref's. A ref whose record
	// lies before it may have been moved by what was lost, so reading it
	// is an ErrCorrupt until a later record sets it.
	lost int64
}

// refAt is the record that sets a ref: the manifest it names, the zero
// Hash when the record is damaged, and where its body lies.
type refAt struct {
	h   Hash
	off int64
}

// loc is where a record's body lies in the pack.
type loc struct {
	off int64
	n   uint32
	seq uint64 // a manifest's position in its chain
	bad bool   // the record fails its CRC, so reading it is an ErrCorrupt
}

// Open opens (creating if needed) the store rooted at dir, scanning its
// pack once. It holds an exclusive lock on the pack until Close, so a
// second Store on the same directory, in this process or another, is
// refused. reg receives the store's dedup counters and latency
// histograms; nil selects obs.Default.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	fpath := filepath.Join(dir, "format")
	if b, err := os.ReadFile(fpath); err == nil && len(b) > 0 { // empty: a crash cut its first write
		if string(b) != formatLine {
			return nil, fmt.Errorf("%w: %s holds %q, want %q", ErrCorrupt, fpath, string(b), formatLine)
		}
	} else if err := os.WriteFile(fpath, []byte(formatLine), 0o644); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "pack"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is held by another Store: %w", dir, err)
	}
	s := &Store{dir: dir, metrics: cmp.Or(reg, obs.Default), pack: f}
	fi, err := f.Stat()
	if err == nil {
		err = s.load(fi.Size())
	}
	if err == nil && s.size == 0 { // a new pack, whose name must outlive a crash too
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return s, nil
}

// syncDir makes dir's entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close releases the pack and its lock. The Store must not be used
// after, and no write may be in flight.
func (s *Store) Close() error { return s.pack.Close() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// rec is one record of the pack, as scan reads it back.
type rec struct {
	kind uint32
	h    Hash
	at   loc
	end  int    // the offset after the record; 0 when its header does not parse
	name string // a ref's
}

// load indexes the first size bytes of the pack, cuts the pack after the
// last record among them that verifies, and makes that index the
// store's. The pack is mapped, not read, so a load allocates only the
// index.
func (s *Store) load(size int64) error {
	ix := index{blobs: map[Hash]loc{}, manifests: map[Hash]loc{}, refs: map[string]refAt{}}
	if size > 0 {
		data, err := syscall.Mmap(int(s.pack.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return err
		}
		size = ix.scan(data)
		syscall.Munmap(data)
	}
	s.ixmu.Lock()
	s.index = ix
	s.ixmu.Unlock()
	s.size, s.synced = size, size
	return s.pack.Truncate(size)
}

// scan indexes the records of data in order, for a ref the last record
// winning, and returns where the last one that verifies ends. A record
// that does not verify is passed over to the next that does, and filed as
// damaged when its header spans the gap exactly. With no valid record
// after it, it is a torn tail.
func (ix *index) scan(data []byte) int64 {
	off := 0
	for off < len(data) {
		r, ok := parse(data, off)
		next := r.end
		if !ok {
			for next = off + 1; next < len(data); next++ {
				if _, valid := parse(data, next); valid {
					break
				}
			}
			if next == len(data) {
				break
			}
			// A ref record whose kind byte flipped reads as a blob or a
			// manifest filed under a manifest's address.
			if _, named := ix.manifests[r.h]; r.end != next || r.kind == kindRef || named {
				ix.lost = int64(next)
			}
		}
		ix.file(r, ok, !ok && r.end == next)
		off = next
	}
	return int64(off)
}

// parse reads back the record at off in data. ok is false when it does
// not verify: a header out of bounds, a CRC that fails, or a body its
// kind rejects. r.end is set once the header parses.
func parse(data []byte, off int) (r rec, ok bool) {
	if off+headerSize+trailerSize > len(data) {
		return r, false
	}
	r.kind = binary.BigEndian.Uint32(data[off:])
	copy(r.h[:], data[off+4:])
	n := int(binary.BigEndian.Uint32(data[off+4+HashSize:]))
	end := off + headerSize + n + trailerSize
	if k := r.kind; k != kindBlob && k != kindManifest && k != kindRef || end > len(data) {
		return r, false
	}
	r.at, r.end = loc{off: int64(off + headerSize), n: uint32(n)}, end
	body := data[off+headerSize : end-trailerSize]
	if r.kind == kindRef {
		r.name = string(body)
	}
	if crc32.ChecksumIEEE(data[off:end-trailerSize]) != binary.BigEndian.Uint32(data[end-trailerSize:]) {
		return r, false
	}
	if r.kind == kindManifest {
		m, err := DecodeManifest(body)
		if err != nil || HashBytes(body) != r.h {
			return r, false
		}
		r.at.seq = m.Seq
	}
	return r, true
}

// file enters r in the index, if it verified (ok) or is damaged (bad). A
// damaged copy of a blob or manifest does not displace a valid one, which
// holds the same content; a damaged ref record marks the ref, so reading
// it is an ErrCorrupt.
func (ix *index) file(r rec, ok, bad bool) {
	if !ok && !bad {
		return
	}
	r.at.bad = bad
	switch m := ix.blobs; r.kind {
	case kindManifest:
		m = ix.manifests
		fallthrough
	case kindBlob:
		if old, ok := m[r.h]; !bad || !ok || old.bad {
			m[r.h] = r.at
		}
	case kindRef: // a ref naming the zero Hash reads as damaged
		if bad {
			r.h = Hash{}
		}
		if r.name != "" {
			ix.refs[r.name] = refAt{h: r.h, off: r.at.off}
		}
	}
}

// appendLocked appends a record of body filed under h and, unless it
// is a ref, enters it in the index. A failed write is cut back off, so
// the pack still ends on a whole record.
func (s *Store) appendLocked(kind uint32, h Hash, body []byte, seq uint64) error {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, headerSize+len(body)+trailerSize), kind)
	b = binary.BigEndian.AppendUint32(append(b, h[:]...), uint32(len(body)))
	b = append(b, body...)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if _, err := s.pack.WriteAt(b, s.size); err != nil {
		return errors.Join(err, s.pack.Truncate(s.size))
	}
	s.ixmu.Lock()
	s.file(rec{kind: kind, h: h, at: loc{off: s.size + headerSize, n: uint32(len(body)), seq: seq}}, kind != kindRef, false)
	s.ixmu.Unlock()
	s.size += int64(len(b))
	return nil
}

// BeginOverwrite appends each body under the address at the same index
// of hs, whatever the store holds there, run beside the caller. A
// responder stores every body it asked for this way: it asked because
// its store could not serve the body, absent or failing verification, so
// a record under the address is one GetBlob refused, and the index moves
// to the new one. It writes them while it applies them, and Pending.Wait
// joins the writes, which stop at the first failure; Adopt syncs them
// with the ref. The bodies must stay as they are until then. An empty
// batch starts nothing and returns a nil Pending, touching no store, so
// a nil s may be given one.
func (s *Store) BeginOverwrite(hs []Hash, bodies [][]byte) *Pending {
	if len(hs) == 0 {
		return nil
	}
	return background(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, h := range hs {
			if err := s.putBlobLocked(h, bodies[i], true, new(CheckpointStats)); err != nil {
				return err
			}
		}
		return nil
	})
}

// putBlobLocked appends body under h, which the caller computed from it,
// and accounts it in st. A record already there counts as the body unless
// force is set, its size differs from the body's, or it is damaged.
func (s *Store) putBlobLocked(h Hash, body []byte, force bool, st *CheckpointStats) error {
	n := int64(len(body))
	if !force && s.HoldsBlob(h, n) {
		st.DupBlobs, st.DedupedBytes = st.DupBlobs+1, st.DedupedBytes+n
		s.metrics.Counter("store.blob.dedup").Inc()
		s.metrics.Counter("store.bytes.deduped").Add(n)
		return nil
	}
	if err := s.appendLocked(kindBlob, h, body, 0); err != nil {
		return fmt.Errorf("store: put blob: %w", err)
	}
	st.NewBlobs, st.WrittenBytes = st.NewBlobs+1, st.WrittenBytes+n
	s.metrics.Counter("store.blob.put").Inc()
	s.metrics.Counter("store.bytes.written").Add(n)
	return nil
}

// locate finds the record of h in ix: ErrNotFound when the pack holds
// none, ErrCorrupt when the one it holds is damaged.
func (s *Store) locate(ix map[Hash]loc, what string, h Hash) (loc, error) {
	s.ixmu.Lock()
	l, ok := ix[h]
	s.ixmu.Unlock()
	switch {
	case !ok:
		return l, fmt.Errorf("%w: %s %s", ErrNotFound, what, h.Short())
	case l.bad:
		return l, fmt.Errorf("%w: %s %s: its pack record fails its CRC", ErrCorrupt, what, h.Short())
	}
	return l, nil
}

// HoldsBlob reports whether the store holds an undamaged record of n
// bytes under h: an index lookup, so the body is verified only when it
// is served.
func (s *Store) HoldsBlob(h Hash, n int64) bool {
	s.ixmu.Lock()
	defer s.ixmu.Unlock()
	l, ok := s.blobs[h]
	return ok && !l.bad && int64(l.n) == n
}

// body reads the body of h's record in ix with one pread and verifies
// its content hash, so a record damaged after Open is an ErrCorrupt,
// never silently served.
func (s *Store) body(ix map[Hash]loc, what string, h Hash) ([]byte, error) {
	l, err := s.locate(ix, what, h)
	if err != nil {
		return nil, err
	}
	body := make([]byte, l.n)
	if _, err = s.pack.ReadAt(body, l.off); err == nil && HashBytes(body) != h {
		err = fmt.Errorf("%w: %s %s: its body does not hash to its address", ErrCorrupt, what, h.Short())
	}
	if err != nil {
		return nil, err
	}
	return body, nil
}

// GetBlob reads the body stored under h, verifying the content hash.
func (s *Store) GetBlob(h Hash) ([]byte, error) { return s.body(s.blobs, "blob", h) }

func (s *Store) putManifestLocked(m *Manifest) (Hash, error) {
	raw := m.Encode()
	h := HashBytes(raw)
	if l, ok := s.manifests[h]; ok && !l.bad {
		return h, nil
	}
	if err := s.appendLocked(kindManifest, h, raw, m.Seq); err != nil {
		return Hash{}, fmt.Errorf("store: put manifest: %w", err)
	}
	s.metrics.Counter("store.manifest.put").Inc()
	return h, nil
}

// GetManifest reads and decodes the manifest stored under h, verifying
// its content hash first.
func (s *Store) GetManifest(h Hash) (*Manifest, error) {
	raw, err := s.body(s.manifests, "manifest", h)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(raw)
}

// Usage reports how many section bodies the store holds and their total
// size in bytes — the node telemetry gauges (`node.store.blobs` /
// `node.store.bytes`), read from the index.
func (s *Store) Usage() (blobs, bytes int64) {
	s.ixmu.Lock()
	defer s.ixmu.Unlock()
	for _, l := range s.blobs {
		if !l.bad {
			blobs, bytes = blobs+1, bytes+int64(l.n)
		}
	}
	return blobs, bytes
}

// Adopt stores m, a checkpoint another store named, and points the named
// chain at it, under one lock — a responder's last step of a warm
// restore, once the bodies m lists are stored. m is kept verbatim, so
// both stores name the checkpoint by the same hash. A body the store no
// longer holds, cut off by a failed sync since it was stored, is an
// ErrNotFound, and the ref stays where it was.
func (s *Store) Adopt(ref string, m *Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if miss := s.Missing(m); len(miss) != 0 {
		return fmt.Errorf("%w: adopt: %d of the checkpoint's bodies", ErrNotFound, len(miss))
	}
	h, err := s.putManifestLocked(m)
	if err != nil {
		return err
	}
	return s.setRefLocked(ref, h)
}

// syncPack makes the pack durable; a test swaps it for one that fails.
var syncPack = (*os.File).Sync

// setRefLocked appends a ref record naming h and syncs the pack, so the
// ref and every record before it are on disk before the ref moves. A
// failed write is cut back off, leaving the ref where it was. After a
// failed sync nothing appended since the last one is known to be on
// disk, this checkpoint's bodies or another's included, so the pack is
// cut back to what the last sync made durable and the index rebuilt from
// it: no later ref can name a body the failed sync may have lost.
func (s *Store) setRefLocked(name string, h Hash) error {
	if name == "" || h.IsZero() {
		return fmt.Errorf("store: invalid ref %q -> %s", name, h.Short())
	}
	at := s.size
	if err := s.appendLocked(kindRef, h, []byte(name), 0); err != nil {
		return fmt.Errorf("store: set ref: %w", err)
	}
	if err := syncPack(s.pack); err != nil {
		return fmt.Errorf("store: set ref: %w", errors.Join(err, s.load(s.synced)))
	}
	s.synced = s.size
	s.ixmu.Lock()
	s.file(rec{kind: kindRef, h: h, name: name, at: loc{off: at + headerSize}}, true, false)
	s.ixmu.Unlock()
	return nil
}

// Ref resolves a named chain head; ok is false when the ref does not
// exist. A ref whose last record is damaged, or that a damaged stretch of
// the pack after its last record may have moved, is an ErrCorrupt.
func (s *Store) Ref(name string) (Hash, bool, error) {
	s.ixmu.Lock()
	r, ok := s.refs[name]
	lost := s.lost
	s.ixmu.Unlock()
	switch {
	case ok && r.h.IsZero():
		return Hash{}, false, fmt.Errorf("%w: ref %q: its last pack record fails its CRC", ErrCorrupt, name)
	case ok && r.off < lost:
		return Hash{}, false, fmt.Errorf("%w: ref %q: a damaged pack record after its last one may have moved it", ErrCorrupt, name)
	}
	return r.h, ok, nil
}

// Refs lists every named chain head, sorted by name.
func (s *Store) Refs() []string {
	s.ixmu.Lock()
	defer s.ixmu.Unlock()
	out := make([]string, 0, len(s.refs))
	for name := range s.refs {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Resolve turns a user-supplied target — a ref name or a full hex
// manifest hash — into a manifest address.
func (s *Store) Resolve(target string) (Hash, error) {
	if h, ok, err := s.Ref(target); err != nil || ok {
		return h, err
	}
	h, err := ParseHash(target)
	if err != nil {
		return Hash{}, fmt.Errorf("%w: %q is neither a ref nor a manifest hash", ErrNotFound, target)
	}
	_, err = s.locate(s.manifests, "manifest", h)
	return h, err
}

// Chain walks the parent links from h to the chain root, returning the
// manifests newest first. A parent link to a manifest the store does not
// hold is reported as a dangling chain (ErrNotFound). A chain cannot loop:
// a manifest's address covers its parent's.
func (s *Store) Chain(h Hash) ([]*Manifest, error) {
	var out []*Manifest
	for !h.IsZero() {
		m, err := s.GetManifest(h)
		if err != nil {
			return nil, fmt.Errorf("store: chain at %s: %w", h.Short(), err)
		}
		out = append(out, m)
		h = m.Parent
	}
	return out, nil
}

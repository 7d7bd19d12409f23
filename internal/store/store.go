package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// formatLine identifies a store directory and its layout version.
const formatLine = "migstore/1\n"

// Store is an on-disk content-addressed checkpoint repository. Safe for
// concurrent use: mutations (blob and manifest writes, ref updates,
// checkpoints) serialize on one mutex, and every object lands via an
// atomic rename, so lock-free readers always see whole objects.
type Store struct {
	dir     string
	metrics *obs.Registry

	// mu serializes mutations against each other: a checkpoint in flight
	// holds the lock from reading its parent through the ref update, so
	// no other write lands between them. Under BeginCheckpoint that span
	// ends on the goroutine doing the writes, which unlocks what the
	// caller locked. Nothing deletes from a store; a sweep that comes
	// back with its first caller must hold mu from mark to sweep.
	mu sync.Mutex
}

// Open opens (creating if needed) the store rooted at dir. reg receives
// the store's dedup counters and latency histograms; nil selects
// obs.Default.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if reg == nil {
		reg = obs.Default
	}
	for _, sub := range []string{"blobs", "manifests", "refs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	fpath := filepath.Join(dir, "format")
	if b, err := os.ReadFile(fpath); err == nil {
		if string(b) != formatLine {
			return nil, fmt.Errorf("%w: %s holds %q, want %q", ErrCorrupt, fpath, string(b), formatLine)
		}
	} else if err := writeAtomic(fpath, []byte(formatLine)); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return &Store{dir: dir, metrics: reg}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Usage walks the blob tree and reports how many section bodies the
// store holds and their total size in bytes — the node telemetry gauges
// (`node.store.blobs` / `node.store.bytes`). Lock-free: writes land by
// atomic rename, so the walk sees whole objects; in-progress temp files
// are skipped.
func (s *Store) Usage() (blobs, bytes int64, err error) {
	root := filepath.Join(s.dir, "blobs")
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) { // removed under the walk
				return nil
			}
			return err
		}
		blobs++
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("store: usage: %w", err)
	}
	return blobs, bytes, nil
}

// blobPath shards blobs by the first address byte so no single directory
// grows unboundedly.
func (s *Store) blobPath(h Hash) string {
	hx := h.String()
	return filepath.Join(s.dir, "blobs", hx[:2], hx[2:])
}

func (s *Store) manifestPath(h Hash) string {
	return filepath.Join(s.dir, "manifests", h.String())
}

func (s *Store) refPath(name string) string {
	return filepath.Join(s.dir, "refs", name)
}

// writeAtomic lands content at path via a temp file and rename, so a
// concurrent reader sees either nothing or the whole object.
func writeAtomic(path string, content []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// BeginOverwrite writes each body under the address at the same index of
// hs, whatever stands there, run beside the caller. A responder stores
// every body it asked for this way: it asked because its store could not
// serve the body, absent or failing verification, so a file under the
// address is one GetBlob refused. It writes them while it applies them,
// and Pending.Wait joins the writes, which stop at the first failure. The
// bodies must stay as they are until then. An empty batch starts nothing
// and returns a nil Pending, touching no store, so a nil s may be given
// one.
func (s *Store) BeginOverwrite(hs []Hash, bodies [][]byte) *Pending {
	if len(hs) == 0 {
		return nil
	}
	return background(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, h := range hs {
			if _, err := s.putBlobLocked(h, bodies[i], true); err != nil {
				return err
			}
		}
		return nil
	})
}

// putBlobLocked stores body under h, which the caller computed from it. A
// file already there counts as the body unless force is set or its size
// differs from the body's: a truncated or torn blob is replaced, not
// deduplicated against.
func (s *Store) putBlobLocked(h Hash, body []byte, force bool) (bool, error) {
	if !force && s.HoldsBlob(h, int64(len(body))) {
		s.metrics.Counter("store.blob.dedup").Inc()
		s.metrics.Counter("store.bytes.deduped").Add(int64(len(body)))
		return false, nil
	}
	path := s.blobPath(h)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("store: put blob: %w", err)
	}
	if err := writeAtomic(path, body); err != nil {
		return false, fmt.Errorf("store: put blob: %w", err)
	}
	s.metrics.Counter("store.blob.put").Inc()
	s.metrics.Counter("store.bytes.written").Add(int64(len(body)))
	return true, nil
}

// HasBlob reports whether the store holds a body under h.
func (s *Store) HasBlob(h Hash) bool {
	_, err := os.Stat(s.blobPath(h))
	return err == nil
}

// HoldsBlob reports whether the store holds a file of n bytes under h: a
// stat, not a read, so the body is verified only when it is served.
func (s *Store) HoldsBlob(h Hash, n int64) bool {
	fi, err := os.Stat(s.blobPath(h))
	return err == nil && fi.Size() == n
}

// GetBlob reads the body stored under h, verifying the content hash: a
// truncated or tampered blob file is an ErrCorrupt, never silently served.
func (s *Store) GetBlob(h Hash) ([]byte, error) {
	body, err := os.ReadFile(s.blobPath(h))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: blob %s", ErrNotFound, h.Short())
		}
		return nil, fmt.Errorf("store: get blob: %w", err)
	}
	if HashBytes(body) != h {
		return nil, fmt.Errorf("%w: blob %s content hashes to %s", ErrCorrupt, h.Short(), HashBytes(body).Short())
	}
	return body, nil
}

func (s *Store) putManifestLocked(m *Manifest) (Hash, error) {
	raw := m.Encode()
	h := HashBytes(raw)
	path := s.manifestPath(h)
	if _, err := os.Stat(path); err == nil {
		return h, nil
	}
	if err := writeAtomic(path, raw); err != nil {
		return Hash{}, fmt.Errorf("store: put manifest: %w", err)
	}
	s.metrics.Counter("store.manifest.put").Inc()
	return h, nil
}

// GetManifest reads and decodes the manifest stored under h, verifying
// its content hash first.
func (s *Store) GetManifest(h Hash) (*Manifest, error) {
	raw, err := os.ReadFile(s.manifestPath(h))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: manifest %s", ErrNotFound, h.Short())
		}
		return nil, fmt.Errorf("store: get manifest: %w", err)
	}
	if HashBytes(raw) != h {
		return nil, fmt.Errorf("%w: manifest %s content hashes to %s", ErrCorrupt, h.Short(), HashBytes(raw).Short())
	}
	return DecodeManifest(raw)
}

// HasManifest reports whether the store holds a manifest under h.
func (s *Store) HasManifest(h Hash) bool {
	_, err := os.Stat(s.manifestPath(h))
	return err == nil
}

// Manifests lists the content addresses of every stored manifest.
func (s *Store) Manifests() ([]Hash, error) {
	names, err := os.ReadDir(filepath.Join(s.dir, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("store: list manifests: %w", err)
	}
	out := make([]Hash, 0, len(names))
	for _, e := range names {
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		h, err := ParseHash(e.Name())
		if err != nil {
			continue
		}
		out = append(out, h)
	}
	return out, nil
}

// Adopt stores m, a checkpoint another store named, and points the named
// chain at it, under one lock — a responder's last step of a warm
// restore, once the bodies m lists are stored. m is kept verbatim, so
// both stores name the checkpoint by the same hash.
func (s *Store) Adopt(ref string, m *Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, err := s.putManifestLocked(m)
	if err != nil {
		return err
	}
	return s.setRefLocked(ref, h)
}

func (s *Store) setRefLocked(name string, h Hash) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("store: invalid ref name %q", name)
	}
	return writeAtomic(s.refPath(name), []byte(h.String()+"\n"))
}

// Ref resolves a named chain head; ok is false when the ref does not
// exist.
func (s *Store) Ref(name string) (Hash, bool, error) {
	b, err := os.ReadFile(s.refPath(name))
	if err != nil {
		if os.IsNotExist(err) {
			return Hash{}, false, nil
		}
		return Hash{}, false, fmt.Errorf("store: read ref: %w", err)
	}
	h, err := ParseHash(strings.TrimSpace(string(b)))
	if err != nil {
		return Hash{}, false, fmt.Errorf("%w: ref %q holds %q", ErrCorrupt, name, strings.TrimSpace(string(b)))
	}
	return h, true, nil
}

// Refs lists every named chain head, sorted by name.
func (s *Store) Refs() ([]string, error) {
	names, err := os.ReadDir(filepath.Join(s.dir, "refs"))
	if err != nil {
		return nil, fmt.Errorf("store: list refs: %w", err)
	}
	out := make([]string, 0, len(names))
	for _, e := range names {
		if strings.HasPrefix(e.Name(), ".") {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Resolve turns a user-supplied target — a ref name or a full hex
// manifest hash — into a manifest address.
func (s *Store) Resolve(target string) (Hash, error) {
	if h, ok, err := s.Ref(target); err != nil {
		return Hash{}, err
	} else if ok {
		return h, nil
	}
	h, err := ParseHash(target)
	if err != nil {
		return Hash{}, fmt.Errorf("%w: %q is neither a ref nor a manifest hash", ErrNotFound, target)
	}
	if !s.HasManifest(h) {
		return Hash{}, fmt.Errorf("%w: manifest %s", ErrNotFound, h.Short())
	}
	return h, nil
}

// Chain walks the parent links from h to the chain root, returning the
// manifests newest first. A parent link to a manifest the store does not
// hold is reported as a dangling chain (ErrNotFound).
func (s *Store) Chain(h Hash) ([]*Manifest, error) {
	var out []*Manifest
	seen := map[Hash]bool{}
	for !h.IsZero() {
		if seen[h] {
			return nil, fmt.Errorf("%w: manifest chain loops at %s", ErrBadManifest, h.Short())
		}
		seen[h] = true
		m, err := s.GetManifest(h)
		if err != nil {
			if len(out) > 0 {
				return nil, fmt.Errorf("store: chain dangles at seq %d: %w", out[len(out)-1].Seq, err)
			}
			return nil, err
		}
		out = append(out, m)
		h = m.Parent
	}
	return out, nil
}

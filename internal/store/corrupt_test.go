package store

// Corruption-path coverage: every way a pack record can rot — a damaged
// blob or manifest body, a torn tail, a manifest naming what the pack
// lacks — must surface as a typed error (ErrCorrupt / ErrNotFound), never
// as silently wrong data or a panic.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// damage flips one byte in the middle of the body of h's record in ix,
// on disk, as rot would. The index still names the record.
func damage(t *testing.T, s *Store, ix map[Hash]loc, h Hash) {
	t.Helper()
	l, ok := ix[h]
	if !ok || l.n == 0 {
		t.Fatalf("no record with a body to damage under %s", h.Short())
	}
	f, err := os.OpenFile(filepath.Join(s.dir, "pack"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	at := l.off + int64(l.n)/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// reopen closes s and opens its directory again, as a restarted node
// would.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(s.dir, s.metrics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// cutAt cuts the pack in dir at byte off, as a crash in the middle of an
// append would; the store sees it once reopened.
func cutAt(t *testing.T, dir string, off int64) {
	t.Helper()
	if err := os.Truncate(filepath.Join(dir, "pack"), off); err != nil {
		t.Fatal(err)
	}
}

// TestGetBlobTruncated: a blob whose record a crash tore is cut off when
// the store is reopened, so GetBlob finds nothing, never a short body.
func TestGetBlobTruncated(t *testing.T) {
	s := openTest(t)
	body := []byte("a body long enough to truncate meaningfully")
	h := putBody(t, s, body)
	cutAt(t, s.dir, s.blobs[h].off+int64(len(body))/2)
	s = reopen(t, s)
	if _, err := s.GetBlob(h); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetBlob of a torn blob: %v, want ErrNotFound", err)
	}
	if blobs, bytes := s.Usage(); blobs != 0 || bytes != 0 {
		t.Errorf("the reopened store holds %d blobs (%d bytes), want none", blobs, bytes)
	}
}

// TestGetBlobTampered: a blob whose record rots after Open still sits in
// the index, and GetBlob refuses it on its content hash.
func TestGetBlobTampered(t *testing.T) {
	s := openTest(t)
	body := []byte("pristine content")
	h := putBody(t, s, body)
	damage(t, s, s.blobs, h)
	if _, err := s.GetBlob(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBlob of a damaged blob: %v, want ErrCorrupt", err)
	}
}

// TestCheckpointRepairsCorruptBlob is the repair half of a rotten blob:
// the body arriving again must replace the bad record, so the next
// GetBlob serves it. A torn blob is cut off when the store is reopened,
// so a checkpoint finds it missing and appends it; a blob damaged in
// place keeps its size, so a checkpoint dedups against it, and it is
// BeginOverwrite, the responder's write for a body its store failed to
// serve, that appends it again.
func TestCheckpointRepairsCorruptBlob(t *testing.T) {
	s := openTest(t)
	body := []byte("a body long enough to truncate meaningfully")
	secs := []snapshot.Section{{Kind: snapshot.KindHeap, Body: body}}
	h := putBody(t, s, body)
	cutAt(t, s.dir, s.blobs[h].off+int64(len(body))/2)
	s = reopen(t, s)
	if _, err := s.GetBlob(h); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetBlob of a torn blob: %v, want ErrNotFound", err)
	}
	if _, _, st, err := s.CheckpointSections("job", secs, nil, 1, "m"); err != nil || st.NewBlobs != 1 {
		t.Fatalf("checkpoint over a torn blob: %+v, %v; want a rewrite", st, err)
	}
	if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob after the repair: %q, %v", got, err)
	}
	if _, _, st, err := s.CheckpointSections("job", secs, nil, 1, "m"); err != nil || st.DupBlobs != 1 {
		t.Errorf("checkpoint over an intact blob: %+v, %v; want a dedup", st, err)
	}

	damage(t, s, s.blobs, h)
	if _, err := s.GetBlob(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBlob of a damaged blob: %v, want ErrCorrupt", err)
	}
	putBody(t, s, body)
	if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob after BeginOverwrite of a damaged blob: %q, %v", got, err)
	}
	// The repair holds across a reopen: the damaged copy, with a valid
	// record after it, is filed as damaged and does not displace the new one.
	if got, err := reopen(t, s).GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob of the repaired blob after a reopen: %q, %v", got, err)
	}
}

// TestDamagedCopyKeepsTheValidOne: a body appended twice whose later
// copy rots is served from the earlier one once the store is reopened,
// since both hold the same content.
func TestDamagedCopyKeepsTheValidOne(t *testing.T) {
	s := openTest(t)
	body := []byte("a body appended twice")
	h := putBody(t, s, body)
	putBody(t, s, body)
	damage(t, s, s.blobs, h)
	putBody(t, s, []byte("a record after the damaged one"))
	if got, err := reopen(t, s).GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob with a damaged later copy: %q, %v; want the earlier copy", got, err)
	}
}

func TestMaterializeCorruptBlob(t *testing.T) {
	s := openTest(t)
	m, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("heap-body")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries {
		if e.Kind == snapshot.KindHeap {
			damage(t, s, s.blobs, e.Hash)
		}
	}
	if _, err := s.Materialize(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Materialize over a damaged blob: %v, want ErrCorrupt", err)
	}
}

// TestMaterializeMissingBlob: Adopt refuses a manifest whose bodies the
// store never received, and one that a pack names anyway, its manifest
// and ref appended past that check, materializes as an ErrNotFound.
func TestMaterializeMissingBlob(t *testing.T) {
	s := openTest(t)
	m := &Manifest{ProgramDigest: 1, Machine: "m", Seq: 1, Entries: Entries(testSections([]byte("heap-body")), nil)}
	if err := s.Adopt("job", m); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Adopt without the bodies: %v, want ErrNotFound", err)
	}
	if _, ok, err := s.Ref("job"); ok || err != nil {
		t.Fatalf("a refused Adopt set the ref (%v)", err)
	}
	s.mu.Lock()
	h, err := s.putManifestLocked(m)
	if err == nil {
		err = s.setRefLocked("job", h)
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Missing(m); len(got) != len(m.Entries) {
		t.Errorf("Missing = %v, want every entry", got)
	}
	if _, err := s.Materialize(m.Hash()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Materialize with missing blob: %v, want ErrNotFound", err)
	}
}

func TestGetManifestTampered(t *testing.T) {
	s := openTest(t)
	_, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("x")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	damage(t, s, s.manifests, h)
	if _, err := s.GetManifest(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetManifest of tampered manifest: %v, want ErrCorrupt", err)
	}
}

// TestDanglingParent adopts a manifest whose parent the store does not
// hold: walking its chain, and chaining a checkpoint onto it, are
// ErrNotFound.
func TestDanglingParent(t *testing.T) {
	s := openTest(t)
	m1, h1, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-0")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	orphan := &Manifest{ProgramDigest: 1, Machine: "m", Seq: 2, Parent: HashBytes([]byte("gone")), Entries: m1.Entries}
	if err := s.Adopt("job", orphan); err != nil {
		t.Fatal(err)
	}
	if chain, err := s.Chain(h1); err != nil || len(chain) != 1 {
		t.Fatalf("Chain of the root: %d manifests, %v", len(chain), err)
	}
	if _, err := s.Chain(orphan.Hash()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Chain over dangling parent: %v, want ErrNotFound", err)
	}
	// Chaining a new checkpoint onto a missing parent is refused too.
	if err := s.setRefLocked("job", HashBytes([]byte("gone"))); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-2")), 1, "m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Checkpoint onto missing parent: %v, want ErrNotFound", err)
	}
}

func TestCheckpointRejectsCorruptSnapshot(t *testing.T) {
	s := openTest(t)
	snap := testSnapshot([]byte("ok"))
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-6] },
		"bad magic":   func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c },
		"flipped crc": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0x01; return c },
	} {
		if _, _, _, err := s.CheckpointRef("job", mangle(snap), 1, "m"); err == nil {
			t.Errorf("%s snapshot checkpointed without error", name)
		}
		// A refused snapshot leaves nothing behind: no blob, no ref.
		if blobs, _ := s.Usage(); blobs != 0 {
			t.Errorf("%s snapshot left %d blobs in the store", name, blobs)
		}
		if _, ok, _ := s.Ref("job"); ok {
			t.Errorf("%s snapshot advanced the ref", name)
		}
	}
}

func TestDecodeManifestMalformed(t *testing.T) {
	good := (&Manifest{ProgramDigest: 1, Machine: "m", Seq: 1,
		Entries: []Entry{{Kind: 1, Length: 4, Hash: HashBytes([]byte("b"))}}}).Encode()
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    good[:3],
		"bad magic":      append([]byte{0, 0, 0, 0}, good[4:]...),
		"truncated tail": good[:len(good)-8],
		"trailing junk":  append(append([]byte(nil), good...), 0, 0, 0, 0),
		"no header":      good[:16],
	}
	// Absurd entry count: patch the count field (last 4 bytes before the
	// single 44-byte entry) to claim 2^19 entries.
	huge := append([]byte(nil), good...)
	countOff := len(good) - (12 + HashSize) - 4
	huge[countOff] = 0x00
	huge[countOff+1] = 0x08
	cases["oversized count"] = huge
	unknown := append([]byte(nil), good...)
	unknown[countOff+7] = 9
	cases["unknown kind"] = unknown
	for name, raw := range cases {
		if _, err := DecodeManifest(raw); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: DecodeManifest = %v, want ErrBadManifest", name, err)
		}
	}
}

package store

// Corruption-path coverage: every way an on-disk object can rot —
// truncated blob, tampered blob, tampered manifest, dangling parent —
// must surface as a typed error (ErrCorrupt / ErrNotFound), never as
// silently wrong data or a panic.

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/snapshot"
)

func TestGetBlobTruncated(t *testing.T) {
	s := openTest(t)
	body := []byte("a body long enough to truncate meaningfully")
	h := putBody(t, s, body)
	if err := os.WriteFile(s.blobPath(h), body[:len(body)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBlob(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBlob of truncated blob: %v, want ErrCorrupt", err)
	}
}

func TestGetBlobTampered(t *testing.T) {
	s := openTest(t)
	body := []byte("pristine content")
	h := putBody(t, s, body)
	evil := append([]byte(nil), body...)
	evil[0] ^= 0xff
	if err := os.WriteFile(s.blobPath(h), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBlob(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBlob of tampered blob: %v, want ErrCorrupt", err)
	}
}

// TestCheckpointRepairsCorruptBlob is the repair half of a rotten blob:
// the body arriving again must replace the bad file, so the next GetBlob
// serves it. A truncated or torn blob differs from the body in size,
// which a checkpoint sees without reading the file; a tampered blob of
// the right size is what BeginOverwrite, the responder's write for a body
// its store failed to serve, replaces.
func TestCheckpointRepairsCorruptBlob(t *testing.T) {
	s := openTest(t)
	body := []byte("a body long enough to truncate meaningfully")
	secs := []snapshot.Section{{Kind: snapshot.KindHeap, Body: body}}
	h := putBody(t, s, body)
	if err := os.WriteFile(s.blobPath(h), body[:len(body)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBlob(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBlob of truncated blob: %v, want ErrCorrupt", err)
	}
	if _, _, st, err := s.CheckpointSections("job", secs, nil, 1, "m"); err != nil || st.NewBlobs != 1 {
		t.Fatalf("checkpoint over a truncated blob: %+v, %v; want a rewrite", st, err)
	}
	if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob after the repair: %q, %v", got, err)
	}
	if _, _, st, err := s.CheckpointSections("job", secs, nil, 1, "m"); err != nil || st.DupBlobs != 1 {
		t.Errorf("checkpoint over an intact blob: %+v, %v; want a dedup", st, err)
	}

	evil := append([]byte(nil), body...)
	evil[0] ^= 0xff
	if err := os.WriteFile(s.blobPath(h), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	putBody(t, s, body)
	if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob after BeginOverwrite of a tampered blob: %q, %v", got, err)
	}
}

func TestMaterializeCorruptBlob(t *testing.T) {
	s := openTest(t)
	m, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("heap-body")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the heap component's blob on disk.
	var heap Hash
	for _, e := range m.Entries {
		if e.Kind == 2 { // snapshot.KindHeap
			heap = e.Hash
		}
	}
	if err := os.WriteFile(s.blobPath(heap), []byte("not the heap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Materialize(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Materialize over tampered blob: %v, want ErrCorrupt", err)
	}
}

func TestMaterializeMissingBlob(t *testing.T) {
	s := openTest(t)
	m, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("heap-body")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.blobPath(m.Entries[0].Hash)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Materialize(h); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Materialize with missing blob: %v, want ErrNotFound", err)
	}
}

func TestGetManifestTampered(t *testing.T) {
	s := openTest(t)
	_, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("x")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.manifestPath(h))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x55
	if err := os.WriteFile(s.manifestPath(h), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetManifest(h); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetManifest of tampered manifest: %v, want ErrCorrupt", err)
	}
}

func TestDanglingParent(t *testing.T) {
	s := openTest(t)
	_, h1, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-0")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	_, h2, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-1")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.manifestPath(h1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Chain(h2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Chain over dangling parent: %v, want ErrNotFound", err)
	}
	// Chaining a new checkpoint onto a missing parent is refused too.
	if err := s.setRefLocked("job", h1); err != nil {
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
		if blobs, _, _ := s.Usage(); blobs != 0 {
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
	}
	// Absurd entry count: patch the count field (last 4 bytes before the
	// single 44-byte entry) to claim 2^19 entries.
	huge := append([]byte(nil), good...)
	countOff := len(good) - (12 + HashSize) - 4
	huge[countOff] = 0x00
	huge[countOff+1] = 0x08
	cases["oversized count"] = huge
	for name, raw := range cases {
		if _, err := DecodeManifest(raw); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: DecodeManifest = %v, want ErrBadManifest", name, err)
		}
	}
}

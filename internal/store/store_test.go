package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/obs"
	"repro/internal/snapshot"
)

// testSections builds a plausible section list: exec, the given heap
// component bodies, one frame, and globals.
func testSections(heaps ...[]byte) []snapshot.Section {
	secs := []snapshot.Section{{Kind: snapshot.KindExec, Body: []byte("exec-body")}}
	for i, h := range heaps {
		secs = append(secs, snapshot.Section{Kind: snapshot.KindHeap, ID: uint32(i), Body: h})
	}
	secs = append(secs,
		snapshot.Section{Kind: snapshot.KindFrame, ID: 1, Body: []byte("frame-1-body")},
		snapshot.Section{Kind: snapshot.KindGlobals, Body: []byte("globals-body")})
	return secs
}

// testSnapshot is testSections framed.
func testSnapshot(heaps ...[]byte) []byte { return snapshot.Encode(testSections(heaps...)) }

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// putBody stores body as a responder stores a body it asked for.
func putBody(t *testing.T, s *Store, body []byte) Hash {
	t.Helper()
	h := HashBytes(body)
	if err := s.BeginOverwrite([]Hash{h}, [][]byte{body}).Wait(); err != nil {
		t.Fatal(err)
	}
	return h
}

// readOnly makes s's writes fail while its reads go on, by handing it a
// read-only handle on its pack; it returns the handle it replaced, which
// the caller puts back.
func readOnly(t *testing.T, s *Store) *os.File {
	t.Helper()
	f, err := os.Open(filepath.Join(s.dir, "pack"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	writable := s.pack
	s.pack = f
	return writable
}

func TestBlobRoundTrip(t *testing.T) {
	s := openTest(t)
	body := []byte("the quick brown fox")
	secs := []snapshot.Section{{Kind: snapshot.KindHeap, Body: body}}
	_, _, st, err := s.CheckpointSections("job", secs, nil, 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st.NewBlobs != 1 {
		t.Error("first put not fresh")
	}
	h := HashBytes(body)
	if !s.HoldsBlob(h, int64(len(body))) || s.HoldsBlob(h, int64(len(body))+1) {
		t.Error("HoldsBlob does not hold the body at its length after put")
	}
	if _, _, st, err = s.CheckpointSections("job", secs, nil, 1, "m"); err != nil || st.DupBlobs != 1 {
		t.Errorf("second put: %+v, %v; want dedup", st, err)
	}
	got, err := s.GetBlob(h)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBlob = %q, %v", got, err)
	}
	if s.HoldsBlob(HashBytes([]byte("absent")), 6) {
		t.Error("HoldsBlob true for absent body")
	}
	if _, err := s.GetBlob(HashBytes([]byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetBlob of an absent body: %v, want ErrNotFound", err)
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	m := &Manifest{
		ProgramDigest: 0xdeadbeef,
		Machine:       "ultra5",
		Seq:           7,
		Parent:        HashBytes([]byte("parent")),
		Entries: []Entry{
			{Kind: snapshot.KindExec, ID: 0, Length: 9, Hash: HashBytes([]byte("a"))},
			{Kind: snapshot.KindHeap, ID: 3, Length: 1 << 16, Hash: HashBytes([]byte("b"))},
		},
	}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ProgramDigest != m.ProgramDigest || got.Machine != m.Machine ||
		got.Seq != m.Seq || got.Parent != m.Parent || len(got.Entries) != len(m.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got.Entries[i], m.Entries[i])
		}
	}
	if got.Hash() != m.Hash() {
		t.Error("content address changed across round trip")
	}
}

func TestCheckpointMaterialize(t *testing.T) {
	s := openTest(t)
	snap := testSnapshot([]byte("heap-zero"), []byte("heap-one"))
	m, h, st, err := s.CheckpointRef("job", snap, 0x1234, "ultra5")
	if err != nil {
		t.Fatal(err)
	}
	if st.Sections != 5 || st.NewBlobs != 5 || st.DupBlobs != 0 {
		t.Errorf("first checkpoint stats: %+v", st)
	}
	if m.Seq != 1 || !m.Parent.IsZero() {
		t.Errorf("root manifest: seq %d parent %s", m.Seq, m.Parent)
	}
	if m.SnapshotBytes() != len(snap) {
		t.Errorf("SnapshotBytes = %d, snapshot is %d", m.SnapshotBytes(), len(snap))
	}
	out, err := s.Materialize(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, snap) {
		t.Fatal("materialized snapshot not byte-identical")
	}

	// Second checkpoint, chaining from the ref's head: one heap component
	// mutated, everything else dedups against the first.
	snap2 := testSnapshot([]byte("heap-zero"), []byte("heap-one-CHANGED"))
	m2, h2, st2, err := s.CheckpointRef("job", snap2, 0x1234, "ultra5")
	if err != nil {
		t.Fatal(err)
	}
	if st2.NewBlobs != 1 || st2.DupBlobs != 4 {
		t.Errorf("incremental checkpoint stats: %+v", st2)
	}
	if want := "5 sections (1 new, 4 dedup)"; !strings.HasPrefix(st2.String(), want) {
		t.Errorf("incremental checkpoint reads %q, want it to begin %q", st2, want)
	}
	if st2.WrittenBytes*2 > st2.SnapshotBytes {
		t.Errorf("wrote %d of %d snapshot bytes, want a dedup ratio >= 2 for a 1-of-5 mutation", st2.WrittenBytes, st2.SnapshotBytes)
	}
	if m2.Seq != 2 || m2.Parent != h {
		t.Errorf("chained manifest: seq %d parent %s (want %s)", m2.Seq, m2.Parent.Short(), h.Short())
	}
	out2, err := s.Materialize(h2)
	if err != nil || !bytes.Equal(out2, snap2) {
		t.Fatalf("materialize chained: identical=%v err=%v", bytes.Equal(out2, snap2), err)
	}
	chain, err := s.Chain(h2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Seq != 2 || chain[1].Seq != 1 {
		t.Errorf("chain walk: %d manifests", len(chain))
	}
}

func TestCheckpointRefAndResolve(t *testing.T) {
	s := openTest(t)
	_, h1, _, err := s.CheckpointRef("job", testSnapshot([]byte("v1")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	m2, h2, _, err := s.CheckpointRef("job", testSnapshot([]byte("v2")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Parent != h1 {
		t.Errorf("second CheckpointRef parent %s, want %s", m2.Parent.Short(), h1.Short())
	}
	if got, err := s.Resolve("job"); err != nil || got != h2 {
		t.Errorf("Resolve(job) = %s, %v; want %s", got.Short(), err, h2.Short())
	}
	if got, err := s.Resolve(h1.String()); err != nil || got != h1 {
		t.Errorf("Resolve(hash) = %s, %v", got.Short(), err)
	}
	if _, err := s.Resolve("no-such-ref"); err == nil {
		t.Error("Resolve of unknown target succeeded")
	}
	if refs := s.Refs(); len(refs) != 1 || refs[0] != "job" {
		t.Errorf("Refs = %v", refs)
	}
	if _, err := s.Resolve(HashBytes([]byte("no manifest")).String()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resolve of an unknown hash: %v, want ErrNotFound", err)
	}
}

func TestMissing(t *testing.T) {
	s := openTest(t)
	snap := testSnapshot([]byte("h0"), []byte("h1"))
	m, _, _, err := s.CheckpointRef("job", snap, 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	empty := openTest(t)
	if got := empty.Missing(m); len(got) != len(m.Entries) {
		t.Errorf("empty store missing %d of %d entries", len(got), len(m.Entries))
	}
	if got := s.Missing(m); got != nil {
		t.Errorf("full store missing %v", got)
	}
}

// TestOpenRejectsForeignFormat: a directory of another layout, such as
// the file-per-object migstore/1, is refused, not read as a pack.
func TestOpenRejectsForeignFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "format"), []byte("migstore/1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a migstore/1 directory: %v, want ErrCorrupt", err)
	}
	if _, err := Open(filepath.Join(dir, "format", "sub"), nil); err == nil {
		t.Error("Open under a file succeeded")
	}
	// An empty format file is one a crash cut before its first write landed.
	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, "format"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(fresh, nil)
	if err != nil {
		t.Fatalf("Open over an empty format file: %v", err)
	}
	s.Close()
	if b, err := os.ReadFile(filepath.Join(fresh, "format")); err != nil || string(b) != formatLine {
		t.Errorf("format file reads %q (%v), want %q", b, err, formatLine)
	}
}

// TestOpenHoldsTheDirectory: a second Store on a directory one already
// holds is refused, and Close lets the next one in, which finds what the
// first one stored.
func TestOpenHoldsTheDirectory(t *testing.T) {
	s := openTest(t)
	_, h, _, err := s.CheckpointRef("job", testSnapshot([]byte("held")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(s.Dir(), nil); !errors.Is(err, syscall.EWOULDBLOCK) {
		t.Fatalf("second Open of a held store: %v, want EWOULDBLOCK", err)
	}
	if got, err := reopen(t, s).Resolve("job"); err != nil || got != h {
		t.Fatalf("ref after Close and Open: %s, %v; want %s", got.Short(), err, h.Short())
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot([]byte("h0"))
	if _, _, _, err := s.CheckpointRef("job", snap, 1, "m"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.CheckpointRef("job", snap, 1, "m"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("store.blob.put").Value(); n != 4 {
		t.Errorf("store.blob.put = %d, want 4", n)
	}
	if n := reg.Counter("store.blob.dedup").Value(); n != 4 {
		t.Errorf("store.blob.dedup = %d, want 4 (identical second checkpoint)", n)
	}
	if reg.Counter("store.bytes.deduped").Value() == 0 {
		t.Error("store.bytes.deduped not counted")
	}
	if reg.Histogram("store.checkpoint.latency").Snapshot().Count != 2 {
		t.Error("checkpoint latency not observed")
	}
}

// TestConcurrentCheckpointsChainLinearly checkpoints one ref from several
// goroutines at once, half with BeginCheckpoint and half with
// CheckpointSections: the lock a checkpoint holds from reading its parent
// until its ref lands makes them one chain, each parent the previous one,
// seq strictly increasing, and none lost.
func TestConcurrentCheckpointsChainLinearly(t *testing.T) {
	s := openTest(t)
	const n = 8
	var wg sync.WaitGroup
	hashes := make([]Hash, n)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			secs := testSections([]byte(fmt.Sprintf("gen-%d", i)), []byte("shared"))
			var err error
			if i%2 == 0 {
				var m *Manifest
				var p *Pending
				if m, p, err = s.BeginCheckpoint("job", secs, nil, 1, "m"); err == nil {
					err, hashes[i] = p.Wait(), m.Hash()
				}
			} else {
				_, hashes[i], _, err = s.CheckpointSections("job", secs, nil, 1, "m")
			}
			if err != nil {
				errc <- fmt.Errorf("checkpoint %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	head, _, err := s.Ref("job")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := s.Chain(head)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != n {
		t.Fatalf("the ref's chain holds %d checkpoints, want all %d", len(chain), n)
	}
	inChain := map[Hash]bool{}
	for i, m := range chain {
		inChain[m.Hash()] = true
		if m.Seq != uint64(n-i) {
			t.Errorf("chain position %d has seq %d, want %d", i, m.Seq, n-i)
		}
	}
	for i, h := range hashes {
		if !inChain[h] {
			t.Errorf("checkpoint %d (%s) is not on the ref's chain", i, h.Short())
		}
	}
}

// TestBeginCheckpointFailures: a checkpoint that cannot be named (its
// parent is gone) returns the error at once, and one whose body write
// fails returns it from Wait with the ref where it was; either way the
// store lock is released, so the next checkpoint goes through.
func TestBeginCheckpointFailures(t *testing.T) {
	s := openTest(t)
	m1, h1, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-0")), 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.setRefLocked("dangling", Hash{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.BeginCheckpoint("dangling", testSections([]byte("x")), nil, 1, "m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("BeginCheckpoint onto a missing parent: %v, want ErrNotFound", err)
	}

	secs := testSections([]byte("gen-1"))
	writable := readOnly(t, s)
	_, p, err := s.BeginCheckpoint("job", secs, nil, 1, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, syscall.EBADF) {
		t.Fatalf("Wait over a pack that refuses writes: %v, want EBADF", err)
	}
	if head, _, err := s.Ref("job"); err != nil || head != h1 {
		t.Errorf("ref after a failed write: %s (err %v), want %s", head.Short(), err, h1.Short())
	}
	if err := s.Adopt("other", &Manifest{ProgramDigest: 1, Machine: "other", Seq: 1, Entries: m1.Entries}); !errors.Is(err, syscall.EBADF) {
		t.Errorf("Adopt into a pack that refuses writes: %v, want EBADF", err)
	}
	if _, ok, err := s.Ref("other"); ok || err != nil {
		t.Errorf("a failed Adopt set the ref (%v)", err)
	}
	s.pack = writable
	m, p, err := s.BeginCheckpoint("job", secs, nil, 1, "m")
	if err == nil {
		err = p.Wait()
	}
	if err != nil {
		t.Fatalf("checkpoint after the failure: %v", err)
	}
	if m.Parent != h1 {
		t.Errorf("checkpoint after the failure chains onto %s, want %s", m.Parent.Short(), h1.Short())
	}
}

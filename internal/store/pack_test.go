package store

// The pack's crash model and its hostile inputs: a pack cut anywhere
// reopens to the last synced checkpoint with no ref naming a record it
// lacks; a damaged record with valid records after it reads as
// ErrCorrupt and hides none of them; and Open survives any bytes at all.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/obs"
)

// boundaries lists the offset of every record of a pack, and its end.
func boundaries(t *testing.T, pack []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off < len(pack); {
		r, ok := parse(pack, off)
		if !ok {
			t.Fatalf("record at %d does not verify", off)
		}
		offs = append(offs, off)
		off = r.end
	}
	return append(offs, len(pack))
}

// crashStore writes n checkpoints of two refs into a fresh store, each
// rewriting one body, and returns its directory with the pack's size
// after each checkpoint, the checkpoints' addresses and the snapshots
// they hold.
func crashStore(t *testing.T, n int) (dir string, synced []int64, heads []Hash, snaps [][]byte) {
	t.Helper()
	s := openTest(t)
	for i := 0; i < n; i++ {
		ref := "job"
		if i%3 == 2 {
			ref = "side"
		}
		snap := testSnapshot([]byte("shared heap body"), []byte(fmt.Sprintf("generation %d of the rewritten heap body", i)))
		_, h, _, err := s.CheckpointRef(ref, snap, 7, "m")
		if err != nil {
			t.Fatal(err)
		}
		synced, heads, snaps = append(synced, s.size), append(heads, h), append(snaps, snap)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s.dir, synced, heads, snaps
}

// TestPackCrashCuts cuts the pack of several checkpoints at every record
// boundary and at seeded random offsets, and reopens each cut. No ref may
// name a missing blob or manifest, each ref must stand at its last
// checkpoint synced before the cut, which materializes byte for byte, and
// the next checkpoint must append whatever the cut lost.
func TestPackCrashCuts(t *testing.T) {
	const n = 6
	dir, synced, heads, snaps := crashStore(t, n)
	pack, err := os.ReadFile(filepath.Join(dir, "pack"))
	if err != nil {
		t.Fatal(err)
	}
	cuts := boundaries(t, pack)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cuts = append(cuts, rng.Intn(len(pack)+1))
	}
	work := t.TempDir()
	for _, cut := range cuts {
		if err := os.WriteFile(filepath.Join(work, "pack"), pack[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(work, obs.NewRegistry())
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if fi, err := os.Stat(filepath.Join(work, "pack")); err != nil || fi.Size() != s.size {
			t.Fatalf("cut at %d: the reopened pack holds %v bytes, want its torn tail cut at %d (%v)", cut, fi.Size(), s.size, err)
		}
		want := map[string]int{}
		for i := range synced {
			if synced[i] <= int64(cut) {
				want[map[bool]string{true: "side", false: "job"}[i%3 == 2]] = i
			}
		}
		for _, ref := range s.Refs() {
			h, _, err := s.Ref(ref)
			if err != nil {
				t.Fatalf("cut at %d: ref %s: %v", cut, ref, err)
			}
			m, err := s.GetManifest(h)
			if err != nil || len(s.Missing(m)) != 0 {
				t.Fatalf("cut at %d: ref %s names %s, which the pack lacks (%v, missing %v)", cut, ref, h.Short(), err, s.Missing(m))
			}
			i, ok := want[ref]
			if !ok || h != heads[i] {
				t.Fatalf("cut at %d: ref %s names %s, want checkpoint %d", cut, ref, h.Short(), i)
			}
			if got, err := s.Materialize(h); err != nil || !bytes.Equal(got, snaps[i]) {
				t.Fatalf("cut at %d: checkpoint %d does not materialize byte for byte (%v)", cut, i, err)
			}
			delete(want, ref)
		}
		if len(want) != 0 {
			t.Fatalf("cut at %d: refs %v lost a synced checkpoint", cut, want)
		}
		// The cut left the pack ending on a whole record, so the next
		// checkpoint appends whatever the cut took and reads back.
		_, h, _, err := s.CheckpointRef("job", snaps[n-1], 7, "m")
		if err != nil {
			t.Fatalf("cut at %d: checkpoint after the reopen: %v", cut, err)
		}
		s = reopen(t, s)
		if got, err := s.Materialize(h); err != nil || !bytes.Equal(got, snaps[n-1]) {
			t.Fatalf("cut at %d: the checkpoint after the reopen does not read back (%v)", cut, err)
		}
		s.Close()
	}
}

// TestFailedSyncForgetsTheUnsynced: after a sync fails, nothing appended
// since the last good one is known to be on disk, so the pack is cut back
// to it and the index forgets those records, this checkpoint's and
// another writer's alike. The ref stays where it was, an Adopt naming a
// forgotten body is refused, the next checkpoint appends the bodies
// again, and a reopen agrees.
func TestFailedSyncForgetsTheUnsynced(t *testing.T) {
	s := openTest(t)
	_, h1, _, err := s.CheckpointRef("job", testSnapshot([]byte("gen-0")), 7, "m")
	if err != nil {
		t.Fatal(err)
	}
	synced := s.size
	other := []byte("a body another session stored")
	hOther := putBody(t, s, other)

	defer func(sync func(*os.File) error) { syncPack = sync }(syncPack)
	syncPack = func(*os.File) error { return syscall.EIO }
	snap := testSnapshot([]byte("gen-1"))
	if _, _, _, err := s.CheckpointRef("job", snap, 7, "m"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint whose sync fails: %v, want EIO", err)
	}
	syncPack = (*os.File).Sync

	if fi, err := os.Stat(filepath.Join(s.dir, "pack")); err != nil || fi.Size() != synced || s.size != synced {
		t.Fatalf("after the failed sync the pack holds %v bytes (%v), appends land at %d; want both at %d", fi.Size(), err, s.size, synced)
	}
	if h, _, err := s.Ref("job"); err != nil || h != h1 {
		t.Fatalf("ref after the failed sync: %s (err %v), want %s", h.Short(), err, h1.Short())
	}
	if gen1 := []byte("gen-1"); s.HoldsBlob(hOther, int64(len(other))) || s.HoldsBlob(HashBytes(gen1), int64(len(gen1))) {
		t.Fatal("the index still holds a body appended after the last sync")
	}
	peer := &Manifest{ProgramDigest: 7, Machine: "m", Seq: 1, Entries: Entries(testSections(other), nil)}
	if err := s.Adopt("peer", peer); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Adopt naming a body the failed sync cut off: %v, want ErrNotFound", err)
	}
	_, h2, st, err := s.CheckpointRef("job", snap, 7, "m")
	if err != nil || st.NewBlobs != 1 {
		t.Fatalf("checkpoint after the failed sync: %+v, %v; want its one new body appended again", st, err)
	}
	s = reopen(t, s)
	if h, _, err := s.Ref("job"); err != nil || h != h2 {
		t.Fatalf("ref after the reopen: %s (err %v), want %s", h.Short(), err, h2.Short())
	}
	if got, err := s.Materialize(h2); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("the checkpoint after the failed sync does not read back (%v)", err)
	}
}

// TestPackDamagedMiddleRecord flips one byte inside each record of a pack
// of three checkpoints in turn, in each of its fields, and reopens it. A
// record whose header still spans it reads as ErrCorrupt; one whose kind,
// address or length the damage hit is filed under no address it had, so
// reading its address is an ErrNotFound (a ref's name is in its body, so
// a ref whose body changed is filed, damaged, under the name it now
// holds). A later valid record of the same ref wins over a damaged one;
// an earlier one does not, since the damaged record may have moved the
// ref: no ref reads an older head without an error. Every record the
// damage missed still reads.
func TestPackDamagedMiddleRecord(t *testing.T) {
	dir, _, heads, snaps := crashStore(t, 3)
	pack, err := os.ReadFile(filepath.Join(dir, "pack"))
	if err != nil {
		t.Fatal(err)
	}
	offs := boundaries(t, pack)
	sets := refRecords(pack, offs)
	work := t.TempDir()
	for k := 0; k+2 < len(offs); k++ { // the last record is the tail
		r, _ := parse(pack, offs[k])
		for field, at := range map[string]int{
			"kind": offs[k] + 1, "hash": offs[k] + 4, "length": offs[k] + 4 + HashSize + 3,
			"body": offs[k] + headerSize + int(r.at.n)/2, "crc": offs[k+1] - 1,
		} {
			bad := bytes.Clone(pack)
			bad[at] ^= 0x20
			if err := os.WriteFile(filepath.Join(work, "pack"), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(work, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			var readErr error
			want := ErrCorrupt
			switch r.kind {
			case kindBlob:
				_, readErr = s.GetBlob(r.h)
				if s.HoldsBlob(r.h, int64(r.at.n)) {
					t.Errorf("record %d, %s: the damaged blob is still held", k, field)
				}
			case kindManifest:
				_, readErr = s.GetManifest(r.h)
			case kindRef:
				name := r.name
				if field == "body" {
					name = string(bad[r.at.off : r.at.off+int64(r.at.n)])
				}
				_, _, readErr = s.Ref(name)
			}
			if r.kind != kindRef && field != "body" && field != "crc" {
				want = ErrNotFound
			}
			if ks := sets[r.name]; r.kind == kindRef && field != "body" &&
				(ks[len(ks)-1] > k || (field == "kind" || field == "length") && ks[0] == k) {
				want = nil // a later record wins, or no record of the name is left
			}
			if !errors.Is(readErr, want) {
				t.Errorf("record %d (%x), %s: read %v, want %v", k, r.kind, field, readErr, want)
			}
			for name, ks := range sets {
				last, _ := parse(pack, offs[ks[len(ks)-1]])
				h, ok, err := s.Ref(name)
				if err == nil && (ok && h != last.h || !ok && (len(ks) > 1 || ks[0] != k)) {
					t.Errorf("record %d, %s: ref %s reads %s (set %v) without an error, want %s", k, field, name, h.Short(), ok, last.h.Short())
				}
			}
			// Every checkpoint whose records the damage missed materializes.
			for i, h := range heads {
				m, err := s.GetManifest(h)
				if h == r.h || damagedBody(pack, offs, k, m) {
					continue
				}
				if err != nil || len(s.Missing(m)) != 0 {
					t.Errorf("record %d, %s: checkpoint %d, which the damage missed, is lost: %v", k, field, i, err)
				} else if got, err := s.Materialize(h); err != nil || !bytes.Equal(got, snaps[i]) {
					t.Errorf("record %d, %s: checkpoint %d does not read back: %v", k, field, i, err)
				}
			}
			for _, off := range offs[k+1 : len(offs)-1] {
				if o, _ := parse(pack, off); o.kind == kindBlob && o.h != r.h && !s.HoldsBlob(o.h, int64(o.at.n)) {
					t.Errorf("record %d, %s: the blob at %d after it is gone", k, field, off)
				}
			}
			s.Close()
		}
	}
}

// refRecords lists, for each ref the pack sets, the indices of the
// records that set it, in pack order.
func refRecords(pack []byte, offs []int) map[string][]int {
	sets := map[string][]int{}
	for k, off := range offs[:len(offs)-1] {
		if r, _ := parse(pack, off); r.kind == kindRef {
			sets[r.name] = append(sets[r.name], k)
		}
	}
	return sets
}

// damagedBody reports whether m lists the body of record k of the pack.
func damagedBody(pack []byte, offs []int, k int, m *Manifest) bool {
	r, _ := parse(pack, offs[k])
	if m == nil {
		return false
	}
	for _, e := range m.Entries {
		if e.Hash == r.h {
			return true
		}
	}
	return false
}

// FuzzOpen opens arbitrary bytes as a pack. Open must not panic, must
// allocate no more than the pack's size and a constant, and must index
// only records that verify: each blob it holds, manifest it names and ref
// it resolves is a record of the input whose CRC holds.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, err := s.CheckpointRef("job", testSnapshot([]byte(fmt.Sprintf("heap %d", i))), 1, "m"); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	pack, err := os.ReadFile(filepath.Join(dir, "pack"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pack)
	f.Add(pack[:len(pack)-3])
	flipped := bytes.Clone(pack)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("MPB\x01"))

	work := f.TempDir() // one pack at a time: a worker runs its inputs in turn
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(work, "pack"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(work, obs.NewRegistry())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Open of %d bytes: %v", len(raw), err)
		}
		defer s.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(raw))+1<<20 {
			t.Fatalf("Open of %d bytes allocated %d", len(raw), grew)
		}
		if s.size > int64(len(raw)) {
			t.Fatalf("the pack's valid records end at %d, past its %d bytes", s.size, len(raw))
		}
		verifies := func(l loc, kind uint32, h Hash) {
			r, ok := parse(raw, int(l.off)-headerSize)
			if !ok || r.kind != kind || r.h != h || r.at.n != l.n {
				t.Fatalf("the index files %x %s at %d, where no such record verifies", kind, h.Short(), l.off)
			}
		}
		for h, l := range s.blobs {
			if !l.bad {
				verifies(l, kindBlob, h)
			}
		}
		for h, l := range s.manifests {
			if !l.bad {
				verifies(l, kindManifest, h)
				if _, err := s.GetManifest(h); err != nil {
					t.Fatalf("indexed manifest %s does not read: %v", h.Short(), err)
				}
			}
		}
		for _, name := range s.Refs() {
			if h, ok, err := s.Ref(name); err == nil && (!ok || h.IsZero()) {
				t.Fatalf("ref %q resolves to nothing without an error", name)
			}
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/workload"
)

// pausedAtEveryPoll runs src on m to its first poll with every poll
// granted and nothing captured, so the process can be checkpointed and
// resumed poll after poll.
func pausedAtEveryPoll(t *testing.T, src string, policy minic.PollPolicy, m *arch.Machine) (*Engine, *vm.Process, *vm.Result) {
	t.Helper()
	e, err := NewEngine(src, policy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 20_000_000
	p.PollHook = func(*vm.Process, *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, p, res
}

// shiftingListsSrc empties one of six lists per round and regrows it
// inside a nested call, so heap components vanish and reappear, the
// untouched ones change position in the list, and the frame count varies
// from poll to poll: carried-over bodies come from other indices.
const shiftingListsSrc = `
	struct node { int v; struct node *next; };
	struct node *lists[6];
	int total;

	void grow(int k, int n) {
		struct node *c;
		int i;
		for (i = 0; i < n; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->v = k * 100 + i;
			c->next = lists[k];
			lists[k] = c;
		}
	}

	int main() {
		int r, k;
		struct node *c;
		for (k = 0; k < 6; k++) grow(k, 4);
		for (r = 0; r < 18; r++) {
			k = (r * 5) % 6;
			while (lists[k]) {
				c = lists[k];
				lists[k] = c->next;
				total += c->v;
				free(c);
			}
			grow(k, r % 3 + 1);
		}
		return total % 97;
	}
`

// TestWarmCheckpointsMatchFullCapture checkpoints programs at every poll
// through the capture a process keeps between checkpoints. Each manifest
// must list, entry for entry, what a fresh capture of the same paused
// state hashes to, and the checkpoint may hash only what it re-encoded:
// its re-encoded bodies and the manifest it stores. Its parent is named
// from the store's index, not read. On the mutating lists, one of which changes between polls,
// every checkpoint after the first must re-encode less than half the
// state.
func TestWarmCheckpointsMatchFullCapture(t *testing.T) {
	type input struct {
		name        string
		src         string
		policy      minic.PollPolicy
		incremental bool
	}
	inputs := []input{
		{"mutating_shards", workload.MutatingShardsSource(8, 20, 12), minic.PollPolicy{}, true},
		{"bitonic", workload.BitonicSource(256, 1), minic.DefaultPolicy, false},
		{"shifting_lists", shiftingListsSrc, minic.DefaultPolicy, false},
	}
	for seed := int64(0); seed < 12; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("random_%d", seed), workload.RandomProgram(seed), minic.DefaultPolicy, false})
	}
	machines := []*arch.Machine{arch.DEC5000, arch.SPARC20, arch.AMD64, arch.I386}
	for i, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			m := machines[i%len(machines)]
			e, p, res := pausedAtEveryPoll(t, in.src, in.policy, m)
			st, err := store.Open(t.TempDir(), obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			polls := 0
			for ; res.Migrated; polls++ {
				before := obs.SHA256Bytes.Value()
				man, _, _, err := e.CheckpointProcess(st, p, m, "ref")
				if err != nil {
					t.Fatalf("poll %d: %v", polls, err)
				}
				hashed := obs.SHA256Bytes.Value() - before
				fresh, raw := p.CaptureStats().Bytes, len(man.Encode())
				if want := int64(fresh + raw); hashed != want {
					t.Fatalf("poll %d: the checkpoint hashed %d bytes, want %d: %d re-encoded and a %d-byte manifest",
						polls, hashed, want, fresh, raw)
				}

				secs := sectionsOf(t, p)
				want, total := store.Entries(secs, nil), 0
				for _, sec := range secs {
					total += len(sec.Body)
				}
				if len(man.Entries) != len(want) {
					t.Fatalf("poll %d: manifest lists %d sections, a fresh capture %d", polls, len(man.Entries), len(want))
				}
				for k := range want {
					if man.Entries[k] != want[k] {
						t.Fatalf("poll %d entry %d: manifest %+v, fresh capture %+v", polls, k, man.Entries[k], want[k])
					}
				}
				if in.incremental && polls > 0 && 2*fresh >= total {
					t.Errorf("poll %d: re-encoded %d of %d body bytes, want less than half", polls, fresh, total)
				}
				if res, err = p.ResumeRun(); err != nil {
					t.Fatal(err)
				}
			}
			if polls == 0 {
				t.Fatal("the program never polled")
			}
		})
	}
}

// shardsAtPoll is the mutating lists paused at their first poll, with a
// store to checkpoint them into.
func shardsAtPoll(t *testing.T) (*Engine, *vm.Process, *store.Store) {
	t.Helper()
	e, p, res := pausedAtEveryPoll(t, workload.MutatingShardsSource(8, 20, 1<<30), minic.PollPolicy{}, arch.DEC5000)
	if !res.Migrated {
		t.Fatal("no poll reached")
	}
	st, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return e, p, st
}

// advance resumes p to its next poll: one list rewritten in place.
func advance(t *testing.T, p *vm.Process) {
	t.Helper()
	if res, err := p.ResumeRun(); err != nil || !res.Migrated {
		t.Fatalf("advance: %+v, %v", res, err)
	}
}

// exactCheckpoint checkpoints p under "ref" and requires the checkpoint
// to materialize to p's full capture byte for byte. It returns how many
// body bytes the checkpoint re-encoded, and of how many.
func exactCheckpoint(t *testing.T, e *Engine, st *store.Store, p *vm.Process) (fresh, total int) {
	t.Helper()
	_, h, _, err := e.CheckpointProcess(st, p, p.Mach, "ref")
	if err != nil {
		t.Fatal(err)
	}
	fresh = p.CaptureStats().Bytes
	got, err := st.Materialize(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint %s materializes to %d bytes that differ from the %d-byte full capture", h.Short(), len(got), len(want))
	}
	return fresh, p.CaptureStats().Bytes
}

// incremental requires a checkpoint to have re-encoded one list's worth,
// not the state.
func incremental(t *testing.T, what string, fresh, total int) {
	t.Helper()
	if 4*fresh >= total {
		t.Errorf("%s re-encoded %d of %d body bytes; want one list's worth", what, fresh, total)
	}
}

// TestWarmCheckpointsAcrossLiveCapture interleaves warm checkpoints with
// unkeyed rounds of the same capture, as a live session to a responder
// without a store takes them. A body an unkeyed round re-encodes or carries
// over has no key, so the next checkpoint must hash it, not copy a key an
// older round gave the section at that index: every checkpoint must match
// the state, and stay incremental. A capture replaced by NewLiveCapture
// starts over, so its first round encodes every body.
func TestWarmCheckpointsAcrossLiveCapture(t *testing.T) {
	e, p, st := shardsAtPoll(t)
	exactCheckpoint(t, e, st, p)
	advance(t, p)
	fresh, total := exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after one mutation", fresh, total)

	for i := 0; i < 2; i++ {
		advance(t, p)
		if _, err := p.Round(nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh, total = exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint right after unkeyed rounds", fresh, total)
	advance(t, p)
	if _, err := p.Round(nil); err != nil {
		t.Fatal(err)
	}
	advance(t, p)
	fresh, total = exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after an unkeyed round and a mutation", fresh, total)

	lc := p.NewLiveCapture(0)
	if _, err := lc.Round(); err != nil {
		t.Fatal(err)
	}
	if got := p.CaptureStats().Bytes; got != total {
		t.Errorf("the first round of a new live capture re-encoded %d of %d body bytes; want a full one", got, total)
	}
	advance(t, p)
	fresh, total = exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after a new live capture's round", fresh, total)
}

// TestWarmCheckpointsAcrossRestore interleaves warm checkpoints with
// restores. A restore into a process that has frames is refused before
// it touches anything, so the kept capture stays exact; one that starts
// discards it; and a process restored from a checkpoint keeps a capture
// of its own, full first and incremental after.
func TestWarmCheckpointsAcrossRestore(t *testing.T) {
	e, p, st := shardsAtPoll(t)
	exactCheckpoint(t, e, st, p)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreInto(snap); err == nil {
		t.Fatal("RestoreInto a running process was accepted")
	}
	advance(t, p)
	fresh, total := exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after a refused restore", fresh, total)

	p.NewRestore()
	advance(t, p)
	if fresh, total = exactCheckpoint(t, e, st, p); fresh != total {
		t.Errorf("the checkpoint after a restore began re-encoded %d of %d body bytes; want a full one", fresh, total)
	}

	h, _, err := st.Ref("ref")
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := e.RestoreFromStore(st, h, arch.SPARC20)
	if err != nil {
		t.Fatal(err)
	}
	q.PollHook = p.PollHook
	qst, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if fresh, total = exactCheckpoint(t, e, qst, q); fresh != total {
		t.Errorf("a restored process's first checkpoint re-encoded %d of %d body bytes; want a full one", fresh, total)
	}
	advance(t, q)
	fresh, total = exactCheckpoint(t, e, qst, q)
	incremental(t, "a restored process's second checkpoint", fresh, total)
}

// damageRef flips a byte in the address of the pack record that points
// the ref "ref" at head, as rot would, and reopens the store. The record
// is found by its bytes: its kind ("MPR\x01"), head, the name's length
// and the name.
func damageRef(t *testing.T, st *store.Store, head store.Hash) *store.Store {
	t.Helper()
	pack := filepath.Join(st.Dir(), "pack")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(raw, append(append([]byte("MPR\x01"), head[:]...), 0, 0, 0, 3, 'r', 'e', 'f'))
	if at < 0 {
		t.Fatalf("no ref record points ref at %s", head.Short())
	}
	raw[at+4+store.HashSize/2] ^= 0x20
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(st.Dir(), obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestWarmCheckpointFailures covers the ways a checkpoint fails. One
// that fails at the store has already taken its round, whose re-encoded
// bodies never reached the store: the next checkpoint carries them over
// and must still store and name them. The store may refuse the appends,
// or the ref: one whose pack record is damaged, with valid records after
// it, is an ErrCorrupt, and a checkpoint onto it must start no new
// chain. A round that fails discards the kept capture and turns the
// write barrier off.
func TestWarmCheckpointFailures(t *testing.T) {
	e, p, st := shardsAtPoll(t)
	exactCheckpoint(t, e, st, p)
	head, _, err := st.Ref("ref")
	if err != nil {
		t.Fatal(err)
	}
	advance(t, p)
	// A closed store answers from its index but refuses every append.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.CheckpointProcess(st, p, p.Mach, "ref"); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("checkpoint into a store that refuses writes: %v, want os.ErrClosed", err)
	}
	if st, err = store.Open(st.Dir(), obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if h, _, err := st.Ref("ref"); err != nil || h != head {
		t.Fatalf("ref after the failed checkpoint: %s (err %v), want it left at %s", h.Short(), err, head.Short())
	}
	advance(t, p)
	fresh, total := exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after a failed one", fresh, total)

	// A second ref's checkpoint puts a valid record after the ref's own.
	if head, _, err = st.Ref("ref"); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Materialize(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.CheckpointRef("other", snap, e.Digest(), p.Mach.Name); err != nil {
		t.Fatal(err)
	}
	st = damageRef(t, st, head)
	for i := 0; i < 2; i++ {
		advance(t, p)
		if _, _, _, err := e.CheckpointProcess(st, p, p.Mach, "ref"); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("checkpoint %d onto a damaged ref: %v, want store.ErrCorrupt", i, err)
		}
		if h, _, err := st.Ref("ref"); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("ref after refused checkpoint %d: %s (err %v), want store.ErrCorrupt, not a new chain", i, h.Short(), err)
		}
	}
	// A later record of the ref, as a responder's Adopt writes, sets it
	// again, and the next checkpoint chains onto it.
	m, err := st.GetManifest(head)
	if err == nil {
		err = st.Adopt("ref", m)
	}
	if err != nil {
		t.Fatal(err)
	}
	advance(t, p)
	fresh, total = exactCheckpoint(t, e, st, p)
	incremental(t, "the checkpoint after a refused one", fresh, total)
	if h, _, err := st.Ref("ref"); err != nil {
		t.Fatal(err)
	} else if m, err := st.GetManifest(h); err != nil || m.Parent != head {
		t.Fatalf("the checkpoint after a refused one chains onto %v (err %v), want %s", m, err, head.Short())
	}

	idle, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idle.Round(store.Key); err == nil {
		t.Fatal("a process that never ran was checkpointed")
	}
	// With the barrier off, a write leaves nothing dirty.
	if _, err := idle.Space.Malloc(8); err != nil {
		t.Fatal(err)
	}
	if idle.Space.DirtySince(0) != 0 {
		t.Error("a failed round left the write barrier on")
	}
}

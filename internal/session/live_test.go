package session

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/vm"
	"repro/internal/workload"
)

// newMutatingEngine compiles the mutating-shards workload: nlists
// independent heap lists, one mutated per poll round. Exit 0 proves every
// mutation survived.
func newMutatingEngine(t *testing.T, rounds int) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(workload.MutatingShardsSource(4, 20, rounds), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stoppedLive runs the program on m to its first poll, where it pauses
// resumable, as pre-copy rounds require, at every poll it reaches.
func stoppedLive(t testing.TB, e *core.Engine, m *arch.Machine) *vm.Process {
	t.Helper()
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 50_000_000
	p.PollHook = func(_ *vm.Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	return p
}

// TestTransferLiveMatrix drives the live pre-copy protocol across the
// same five endianness/word-size pairs as TestTransferMatrix. After the
// transfer the source is still paused at its final round, so the restored
// process must re-collect to the byte-identical machine-independent state
// a stop-and-copy capture of that paused source produces — the v4
// correctness contract — and then run to completion.
func TestTransferLiveMatrix(t *testing.T) {
	pairs := []struct {
		src, dst *arch.Machine
	}{
		{arch.DEC5000, arch.SPARC20}, // LE ILP32 -> BE ILP32
		{arch.SPARC20, arch.AMD64},   // BE ILP32 -> LE LP64
		{arch.AMD64, arch.SPARCV9},   // LE LP64  -> BE LP64
		{arch.SPARCV9, arch.DEC5000}, // BE LP64  -> LE ILP32
		{arch.I386, arch.Alpha},      // LE ILP32 (packed doubles) -> LE LP64
	}
	for _, pr := range pairs {
		pr := pr
		t.Run(fmt.Sprintf("v4/%s_to_%s", pr.src.Name, pr.dst.Name), func(t *testing.T) {
			t.Parallel()
			e := newMutatingEngine(t, 8)
			p := stoppedLive(t, e, pr.src)
			// DirtyThreshold 1 keeps the loop iterating until the dirty
			// set stalls, so several delta rounds actually run.
			q, res, err := Transfer(e, "shards", p, pr.dst,
				Config{ChunkSize: 4096, Live: true, PrecopyRounds: 3, DirtyThreshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Params != (Params{Live: true}) {
				t.Fatalf("negotiated %+v, want live", res.Params)
			}
			st := res.Live
			if st == nil || len(st.Rounds) < 2 {
				t.Fatalf("live stats %+v, want at least round 0 + final", st)
			}
			if !st.Rounds[len(st.Rounds)-1].Final || st.Rounds[0].Final {
				t.Fatalf("final flags wrong across rounds: %+v", st.Rounds)
			}
			if st.Downtime <= 0 {
				t.Error("no downtime measured")
			}
			if st.StopReason == "" {
				t.Error("no stop reason recorded")
			}
			// Dedup must engage: later rounds re-ship only dirty sections.
			total := 0
			for _, r := range st.Rounds {
				total += r.Sections
			}
			if st.SectionsSent >= total {
				t.Errorf("sent %d of %d section instances; delta rounds reused nothing", st.SectionsSent, total)
			}
			if tm := res.Timing; tm.Bytes == 0 || tm.Restore <= 0 || tm.Collect <= 0 {
				t.Errorf("timing %+v, want bytes, collect and restore recorded", tm)
			}
			addsUp(t, "initiator", res.Timing, st)
			if res.Timing.Restore != q.RestoreElapsed() {
				t.Errorf("Transfer reports restore %v, the responder's restore took %v", res.Timing.Restore, q.RestoreElapsed())
			}
			// The source is still paused at the final round's site; the
			// restored process must re-collect byte-identically.
			direct, err := p.CaptureSections(0)
			if err != nil {
				t.Fatal(err)
			}
			re, err := q.CaptureSections(0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, direct) {
				t.Errorf("restored state on %s differs from stop-and-copy capture of the paused source (%d vs %d bytes)",
					pr.dst.Name, len(re), len(direct))
			}
			q.MaxSteps = 50_000_000
			r, err := q.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Migrated || r.ExitCode != 0 {
				t.Errorf("restored run = %+v, want exit 0 (all mutations intact)", r)
			}
		})
	}
}

// TestLiveWriteRateBytes bounds what live pre-copy ships across write
// rates: 16 heap lists, k of them rewritten between polls. At every rate
// the restored process finishes with every mutation intact, and the wire
// carries at most one snapshot per round plus 1% of framing. While the
// writer dirties at most 2 of 16 lists per poll, the final round — the
// bytes shipped with the source paused — is at most a quarter of the
// snapshot; a steady writer re-dirties its share between polls, so that
// share is the floor.
func TestLiveWriteRateBytes(t *testing.T) {
	for _, k := range []int{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			t.Parallel()
			e, err := core.NewEngine(workload.WriteRateSource(16, 200, k, 10), minic.PollPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			p := stoppedLive(t, e, arch.Ultra5)
			q, res, err := Transfer(e, "write-rate", p, arch.Ultra5,
				Config{Live: true, PrecopyRounds: 4, DirtyThreshold: 4})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Live
			rounds, final := len(st.Rounds), st.Rounds[len(st.Rounds)-1].Bytes
			if k <= 2 && 4*final > st.SnapshotBytes {
				t.Errorf("final round %d B of a %d B snapshot, want <= 25%%", final, st.SnapshotBytes)
			}
			if 100*res.Timing.Bytes > 101*rounds*st.SnapshotBytes {
				t.Errorf("%d wire bytes over %d rounds of a %d B snapshot, want <= 1.01x one snapshot per round",
					res.Timing.Bytes, rounds, st.SnapshotBytes)
			}
			q.MaxSteps = 50_000_000
			r, err := q.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Migrated || r.ExitCode != 0 {
				t.Errorf("restored run = %+v, want exit 0 (every mutation intact)", r)
			}
		})
	}
}

// TestLiveFallbackToLegacyResponder pins the compatibility contract: a
// live initiator against a responder that does not speak v4 degrades to
// the ordinary negotiated stop-and-copy transfer with byte-identical wire
// volume, and reports no live stats.
func TestLiveFallbackToLegacyResponder(t *testing.T) {
	e := newMutatingEngine(t, 8)

	// Baseline: a pure-legacy sectioned transfer of the same paused state.
	legacyP := stoppedLive(t, e, arch.DEC5000)
	_, legacy, err := Transfer(e, "shards", legacyP, arch.SPARC20,
		Config{ChunkSize: 4096})
	if err != nil {
		t.Fatal(err)
	}

	p := stoppedLive(t, e, arch.DEC5000)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("shards", e)
	type rr struct {
		info Info
		q    *vm.Process
		err  error
	}
	c := make(chan rr, 1)
	go func() {
		// Responder without Live: negotiates plain sectioned.
		info, q, err := Respond(b, reg, arch.SPARC20, Config{ChunkSize: 4096})
		c <- rr{info, q, err}
	}()
	res, err := Initiate(a, e, p.Mach, "shards", p, Config{ChunkSize: 4096, Live: true})
	r := <-c
	if err != nil || r.err != nil {
		t.Fatalf("fallback transfer: initiate=%v respond=%v", err, r.err)
	}
	if res.Params != (Params{}) || res.Live != nil {
		t.Fatalf("fallback negotiated %+v, want the cold shape", res.Params)
	}
	if res.Timing.Bytes != legacy.Timing.Bytes {
		t.Errorf("fallback wired %d bytes, pure-legacy wired %d — must be identical",
			res.Timing.Bytes, legacy.Timing.Bytes)
	}
	runRestored(t, r.q, 0)
}

// TestLiveFromRestoredSource is one hop of a migration chain made live:
// the source of the live session is a process restored by an earlier hop
// and not yet resumed. Pre-copy resumes it from the restored image, so the
// session runs rounds while it executes; what the destination restores is
// the state the source paused at for the final round, and it runs out to
// the unmigrated exit code.
func TestLiveFromRestoredSource(t *testing.T) {
	e := newMutatingEngine(t, 8)
	ref, err := e.NewProcess(arch.Ultra5)
	if err != nil {
		t.Fatal(err)
	}
	ref.MaxSteps = 50_000_000
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	hop, _, err := Transfer(e, "shards", stoppedLive(t, e, arch.AMD64), arch.SPARC20, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hop.MaxSteps = 50_000_000
	hop.PollHook = func(*vm.Process, *minic.Site) bool { return true }
	q, res, err := Transfer(e, "shards", hop, arch.SPARCV9,
		Config{Live: true, PrecopyRounds: 3, DirtyThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Live.Rounds); n < 2 {
		t.Errorf("%d rounds (%s); want pre-copy rounds before the final one", n, res.Live.StopReason)
	}
	paused, err := hop.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := q.Recapture(); err != nil || !bytes.Equal(got, paused) {
		t.Fatalf("restored state differs from the source's final pause (err %v)", err)
	}
	runRestored(t, q, want.ExitCode)
}

// TestLiveSourceExited covers the abort: when the source runs to
// completion between rounds there is nothing to migrate — the initiator
// reports ErrSourceExited and the responder sees the abort notice.
func TestLiveSourceExited(t *testing.T) {
	e := newMutatingEngine(t, 1) // one poll: the resume after round 0 exits
	p := stoppedLive(t, e, arch.AMD64)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("shards", e)
	type rr struct {
		info Info
		err  error
	}
	resp := make(chan rr, 1)
	go func() {
		info, _, err := Respond(b, reg, arch.SPARC20, Config{Live: true})
		resp <- rr{info, err}
	}()
	res, err := Initiate(a, e, p.Mach, "shards", p, Config{Live: true})
	if !errors.Is(err, ErrSourceExited) {
		t.Fatalf("initiate err = %v, want ErrSourceExited", err)
	}
	if res == nil || res.Live == nil || len(res.Live.Rounds) == 0 {
		t.Fatalf("no partial live stats returned: %+v", res)
	}
	r := <-resp
	if !errors.Is(r.err, ErrLiveAborted) {
		t.Fatalf("responder err = %v, want ErrLiveAborted", r.err)
	}
	// Both sides account for the rounds that crossed before the abort.
	addsUp(t, "initiator", res.Timing, res.Live)
	addsUp(t, "responder", r.info.Timing, r.info.Live)
	if res.Timing.Bytes != r.info.Timing.Bytes {
		t.Errorf("initiator reports %d bytes of rounds, responder received %d", res.Timing.Bytes, r.info.Timing.Bytes)
	}
}

// TestLiveWarmCompose checks the store composition: with a store on the
// responder — the initiator holds none — the live rounds name their bodies
// by content hash, so against a destination store already holding a
// checkpoint of the paused state a live round 0 resolves the clean
// sections locally and ships only what changed since, and the program's
// ref there moves to the final round's list.
func TestLiveWarmCompose(t *testing.T) {
	e := newMutatingEngine(t, 8)
	dstStore := openTestStore(t)

	// Seed the destination store with a checkpoint of the first pause.
	seed := stoppedLive(t, e, arch.DEC5000)
	snap, err := seed.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	_, seeded, _, err := dstStore.CheckpointRef("shards", snap, e.Digest(), arch.DEC5000.Name)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process paused at the same point migrates live; round 0's
	// manifest must resolve every section from the seeded store.
	p := stoppedLive(t, e, arch.DEC5000)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("shards", e)
	type rr struct {
		info Info
		q    *vm.Process
		err  error
	}
	c := make(chan rr, 1)
	go func() {
		info, q, err := Respond(b, reg, arch.SPARC20,
			Config{Live: true, Store: dstStore, PrecopyRounds: 3, DirtyThreshold: 1})
		c <- rr{info, q, err}
	}()
	res, err := Initiate(a, e, p.Mach, "shards", p,
		Config{Live: true, PrecopyRounds: 3, DirtyThreshold: 1})
	r := <-c
	if err != nil || r.err != nil {
		t.Fatalf("live transfer: initiate=%v respond=%v", err, r.err)
	}
	if res.Params != (Params{Warm: true, Live: true}) {
		t.Fatalf("negotiated %+v, want live rounds named by content hash", res.Params)
	}
	st := res.Live
	if st == nil || len(st.Rounds) == 0 {
		t.Fatal("no live stats")
	}
	if st.Rounds[0].SectionsSent != 0 {
		t.Errorf("round 0 shipped %d of %d sections despite a warm destination store",
			st.Rounds[0].SectionsSent, st.Rounds[0].Sections)
	}
	h, ok, err := dstStore.Ref("shards")
	if err != nil || !ok || h == seeded {
		t.Fatalf("destination ref = %s (ok=%v, err=%v), want it moved past the seeded %s", h.Short(), ok, err, seeded.Short())
	}
	if m, err := dstStore.GetManifest(h); err != nil || len(m.Entries) != st.Rounds[len(st.Rounds)-1].Sections {
		t.Errorf("ref names %+v (err %v), want the final round's list", m, err)
	}
	runRestored(t, r.q, 0)
}

// shapesSrc changes the shape of its heap components between polls: it
// splices one list onto another (merge), cuts one in two (split), frees one
// (drop) and allocates a new one (appear), while a write-rate list whose
// blocks stay the same sees a shrinking write set, which keeps the
// pre-copy loop going round by round. A node fills a dirty-tracking block
// of its own, so the write set shrinks block by block.
const shapesSrc = `
struct node { int v; int pad[64]; struct node *next; };
struct node *heads[6];
struct node *w;

int main() {
	int r, i, k, s;
	struct node *c, *n;
	for (k = 0; k < 4; k++) {
		for (i = 0; i < 8; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->v = k * 100 + i;
			c->next = heads[k];
			heads[k] = c;
		}
	}
	for (i = 0; i < 120; i++) {
		c = (struct node *) malloc(sizeof(struct node));
		c->v = i;
		c->next = w;
		w = c;
	}
	for (r = 0; r < 10; r++) {
		c = w;
		for (i = 0; i < 100 - 20 * r; i++) {
			c->v = c->v + 1;
			c = c->next;
		}
		if (r == 1) {
			c = heads[0];
			while (c->next != 0) c = c->next;
			c->next = heads[1];
			heads[1] = 0;
		}
		if (r == 2) {
			c = heads[0];
			for (i = 0; i < 3; i++) c = c->next;
			heads[4] = c->next;
			c->next = 0;
		}
		if (r == 3) {
			c = heads[2];
			while (c != 0) { n = c->next; free(c); c = n; }
			heads[2] = 0;
		}
		if (r == 4) {
			for (i = 0; i < 6; i++) {
				c = (struct node *) malloc(sizeof(struct node));
				c->v = 500 + i;
				c->next = heads[5];
				heads[5] = c;
			}
		}
		migrate_here();
	}
	s = 0;
	for (k = 0; k < 6; k++) {
		c = heads[k];
		while (c != 0) { s = s + c->v; c = c->next; }
	}
	c = w;
	while (c != 0) { s = s + c->v; c = c->next; }
	return s & 255;
}
`

// TestLiveComponentsChangeShape migrates a process whose heap components
// merge, split, disappear and appear between pre-copy rounds, live from a
// little-endian to a big-endian machine. The destination applies each
// round on arrival: the list whose directory holds is refilled in place,
// the others are dropped and restored anew. The restored process must
// re-collect like the paused source and exit like it, and hold no stale
// block: its heap and table are exactly those of a process restored from
// the final list in one call (which the recapture alone cannot see, as an
// unreachable leftover is never collected).
func TestLiveComponentsChangeShape(t *testing.T) {
	e, err := core.NewEngine(shapesSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p := stoppedLive(t, e, arch.DEC5000)
	q, res, err := Transfer(e, "shapes", p, arch.SPARC20,
		Config{Live: true, PrecopyRounds: 8, DirtyThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Live.Rounds); n < 6 {
		t.Fatalf("%d rounds (%s); want one per shape change and the final one", n, res.Live.StopReason)
	}
	want, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := q.Recapture(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored state differs from the paused source's (err %v)", err)
	}
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	oneCall, err := e.NewProcess(arch.SPARC20)
	if err == nil {
		err = oneCall.RestoreInto(snap)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Space.HeapLive(), oneCall.Space.HeapLive(); got != want {
		t.Errorf("restored heap holds %d blocks, a restore of the final list %d", got, want)
	}
	if got, want := q.Table.Len(), oneCall.Table.Len(); got != want {
		t.Errorf("restored table holds %d blocks, a restore of the final list %d", got, want)
	}
	st := q.RestoreStatsOf()
	t.Logf("%d rounds (%s): %d components refilled in place, %d dropped", len(res.Live.Rounds), res.Live.StopReason, st.Refilled, st.Dropped)
	if st.Refilled == 0 || st.Dropped == 0 {
		t.Errorf("%d components refilled in place and %d dropped; want both branches taken", st.Refilled, st.Dropped)
	}
	p.PollHook = nil // the source runs on to its exit
	src, err := p.ResumeRun()
	if err != nil || src.Migrated {
		t.Fatalf("source: %+v, %v", src, err)
	}
	runRestored(t, q, src.ExitCode)
}

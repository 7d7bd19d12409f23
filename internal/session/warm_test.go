package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

func openTestStore(t testing.TB) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// transferWith runs the full protocol over a pipe with distinct initiator
// and responder configs — the store fields make the two sides genuinely
// asymmetric, which Transfer's shared-config convenience cannot express.
// The responder's registry is a new one, which holds no kept shell.
func transferWith(t testing.TB, e *core.Engine, program string, p *vm.Process, dst *arch.Machine, srcCfg, dstCfg Config) (*Result, Info, *vm.Process) {
	t.Helper()
	reg := NewRegistry()
	reg.Add(program, e)
	return transferThrough(t, reg, e, program, p, dst, srcCfg, dstCfg)
}

// transferThrough is transferWith through the responder registry reg, as
// a daemon serves one session after another.
func transferThrough(t testing.TB, reg *Registry, e *core.Engine, program string, p *vm.Process, dst *arch.Machine, srcCfg, dstCfg Config) (*Result, Info, *vm.Process) {
	t.Helper()
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	type rr struct {
		info Info
		q    *vm.Process
		err  error
	}
	c := make(chan rr, 1)
	go func() {
		info, q, err := Respond(b, reg, dst, dstCfg)
		if err != nil {
			// Fail the initiator's pending reads so both sides join.
			b.Close()
		}
		c <- rr{info, q, err}
	}()
	res, err := Initiate(a, e, p.Mach, program, p, srcCfg)
	if err != nil {
		a.Close()
		b.Close()
	}
	r := <-c
	if err != nil {
		t.Fatalf("initiate: %v (responder: %v)", err, r.err)
	}
	if r.err != nil {
		t.Fatalf("respond: %v", r.err)
	}
	return res, r.info, r.q
}

// runRestored drives a restored process to completion and checks the exit.
func runRestored(t *testing.T, q *vm.Process, wantExit int) {
	t.Helper()
	q.MaxSteps = 10_000_000
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != wantExit {
		t.Errorf("exit = %d, want %d", res.ExitCode, wantExit)
	}
}

// warmListSrc is listSrc scaled to 400 nodes, so the snapshot dwarfs the
// manifest and the <10%-of-cold wire criterion is meaningful.
// 400*401/2 = 80200; 80200 % 128 = 72.
const warmListSrc = `
	struct node { float data; struct node *link; };
	struct node *head;
	int main() {
		int i, sum;
		struct node *c;
		head = 0;
		for (i = 1; i <= 400; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->data = i;
			c->link = head;
			head = c;
		}
		migrate_here();
		sum = 0;
		c = head;
		while (c) {
			sum += (int)c->data;
			c = c->link;
		}
		return sum % 128;
	}
`

const warmListExit = 72

// TestWarmTransferColdThenWarm covers the store-assisted path end to end:
// the first migration fills the destination store (every section crosses),
// a re-migration of an identical process transfers the manifest and
// nothing else.
func TestWarmTransferColdThenWarm(t *testing.T) {
	e, err := core.NewEngine(warmListSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	srcStore, dstStore := openTestStore(t), openTestStore(t)
	srcCfg := Config{Store: srcStore}
	dstCfg := Config{Store: dstStore}

	// Cold-path baseline: the plain sectioned transfer's wire size for the
	// same stopped state.
	pb := stoppedAt(t, e, arch.DEC5000)
	baselineRes, _, qb := transferWith(t, e, "list", pb, arch.SPARC20, Config{}, Config{})
	baseline := baselineRes.Timing
	runRestored(t, qb, warmListExit)

	p1 := stoppedAt(t, e, arch.DEC5000)
	res1, info1, q1 := transferWith(t, e, "list", p1, arch.SPARC20, srcCfg, dstCfg)
	if res1.Warm == nil || info1.Warm == nil {
		t.Fatal("warm stats missing from a store-to-store transfer")
	}
	if res1.Warm.Sections == 0 || res1.Warm.SectionsSent != res1.Warm.Sections {
		t.Errorf("first transfer into an empty store: sent %d of %d sections, want all",
			res1.Warm.SectionsSent, res1.Warm.Sections)
	}
	if info1.Warm.ManifestHash != res1.Warm.ManifestHash {
		t.Error("initiator and responder disagree on the checkpoint shipped")
	}
	runRestored(t, q1, warmListExit)

	// Both stores hold the checkpoint under the program ref.
	for name, s := range map[string]*store.Store{"src": srcStore, "dst": dstStore} {
		h, ok, err := s.Ref("list")
		if err != nil || !ok || h != res1.Warm.ManifestHash {
			t.Fatalf("%s store ref: hash %s ok=%v err=%v, want %s",
				name, h.Short(), ok, err, res1.Warm.ManifestHash.Short())
		}
	}

	// An identical process re-migrates warm: the destination already holds
	// every section body, so only the manifest crosses the wire.
	p2 := stoppedAt(t, e, arch.DEC5000)
	res2, _, q2 := transferWith(t, e, "list", p2, arch.SPARC20, srcCfg, dstCfg)
	if res2.Warm == nil {
		t.Fatal("second transfer not warm")
	}
	if res2.Warm.SectionsSent != 0 {
		t.Errorf("unchanged process re-sent %d sections", res2.Warm.SectionsSent)
	}
	if res2.Timing.Bytes*10 >= baseline.Bytes {
		t.Errorf("unchanged warm transfer used %d wire bytes, want < 10%% of the %d-byte cold transfer",
			res2.Timing.Bytes, baseline.Bytes)
	}
	runRestored(t, q2, warmListExit)

	// The second checkpoint chains onto the first in both stores.
	m2, err := dstStore.GetManifest(res2.Warm.ManifestHash)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq != 2 || m2.Parent != res1.Warm.ManifestHash {
		t.Errorf("second checkpoint: seq %d parent %s, want 2 / %s",
			m2.Seq, m2.Parent.Short(), res1.Warm.ManifestHash.Short())
	}
}

// TestWarmFallsBackToLegacyPeer pins the interop contract: a store-less
// peer on either side leaves the session on the cold chunk stream, with
// the same wire byte count a store-less pairing produces.
func TestWarmFallsBackToLegacyPeer(t *testing.T) {
	e := newListEngine(t)
	legacy := runTransfer(t, Config{})

	cases := []struct {
		name           string
		srcCfg, dstCfg Config
	}{
		{"responder without store", Config{Store: openTestStore(t)}, Config{}},
		{"initiator without store", Config{}, Config{Store: openTestStore(t)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := stoppedAt(t, e, arch.DEC5000)
			res, info, q := transferWith(t, e, "list", p, arch.SPARC20, c.srcCfg, c.dstCfg)
			if res.Warm != nil || info.Warm != nil {
				t.Error("mixed pairing reported warm stats")
			}
			if res.Params != (Params{}) {
				t.Errorf("negotiated %+v, want the cold shape", res.Params)
			}
			if res.Timing.Bytes != legacy.Bytes {
				t.Errorf("fallback transfer wired %d bytes, pure-legacy wired %d — must be identical",
					res.Timing.Bytes, legacy.Bytes)
			}
			runRestored(t, q, listExit)
		})
	}
}

// corruptingTransport flips one byte of every sent frame for which at
// returns a position (negative: leave the frame alone); other traffic
// passes untouched.
type corruptingTransport struct {
	link.Transport
	at func(frame []byte) int
}

func (c corruptingTransport) Send(b []byte) error {
	if pos := c.at(b); pos >= 0 && pos < len(b) {
		b = append([]byte(nil), b...)
		b[pos] ^= 0x40
	}
	return c.Transport.Send(b)
}

// TestWarmRejectsCorruptSectionBody damages a BODIES frame in flight: the
// responder must refuse the body (its hash no longer matches the announced
// entry) with an error classified as corrupt-stream, and its store must
// not name the damaged checkpoint.
func TestWarmRejectsCorruptSectionBody(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("list", e)
	dstStore := openTestStore(t)
	type rr struct{ err error }
	c := make(chan rr, 1)
	go func() {
		_, _, err := Respond(b, reg, arch.SPARC20, Config{Store: dstStore})
		if err != nil {
			// Fail the initiator's pending confirm read so it joins.
			b.Close()
		}
		c <- rr{err}
	}()
	mangled := corruptingTransport{Transport: a, at: func(f []byte) int {
		// A session frame's type word is bytes 4..8 (XDR big-endian). Flip
		// inside the final section body, six bytes from the end.
		if len(f) > 64 && wire.Name(f) == "bodies" {
			return len(f) - 6
		}
		return -1
	}}
	_, err := Initiate(mangled, e, p.Mach, "list", p, Config{Store: openTestStore(t)})
	a.Close()
	b.Close()
	r := <-c
	if !errors.Is(r.err, store.ErrCorrupt) {
		t.Fatalf("responder error = %v, want store.ErrCorrupt", r.err)
	}
	if ClassifyFailure(r.err) != FailCorrupt {
		t.Errorf("classified %s, want %s", ClassifyFailure(r.err), FailCorrupt)
	}
	if err == nil {
		t.Error("initiator completed against a failed responder")
	}
	// The destination store must not have adopted the damaged checkpoint.
	if _, ok, _ := dstStore.Ref("list"); ok {
		t.Error("destination ref advanced past a corrupt transfer")
	}
}

// sameState requires the restored process q to re-collect to the state
// of the paused source p.
func sameState(t *testing.T, p, q *vm.Process) {
	t.Helper()
	want, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored state differs from the source (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWarmReshipsTornDestinationBlobOnce crashes the destination in the
// middle of a blob's append: its pack is cut inside the blob's record and
// the store reopened, which cuts the torn record off with what followed
// it. The ref stays where the last synced checkpoint left it, and the
// next warm transfer of the same state asks for exactly the bodies the
// cut lost; the transfer after that ships nothing.
func TestWarmReshipsTornDestinationBlobOnce(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	first, _, _ := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	advance(t, p)
	res, _, _ := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	m, err := dstCfg.Store.GetManifest(res.Warm.ManifestHash)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := dstCfg.Store.GetManifest(first.Warm.ManifestHash)
	if err != nil {
		t.Fatal(err)
	}
	torn := m.Entries[0]
	for _, en := range m.Entries { // a body the second transfer shipped
		if !slices.ContainsFunc(m0.Entries, func(e store.Entry) bool { return e.Hash == en.Hash }) {
			torn = en
		}
	}
	body, err := dstCfg.Store.GetBlob(torn.Hash)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dstCfg.Store.Dir(), "pack")
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(bytes.LastIndex(pack, body)+len(body)/2)); err != nil {
		t.Fatal(err)
	}
	dstCfg.Store = reopenStore(t, dstCfg.Store)
	if h, _, err := dstCfg.Store.Ref("shards"); err != nil || h != first.Warm.ManifestHash {
		t.Fatalf("ref after the crash: %s (err %v), want the first checkpoint %s", h.Short(), err, first.Warm.ManifestHash.Short())
	}
	lost := len(dstCfg.Store.Missing(m))
	if lost == 0 || dstCfg.Store.HoldsBlob(torn.Hash, int64(torn.Length)) {
		t.Fatalf("the crash lost %d bodies and left the torn one held", lost)
	}
	for i, want := range []int{lost, 0} {
		res, _, q := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
		if res.Warm.SectionsSent != want {
			t.Errorf("transfer %d after the crash sent %d of %d sections, want %d", i+1, res.Warm.SectionsSent, res.Warm.Sections, want)
		}
		sameState(t, p, q)
		if h, _, err := dstCfg.Store.Ref("shards"); err != nil || h != res.Warm.ManifestHash {
			t.Errorf("transfer %d after the crash: ref %s (err %v), want %s", i+1, h.Short(), err, res.Warm.ManifestHash.Short())
		} else if _, _, err := dstCfg.Store.Sections(h); err != nil {
			t.Errorf("transfer %d after the crash: the checkpoint does not read back: %v", i+1, err)
		}
	}
}

// TestWarmReshipsTamperedDestinationBlobOnce rots one blob of the
// destination's store in place, keeping its size. The next warm transfer
// of the same state finds it failing verification and asks for it again;
// the responder must append the verified body again, so the transfer
// after that resolves it locally and ships nothing.
func TestWarmReshipsTamperedDestinationBlobOnce(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	res, _, q := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	sameState(t, p, q)
	m, err := dstCfg.Store.GetManifest(res.Warm.ManifestHash)
	if err != nil {
		t.Fatal(err)
	}
	damageBlob(t, dstCfg.Store, m.Entries[1].Hash)

	for i, want := range []int{1, 0} {
		res, _, q := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
		if res.Warm.SectionsSent != want {
			t.Errorf("transfer %d after the tamper sent %d of %d sections, want %d", i+1, res.Warm.SectionsSent, res.Warm.Sections, want)
		}
		sameState(t, p, q)
	}
	if _, _, err := dstCfg.Store.Sections(res.Warm.ManifestHash); err != nil {
		t.Errorf("the re-shipped blob still fails: %v", err)
	}
}

// TestWarmLiveWarmOnOneSource migrates one source warm, then live with
// stores on both ends, then warm again, advancing it between transfers.
// Every transfer takes the next round of the one capture the source keeps,
// so the warm transfer after the live one re-encodes what the source wrote
// since the live session's final round — one list of four, not the state;
// every restored process must hold the source's state.
func TestWarmLiveWarmOnOneSource(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	warmCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t), Live: true}
	liveCfg := warmCfg
	liveCfg.Live = true
	encoded := obs.Default.Counter("xdr.encode.bytes")
	var full int64
	for i, cfg := range []Config{warmCfg, warmCfg, liveCfg, warmCfg, warmCfg} {
		before := encoded.Value()
		res, _, q := transferWith(t, e, "shards", p, arch.SPARC20, cfg, dstCfg)
		if (res.Live != nil) != cfg.Live {
			t.Fatalf("transfer %d: live stats %v, want live %v", i, res.Live != nil, cfg.Live)
		}
		switch got := encoded.Value() - before; i {
		case 0:
			full = got
		case 3:
			if 2*got >= full {
				t.Errorf("the warm transfer after the live one re-encoded %d of %d bytes; want less than half", got, full)
			}
		}
		sameState(t, p, q)
		if run, err := p.ResumeRun(); err != nil || !run.Migrated {
			t.Fatalf("advance after transfer %d: %+v, %v", i, run, err)
		}
	}
}

// TestLiveAfterCheckpoint migrates one source warm, advances it one poll,
// and then migrates it live to a responder without a store. The live
// session's round 0 is the next round of the capture the warm transfer
// left, so it re-encodes one list of eight rather than the state, and
// hashes nothing. The responder never saw that capture's earlier rounds:
// round 0 must still ship every body, byte for byte as a fresh source's
// round 0 at the same state does.
func TestLiveAfterCheckpoint(t *testing.T) {
	e, err := core.NewEngine(workload.MutatingShardsSource(8, 20, 1<<30), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	encoded := obs.Default.Counter("xdr.encode.bytes")
	// live migrates src at its next poll and returns the session's stats,
	// the bytes round 0 encoded — read at the first poll the source reaches
	// after it, before round 1 is captured — and the bytes SHA-256 saw.
	live := func(src *vm.Process) (st *Exchange, round0, hashed int64) {
		t.Helper()
		if run, err := src.ResumeRun(); err != nil || !run.Migrated {
			t.Fatalf("advance: %+v, %v", run, err)
		}
		before, sha := encoded.Value(), obs.SHA256Bytes.Value()
		round0 = -1
		src.PollHook = func(*vm.Process, *minic.Site) bool {
			if round0 < 0 {
				round0 = encoded.Value() - before
			}
			return true
		}
		res, _, q := transferWith(t, e, "shards", src, arch.SPARC20, Config{Live: true}, Config{Live: true})
		sameState(t, src, q)
		if round0 < 0 {
			t.Fatal("the source ran no pre-copy round")
		}
		return res.Live, round0, obs.SHA256Bytes.Value() - sha
	}

	p := stoppedLive(t, e, arch.DEC5000)
	transferWith(t, e, "shards", p, arch.SPARC20, Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)})
	st, round0, hashed := live(p)
	fresh, full, _ := live(stoppedLive(t, e, arch.DEC5000))

	if 4*round0 >= full {
		t.Errorf("round 0 after a checkpoint re-encoded %d bytes; want under a quarter of a fresh round 0's %d", round0, full)
	}
	if hashed != 0 {
		t.Errorf("the store-less rounds handed %d bytes to SHA-256, want 0", hashed)
	}
	if r, f := st.Rounds[0], fresh.Rounds[0]; r.SectionsSent != r.Sections || r.Bytes != f.Bytes {
		t.Errorf("round 0 after a checkpoint sent %d of %d sections in %d bytes; a fresh source's sent %d in %d",
			r.SectionsSent, r.Sections, r.Bytes, f.SectionsSent, f.Bytes)
	}
}

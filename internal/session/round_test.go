package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// TestHostileCountsAllocateByFrameSize holds the count-declaring frames to
// the memory their own bytes justify: each declares 1<<20 items it does
// not carry — both ANNOUNCE layouts behind a valid checksum, so the count
// reaches the section-list decoder — and decoding it must cost no more
// than 64 KiB plus sixteen times the frame. (A live responder used to
// size a 40-byte-per-entry slice from the declared count before reading
// one entry: 41.9 MB for a 24-byte frame.)
func TestHostileCountsAllocateByFrameSize(t *testing.T) {
	const declared = 1 << 20
	list := testManifest().Encode()
	// The entry count is the word before the first 44-byte entry.
	binary.BigEndian.PutUint32(list[len(list)-2*44-4:], declared)
	announce := header(wire.Announce, 64+len(list))
	announce.PutUint32(0)
	announce.PutUint32(announceFinal)
	announce.PutUint32(0)
	announce.PutOpaque(list)
	announce.PutUint32(crc32.ChecksumIEEE(announce.Bytes()))
	// A pushed list of two 20-byte entries that declares 1<<20.
	pushed := marshalAnnounce(0, announceFinal, 0, nil, testPushed())
	binary.BigEndian.PutUint32(pushed[20:], declared)
	binary.BigEndian.PutUint32(pushed[len(pushed)-4:], crc32.ChecksumIEEE(pushed[:len(pushed)-4]))
	counted := func(typ uint32) []byte {
		e := header(typ, 16)
		e.PutUint32(declared)
		e.PutUint32(0)
		e.PutUint32(0)
		return e.Bytes()
	}
	frames := map[string][]byte{
		"ANNOUNCE": announce.Bytes(),
		"push":     pushed,
		"WANT":     counted(wire.Want),
		"BODIES":   counted(wire.Bodies),
	}
	for name, frame := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseMessage(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s declaring %d items in %d bytes was accepted", name, declared, len(frame))
		}
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(frame)); got > ceiling {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes, ceiling %d", name, len(frame), got, ceiling)
		}
	}
}

// TestHostileWantIsRefusedBeforeBodies scripts a responder that answers a
// warm ANNOUNCE with a WANT no honest responder sends — it lists what it
// lacks in list order, once each. marshalBodies sizes its frame by the sum
// of the bodies named, so a 1 KB WANT repeating one index used to make the
// source build a frame hundreds of times its state. Each is refused with
// ErrProtocol before any body is gathered, nothing follows the ANNOUNCE on
// the wire, and the source stays paused and resumable: Rollback runs it on
// to its next poll.
func TestHostileWantIsRefusedBeforeBodies(t *testing.T) {
	e := newMutatingEngine(t, 8)
	p := stoppedLive(t, e, arch.DEC5000)
	cfg := Config{Store: openTestStore(t)}
	for _, tc := range []struct {
		name string
		want func(sections uint32) []uint32
	}{
		{"duplicate", func(uint32) []uint32 { return []uint32{0, 0} }},
		{"descending", func(uint32) []uint32 { return []uint32{1, 0} }},
		{"out of range", func(n uint32) []uint32 { return []uint32{0, n} }},
		{"one index 250 times", func(uint32) []uint32 { return make([]uint32, 250) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := link.Pipe()
			defer b.Close()
			errc := make(chan error, 1)
			go func() {
				_, err := Initiate(a, e, arch.DEC5000, "shards", p, cfg)
				a.Close()
				errc <- err
			}()
			if _, _, err := recvMessage(b, wire.Offer); err != nil {
				t.Fatal(err)
			}
			if err := b.Send(marshalAccept(Params{Warm: true})); err != nil {
				t.Fatal(err)
			}
			ann, _, err := recvMessage(b, wire.Announce)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Send(marshalWant(tc.want(uint32(len(ann.manifest.Entries))))); err != nil {
				t.Fatal(err)
			}
			if raw, err := b.Recv(); err == nil {
				t.Errorf("the initiator answered the WANT with a %d-byte frame", len(raw))
				b.Close()
			}
			if err := <-errc; !errors.Is(err, ErrProtocol) {
				t.Errorf("Initiate = %v, want ErrProtocol", err)
			}
			if res, err := Rollback(p, cfg); err != nil || !res.Migrated {
				t.Fatalf("rollback after a refused WANT: %+v, %v; want the source at its next poll", res, err)
			}
		})
	}
}

// churnSrc replaces its one list at every poll: the old nodes are freed
// and as many new ones allocated, so each round's heap component has block
// identities no earlier round had.
const churnSrc = `
struct node { double pay[8]; struct node *next; };
struct node *head;

int main() {
	int r, i;
	struct node *c, *n;
	for (r = 0; r < 40; r++) {
		c = head;
		while (c) { n = c->next; free(c); c = n; }
		head = 0;
		for (i = 0; i < 200; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->pay[0] = r + i;
			c->next = head;
			head = c;
		}
		migrate_here();
	}
	return r;
}
`

// scriptedLive opens a live session against a responder restoring on
// SPARC20 under cfg, as the initiator of program "churn", and returns the
// initiator's end with the channel the responder's outcome arrives on.
func scriptedLive(t *testing.T, e *core.Engine, cfg Config) (link.Transport, chan respondResult) {
	t.Helper()
	reg := NewRegistry()
	reg.Add("churn", e)
	a, b := link.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	out := make(chan respondResult, 1)
	go func() {
		_, q, err := Respond(b, reg, arch.SPARC20, cfg)
		b.Close()
		out <- respondResult{q, err}
	}()
	if err := a.Send(marshalOffer(offer{digest: e.Digest(), program: "churn", machine: "dec5000", caps: capLive})); err != nil {
		t.Fatal(err)
	}
	if acc, _, err := recvMessage(a, wire.Accept); err != nil || !acc.params.Live {
		t.Fatalf("handshake: %+v, %v; want a live ACCEPT", acc.params, err)
	}
	return a, out
}

type respondResult struct {
	q   *vm.Process
	err error
}

// sendScriptedRound announces secs as round k. Named by hash, for a
// responder holding a store, it ships the bodies the responder asks for;
// named by position, it lists every section as re-encoded this round — what
// a live capture does with the exec section and a replaced component — and
// ships every body unasked.
func sendScriptedRound(t *testing.T, a link.Transport, e *core.Engine, k int, final, byHash bool, secs []snapshot.Section) {
	t.Helper()
	var flags uint32
	if final {
		flags = announceFinal
	}
	var m *store.Manifest
	var list []entry
	send := make([]uint32, len(secs))
	if byHash {
		m = &store.Manifest{ProgramDigest: e.Digest(), Machine: "dec5000", Seq: 1, Entries: store.Entries(secs, nil)}
	} else {
		list = make([]entry, len(secs))
		for i, sec := range secs {
			list[i] = entry{kind: sec.Kind, id: sec.ID, length: uint32(len(sec.Body)), from: -1, crc: crc32.ChecksumIEEE(sec.Body)}
			send[i] = uint32(i)
		}
	}
	if err := a.Send(marshalAnnounce(uint32(k), flags, 0, m, list)); err != nil {
		t.Fatal(err)
	}
	if byHash {
		want, _, err := recvMessage(a, wire.Want)
		if err != nil {
			t.Fatal(err)
		}
		send = want.indices
	}
	bodies := make([][]byte, len(send))
	for i, idx := range send {
		bodies[i] = secs[idx].Body
	}
	if err := a.Send(marshalBodies(send, bodies)); err != nil {
		t.Fatal(err)
	}
}

// TestResponderHoldsOneRoundOfBodies scripts a live initiator whose every
// round replaces the program's one heap component with a new one. How many
// rounds run is the initiator's policy and never crosses the wire, so what
// the responder keeps must not grow with it: each round is applied into
// the shell on arrival, and a component the latest ANNOUNCE no longer
// lists leaves the shell. After ten such rounds and the final one the
// restored process holds one component's blocks, not eleven — exactly what
// a restore of the final list in one call holds. A round that is not final
// but whose body, though it matches its CRC (pushed) or its hash (into a
// store), does not decode fails the session at once: a classified failure,
// no process, no ref advanced.
func TestResponderHoldsOneRoundOfBodies(t *testing.T) {
	const rounds = 10
	e, err := core.NewEngine(churnSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("ten rounds", func(t *testing.T) {
		p := stoppedLive(t, e, arch.DEC5000)
		a, out := scriptedLive(t, e, Config{Live: true})
		var secs []snapshot.Section
		for k := 0; k <= rounds; k++ {
			secs = sectionsOf(t, p)
			sendScriptedRound(t, a, e, k, k == rounds, false, secs)
			if k < rounds {
				if res, err := p.ResumeRun(); err != nil || !res.Migrated {
					t.Fatalf("resume after round %d: %+v, %v", k, res, err)
				}
			}
		}
		if _, _, err := recvMessage(a, wire.Restored); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(marshalCommit()); err != nil {
			t.Fatal(err)
		}
		r := <-out
		if r.err != nil {
			t.Fatal(r.err)
		}
		oneCall, err := e.NewProcess(arch.SPARC20)
		if err != nil {
			t.Fatal(err)
		}
		if err := oneCall.RestoreSections(secs); err != nil {
			t.Fatal(err)
		}
		if got, want := r.q.Space.HeapLive(), oneCall.Space.HeapLive(); got != want || got != 200 {
			t.Errorf("after %d rounds each replacing the component the shell holds %d heap blocks, a restore of the final list %d; want 200", rounds, got, want)
		}
		if got, want := r.q.Table.Len(), oneCall.Table.Len(); got != want {
			t.Errorf("restored table holds %d blocks, a restore of the final list %d", got, want)
		}
		if got := r.q.RestoreStatsOf().Dropped; got != rounds {
			t.Errorf("%d components dropped over %d replacing rounds", got, rounds)
		}
		runRestored(t, r.q, 40)
	})
	t.Run("undecodable body in a pre-copy round", func(t *testing.T) {
		p := stoppedLive(t, e, arch.DEC5000)
		secs := sectionsOf(t, p)
		secs[1].Body = secs[1].Body[:len(secs[1].Body)-8] // the CRC and hash are computed over what is sent
		for _, dstStore := range []*store.Store{nil, openTestStore(t)} {
			a, out := scriptedLive(t, e, Config{Live: true, Store: dstStore})
			sendScriptedRound(t, a, e, 0, false, dstStore != nil, secs)
			r := <-out
			if class := ClassifyFailure(r.err); r.err == nil || class != FailCorrupt && class != FailMismatch {
				t.Fatalf("store %v: responder err = %v (class %s), want a corrupt or mismatch failure", dstStore != nil, r.err, class)
			}
			if r.q != nil {
				t.Errorf("store %v: responder handed out a process", dstStore != nil)
			}
			if dstStore == nil {
				continue
			}
			if h, ok, err := dstStore.Ref("churn"); ok || err != nil {
				t.Errorf("destination ref = %s (ok=%v, err=%v) after a failed round, want unset", h.Short(), ok, err)
			}
		}
	})
}

// TestFailedRestoreLeavesRefUnset scripts an initiator whose final round
// is well-formed — every body matches its announced length and hash — but
// whose exec section names a function the program does not have. The
// bodies may enter the destination store (they are content); the program's
// ref must not advance, because nothing was restored.
func TestFailedRestoreLeavesRefUnset(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	secs := sectionsOf(t, p)
	exec := xdr.NewEncoder(32)
	exec.PutUint32(1)
	exec.PutString("no_such_function")
	exec.PutUint32(0)
	secs[0].Body = exec.Bytes()
	m := &store.Manifest{ProgramDigest: e.Digest(), Machine: arch.DEC5000.Name, Seq: 1, Entries: store.Entries(secs, nil)}

	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("list", e)
	dstStore := openTestStore(t)
	errc := make(chan error, 1)
	go func() {
		_, q, err := Respond(b, reg, arch.SPARC20, Config{Store: dstStore})
		if q != nil {
			err = errors.New("responder handed out a process")
		}
		errc <- err
	}()
	if err := a.Send(marshalOffer(offer{digest: e.Digest(), program: "list", machine: "dec5000", caps: capWarm})); err != nil {
		t.Fatal(err)
	}
	if acc, _, err := recvMessage(a, wire.Accept); err != nil || !acc.params.Warm {
		t.Fatalf("handshake: %+v, %v; want a warm ACCEPT", acc.params, err)
	}
	if err := a.Send(marshalAnnounce(0, announceFinal, 0, m, nil)); err != nil {
		t.Fatal(err)
	}
	want, _, err := recvMessage(a, wire.Want)
	if err != nil || len(want.indices) != len(secs) {
		t.Fatalf("WANT = %v, %v; want all %d sections of an empty store", want.indices, err, len(secs))
	}
	bodies := make([][]byte, len(secs))
	for i, s := range secs {
		bodies[i] = s.Body
	}
	if err := a.Send(marshalBodies(want.indices, bodies)); err != nil {
		t.Fatal(err)
	}
	rerr := <-errc
	if class := ClassifyFailure(rerr); rerr == nil || class != FailMismatch && class != FailCorrupt {
		t.Fatalf("responder err = %v (class %s), want a mismatch or corrupt failure", rerr, class)
	}
	if h, ok, err := dstStore.Ref("list"); ok || err != nil {
		t.Errorf("destination ref = %s (ok=%v, err=%v) after a failed restore, want unset", h.Short(), ok, err)
	}
	if !dstStore.HoldsBlob(m.Entries[1].Hash, int64(m.Entries[1].Length)) {
		t.Error("verified bodies did not enter the store")
	}
}

// recordRun migrates a fresh process — resumable or captured at its stop —
// under cfg, with stores on both ends when asked, and a record-only
// injector around the connection. It returns the frame trace split by
// direction, each in its deterministic order.
func recordRun(t *testing.T, name string, cfg Config, stores, resumable bool) (fromSource, fromDest []string) {
	t.Helper()
	m := chaosMode{name: name, live: resumable}
	e := m.engine(t)
	srcCfg, dstCfg := cfg, cfg
	if stores {
		srcCfg.Store, dstCfg.Store = openTestStore(t), openTestStore(t)
	}
	rec := chaos.NewRecordOnly()
	initErr, q, respErr := runChaosMigration(t, m, e, m.fixture(t, e), rec, srcCfg, dstCfg)
	if initErr != nil || respErr != nil || q == nil {
		t.Fatalf("%s: clean run failed: init=%v resp=%v", name, initErr, respErr)
	}
	for _, ev := range rec.Trace() {
		if ev.FromSource {
			fromSource = append(fromSource, ev.Class)
		} else {
			fromDest = append(fromDest, ev.Class)
		}
	}
	return fromSource, fromDest
}

func repeat(n int, classes ...string) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, classes...)
	}
	return out
}

// TestProtocolTable states the protocol as a table: one clean run of each
// configuration, recorded below the session layer, must produce exactly
// the golden frame-class sequence in each direction.
func TestProtocolTable(t *testing.T) {
	seq := slices.Concat[[]string]
	one := func(c ...string) []string { return c }
	check := func(name string, gotSrc, gotDst, wantSrc, wantDst []string) {
		t.Helper()
		if !slices.Equal(gotSrc, wantSrc) || !slices.Equal(gotDst, wantDst) {
			t.Errorf("%s frames:\n  source %v\n  dest   %v\nwant:\n  source %v\n  dest   %v", name, gotSrc, gotDst, wantSrc, wantDst)
		}
	}
	small := Config{ChunkSize: 128}

	// cold: 2 + chunks + FIN + 2. The stream is one-directional: between
	// ACCEPT and RESTORED the responder sends nothing.
	src, dst := recordRun(t, "cold", small, false, false)
	chunks := len(src) - 3
	if chunks < 4 {
		t.Fatalf("cold run carried %d chunks; state too small to exercise the stream", chunks)
	}
	check("cold", src, dst,
		seq(one("offer"), repeat(chunks, "data"), one("fin", "commit")),
		one("accept", "restored"))

	// The round exchange with stores on both ends: 2 + 3·rounds + 2, the
	// responder answering each ANNOUNCE with a WANT. Without a store the
	// bodies follow the ANNOUNCE unasked: 2 + 2·rounds + 2, and the
	// responder sends nothing between ACCEPT and RESTORED.
	rounds := func(n int, stores bool) (fromSource, fromDest []string) {
		if !stores {
			return seq(one("offer"), repeat(n, "announce", "bodies"), one("commit")), one("accept", "restored")
		}
		return seq(one("offer"), repeat(n, "announce", "bodies"), one("commit")),
			seq(one("accept"), repeat(n, "want"), one("restored"))
	}
	oneSrc, oneDst := rounds(1, true)
	warmSrc, warmDst := recordRun(t, "warm", small, true, false)
	check("warm", warmSrc, warmDst, oneSrc, oneDst)
	liveCfg := Config{Live: true, PrecopyRounds: 3, DirtyThreshold: 1}
	for _, c := range []struct {
		name   string
		stores bool
	}{{"live", false}, {"live + warm", true}} {
		src, dst = recordRun(t, c.name, liveCfg, c.stores, true)
		n := (len(src) - 2) / 2
		if n < 2 {
			t.Fatalf("%s: %d rounds, want pre-copy rounds before the final one", c.name, n)
		}
		wantSrc, wantDst := rounds(n, c.stores)
		check(c.name, src, dst, wantSrc, wantDst)
	}
}

// TestRoundFrameCorruptionSweep flips every byte of the first ANNOUNCE and
// of the first BODIES frame in turn, on a warm transfer of the small list
// workload and on a live transfer of a small mutating-shards workload
// (two lists of two nodes, three polls). Section
// bodies are XDR and so four-byte aligned: neither frame has a padding byte
// its decoder could ignore, and every cell must fail the session — no
// process handed out, the destination's ref not advanced. A flipped body
// byte is caught by the SHA-256 a warm list names the body by, and by the
// CRC-32 of its entry in a live list pushed by position. The warm source is
// paused throughout, so its state must be untouched, and it is rolled back
// once at the end; a live source runs on while its first round ships, so
// each cell has a fresh one and rolls it back. Either must still run to its
// correct exit.
func TestRoundFrameCorruptionSweep(t *testing.T) {
	for _, col := range []struct {
		name string
		live bool
	}{{"warm", false}, {"live", true}} {
		t.Run(col.name, func(t *testing.T) {
			t.Parallel()
			e, name, exit := newListEngine(t), "list", listExit
			source := func() *vm.Process { return stoppedAt(t, e, arch.DEC5000) }
			if col.live {
				shards, err := core.NewEngine(workload.MutatingShardsSource(2, 2, 3), minic.PollPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				e, name, exit = shards, "shards", 0
				source = func() *vm.Process { return stoppedLive(t, e, arch.DEC5000) }
			}
			p := source()
			direct, err := p.Recapture()
			if err != nil {
				t.Fatal(err)
			}
			srcCfg := Config{Live: col.live}
			if !col.live {
				srcCfg.Store = openTestStore(t)
			}
			dstDir := t.TempDir()
			reg := NewRegistry()
			reg.Add(name, e)
			cells := 0
			// Frame 1 is the OFFER, 2 the ANNOUNCE, 3 the BODIES.
			for nth := 2; nth <= 3; nth++ {
				for pos, size := -1, 1; pos < size; pos++ {
					dstCfg := Config{Live: col.live}
					if !col.live {
						// A fresh destination store per cell: a failed cell may
						// leave verified bodies behind, which would shrink the
						// next cell's BODIES frame.
						st, err := store.Open(filepath.Join(dstDir, fmt.Sprintf("%d-%d", nth, pos)), obs.NewRegistry())
						if err != nil {
							t.Fatal(err)
						}
						dstCfg.Store = st
					}
					a, b := link.Pipe()
					type rr struct {
						q   *vm.Process
						err error
					}
					c := make(chan rr, 1)
					go func() {
						_, q, err := Respond(b, reg, arch.SPARC20, dstCfg)
						b.Close()
						c <- rr{q, err}
					}()
					if col.live {
						p = source()
					}
					sends, frameLen := 0, 0
					flip := corruptingTransport{Transport: a, at: func(f []byte) int {
						if sends++; sends != nth {
							return -1
						}
						frameLen = len(f)
						return pos
					}}
					_, initErr := Initiate(flip, e, p.Mach, name, p, srcCfg)
					a.Close()
					r := <-c
					if pos < 0 {
						// The clean pass measures the frame and must succeed.
						if initErr != nil || r.err != nil {
							t.Fatalf("clean run: initiate=%v respond=%v", initErr, r.err)
						}
						size = frameLen
						continue
					}
					cells++
					cell := fmt.Sprintf("frame %d byte %d/%d", nth, pos, size)
					if initErr == nil || r.err == nil || r.q != nil {
						t.Fatalf("%s: corruption accepted: initiate=%v respond=%v process=%v", cell, initErr, r.err, r.q != nil)
					}
					if col.live {
						p.PollHook = nil
						if res, err := Rollback(p, Config{}); err != nil || res.Migrated || res.ExitCode != exit {
							t.Fatalf("%s: source after the failed session: %+v, %v; want exit %d", cell, res, err, exit)
						}
						continue
					}
					if re, err := p.Recapture(); err != nil || !bytes.Equal(re, direct) {
						t.Fatalf("%s: source state disturbed (err %v)", cell, err)
					}
					if _, ok, _ := dstCfg.Store.Ref(name); ok {
						t.Fatalf("%s: destination ref advanced by a failed session", cell)
					}
				}
			}
			if cells < 500 {
				t.Errorf("only %d cells: the frames are too small to sweep", cells)
			}
			if col.live {
				return
			}
			res, err := Rollback(p, Config{})
			if err != nil || res.Migrated || res.ExitCode != exit {
				t.Errorf("source after the sweep: %+v, %v; want exit %d", res, err, exit)
			}
		})
	}
}

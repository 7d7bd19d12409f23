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
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
)

// failWrites makes every write of the store in *cfg fail: it closes the
// store, so its index still answers (a checkpoint is still named) but
// every read and append of its pack returns os.ErrClosed. The func it
// returns opens the store's directory again into *cfg, as a restarted
// node would, so what a check then reads is what reached the pack.
func failWrites(t *testing.T, cfg *Config) (reopen func()) {
	t.Helper()
	if err := cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		cfg.Store = reopenStore(t, cfg.Store)
	}
}

// reopenStore closes st, if it is open, and opens its directory again.
func reopenStore(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	st.Close()
	r, err := store.Open(st.Dir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// damageBlob flips one byte of the body st holds under h, on disk, as rot
// would. The index names the last copy of a body in the pack, so that is
// the one it damages; it fails the test unless st then refuses the body.
func damageBlob(t *testing.T, st *store.Store, h store.Hash) {
	t.Helper()
	body, err := st.GetBlob(h)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "pack")
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(pack, body) + len(body)/2
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{pack[at] ^ 0x40}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBlob(h); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("after the damage, GetBlob(%s) = %v, want ErrCorrupt", h.Short(), err)
	}
}

// sentTypes records the name of every frame sent through it.
type sentTypes struct {
	link.Transport
	names []string
}

func (s *sentTypes) Send(b []byte) error {
	s.names = append(s.names, wire.Name(b))
	return s.Transport.Send(b)
}

func (s *sentTypes) sent(name string) bool { return slices.Contains(s.names, name) }

// refsVerify requires the "shards" ref of every store to name a checkpoint
// whose every blob is present and hashes to its address.
func refsVerify(t *testing.T, stores ...*store.Store) {
	t.Helper()
	for i, st := range stores {
		h, ok, err := st.Ref("shards")
		if err != nil || !ok {
			t.Fatalf("store %d: ref ok=%v err=%v", i, ok, err)
		}
		if _, _, err := st.Sections(h); err != nil {
			t.Errorf("store %d: ref names %s, which does not verify: %v", i, h.Short(), err)
		}
	}
}

// failedWarm runs one warm session of p through reg, a store write of
// which the caller made fail, recording the frames each side sent. It
// returns both sides' errors, the process the responder handed out, and
// the frames.
func failedWarm(t *testing.T, reg *Registry, e *core.Engine, p *vm.Process, srcCfg, dstCfg Config) (initErr, respErr error, q *vm.Process, fromSrc, fromDst *sentTypes) {
	t.Helper()
	a, b := link.Pipe()
	fromSrc, fromDst = &sentTypes{Transport: a}, &sentTypes{Transport: b}
	type rr struct {
		q   *vm.Process
		err error
	}
	c := make(chan rr, 1)
	go func() {
		_, q, err := Respond(fromDst, reg, arch.SPARC20, dstCfg)
		b.Close()
		c <- rr{q, err}
	}()
	_, initErr = Initiate(fromSrc, e, p.Mach, "shards", p, srcCfg)
	a.Close()
	r := <-c
	return initErr, r.err, r.q, fromSrc, fromDst
}

// TestWarmSourceStoreFailureSendsNoCommit fails the source's checkpoint
// write, which runs beside the round exchange, after ANNOUNCE has left.
// The source must join it before COMMIT: it returns the store's error and
// sends no COMMIT, the responder hands out no process, and the source
// rolls back from the state it was paused in. Neither store's ref names a
// missing blob, the source's ref stays where it was, and the next warm
// migration succeeds.
func TestWarmSourceStoreFailureSendsNoCommit(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	reg := NewRegistry()
	reg.Add("shards", e)
	res, _, _ := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	advance(t, p)
	before, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}

	reopen := failWrites(t, &srcCfg)
	initErr, respErr, q, fromSrc, _ := failedWarm(t, reg, e, p, srcCfg, dstCfg)
	reopen()
	if !errors.Is(initErr, os.ErrClosed) {
		t.Fatalf("initiator error = %v, want the store write's os.ErrClosed", initErr)
	}
	if !fromSrc.sent("announce") || fromSrc.sent("commit") {
		t.Errorf("source sent %v; want an announce and no commit", fromSrc.names)
	}
	if q != nil || respErr == nil {
		t.Fatalf("responder handed out %v (err %v) without a COMMIT", q, respErr)
	}
	if after, err := p.Recapture(); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed attempt changed the paused source (err %v)", err)
	}
	refsVerify(t, srcCfg.Store, dstCfg.Store)
	if h, _, err := srcCfg.Store.Ref("shards"); err != nil || h != res.Warm.ManifestHash {
		t.Errorf("source ref = %s (err %v), want it left at %s", h.Short(), err, res.Warm.ManifestHash.Short())
	}
	if run, err := Rollback(p, srcCfg); err != nil || !run.Migrated {
		t.Fatalf("rollback: %+v, %v", run, err)
	}

	_, _, q = transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	sameState(t, p, q)
	refsVerify(t, srcCfg.Store, dstCfg.Store)
}

// TestWarmResponderStoreFailureBeforeRestored fails the responder's write
// of the bodies it asked for, which runs beside its apply: the session
// must fail before RESTORED, and the responder's ref stay where it was.
func TestWarmResponderStoreFailureBeforeRestored(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	reg := NewRegistry()
	reg.Add("shards", e)
	res, _, _ := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	advance(t, p)
	before, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}

	reopen := failWrites(t, &dstCfg)
	initErr, respErr, q, fromSrc, fromDst := failedWarm(t, reg, e, p, srcCfg, dstCfg)
	reopen()
	if !errors.Is(respErr, os.ErrClosed) || q != nil {
		t.Fatalf("responder: %v, %v; want no process and the store write's os.ErrClosed", q, respErr)
	}
	if initErr == nil || fromDst.sent("restored") || fromSrc.sent("commit") {
		t.Errorf("initiator err %v; responder sent %v, source %v; want a failure before RESTORED",
			initErr, fromDst.names, fromSrc.names)
	}
	if h, _, err := dstCfg.Store.Ref("shards"); err != nil || h != res.Warm.ManifestHash {
		t.Errorf("responder ref = %s (err %v), want it left at %s", h.Short(), err, res.Warm.ManifestHash.Short())
	}
	if after, err := p.Recapture(); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed attempt changed the paused source (err %v)", err)
	}
	if run, err := Rollback(p, srcCfg); err != nil || !run.Migrated {
		t.Fatalf("rollback: %+v, %v", run, err)
	}
	_, _, q = transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	sameState(t, p, q)
	refsVerify(t, srcCfg.Store, dstCfg.Store)
}

// TestWarmSharedStoreTransfers migrates one source warm again and again
// with Transfer, whose two ends share one store: the source's checkpoint
// writes, running beside the exchange, race the responder resolving the
// same checkpoint from that store. Every restore must hold the source's
// state, and the ref must name each checkpoint in turn, one chain, every
// blob present and verifying. How many bodies cross depends on how far
// the source's writes got, so that is not pinned.
func TestWarmSharedStoreTransfers(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	cfg := Config{Store: openTestStore(t)}
	for i := 0; i < 6; i++ {
		if i > 0 {
			advance(t, p)
		}
		q, res, err := Transfer(e, "shards", p, arch.SPARC20, cfg)
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		sameState(t, p, q)
		refsVerify(t, cfg.Store)
		m, err := cfg.Store.GetManifest(res.Warm.ManifestHash)
		if h, _, _ := cfg.Store.Ref("shards"); err != nil || h != res.Warm.ManifestHash || m.Seq != uint64(i+1) {
			t.Fatalf("transfer %d: ref %s, checkpoint %s (err %v); want the checkpoint shipped, seq %d",
				i, h.Short(), res.Warm.ManifestHash.Short(), err, i+1)
		}
	}
}

// TestWarmTransferKeepsNoShell: Transfer's registry dies with the call, so
// its warm session forks no shell for a later session that cannot come. A
// registry that outlives its session keeps one.
func TestWarmTransferKeepsNoShell(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	forked := func(rec *obs.FlightRecorder) bool {
		for _, ev := range rec.Events() {
			if ev.Kind == "session.keep" {
				return true
			}
		}
		return false
	}
	rec := obs.NewFlightRecorder(0)
	q, res, err := Transfer(e, "shards", p, arch.SPARC20, Config{Store: openTestStore(t), Recorder: rec})
	if err != nil || res.Warm == nil {
		t.Fatalf("Transfer: warm %v, %v", res.Warm, err)
	}
	sameState(t, p, q)
	if forked(rec) {
		t.Error("a warm Transfer forked its restore shell")
	}
	kept := Config{Store: openTestStore(t), Recorder: obs.NewFlightRecorder(0)}
	_, _, q = transferWith(t, e, "shards", p, arch.SPARC20, Config{Store: openTestStore(t)}, kept)
	sameState(t, p, q)
	if !forked(kept.Recorder) {
		t.Error("a warm session through a lasting registry kept no fork")
	}
}

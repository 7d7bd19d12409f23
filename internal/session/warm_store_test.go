package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
)

// blockShards makes st fail to write any body of twin's state it does not
// already hold: the blob shard directory each such body would land in is
// put aside and a plain file takes its place, which refuses the write even
// to root. twin is a process in the state the next checkpoint captures, so
// its bodies are that checkpoint's. The func it returns puts the shards
// back.
func blockShards(t *testing.T, st *store.Store, twin *vm.Process) (unblock func()) {
	t.Helper()
	secs := sectionsOf(t, twin)
	blocked := map[string]bool{}
	for _, sec := range secs {
		if h := store.HashBytes(sec.Body); !st.HasBlob(h) {
			blocked[h.String()[:2]] = true
		}
	}
	if len(blocked) == 0 {
		t.Fatal("the next checkpoint writes no body to block")
	}
	shard := func(name string) (string, string) {
		return filepath.Join(st.Dir(), "blobs", name), filepath.Join(st.Dir(), "aside-"+name)
	}
	for name := range blocked {
		dir, aside := shard(name)
		if err := os.Rename(dir, aside); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		t.Helper()
		for name := range blocked {
			dir, aside := shard(name)
			if err := os.Remove(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(aside, dir); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
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
		_, q, _, err := Respond(fromDst, reg, arch.SPARC20, dstCfg)
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
// missing blob, and the next warm migration succeeds.
func TestWarmSourceStoreFailureSendsNoCommit(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p, twin := stoppedLive(t, e, arch.DEC5000), stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	reg := NewRegistry()
	reg.Add("shards", e)
	transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	advance(t, p)
	advance(t, twin)
	before, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}

	unblock := blockShards(t, srcCfg.Store, twin)
	initErr, respErr, q, fromSrc, _ := failedWarm(t, reg, e, p, srcCfg, dstCfg)
	unblock()
	if !errors.Is(initErr, syscall.ENOTDIR) {
		t.Fatalf("initiator error = %v, want the store write's ENOTDIR", initErr)
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
	p, twin := stoppedLive(t, e, arch.DEC5000), stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstCfg := Config{Store: openTestStore(t)}, Config{Store: openTestStore(t)}
	reg := NewRegistry()
	reg.Add("shards", e)
	res, _, _ := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	advance(t, p)
	advance(t, twin)

	unblock := blockShards(t, dstCfg.Store, twin)
	initErr, respErr, q, fromSrc, fromDst := failedWarm(t, reg, e, p, srcCfg, dstCfg)
	unblock()
	if !errors.Is(respErr, syscall.ENOTDIR) || q != nil {
		t.Fatalf("responder: %v, %v; want no process and the store write's ENOTDIR", q, respErr)
	}
	if initErr == nil || fromDst.sent("restored") || fromSrc.sent("commit") {
		t.Errorf("initiator err %v; responder sent %v, source %v; want a failure before RESTORED",
			initErr, fromDst.names, fromSrc.names)
	}
	if h, _, err := dstCfg.Store.Ref("shards"); err != nil || h != res.Warm.ManifestHash {
		t.Errorf("responder ref = %s (err %v), want it left at %s", h.Short(), err, res.Warm.ManifestHash.Short())
	}
	if _, err := Rollback(p, srcCfg); err != nil {
		t.Fatal(err)
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
		q, res, _, err := Transfer(e, "shards", p, arch.SPARC20, cfg)
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
	q, res, _, err := Transfer(e, "shards", p, arch.SPARC20, Config{Store: openTestStore(t), Recorder: rec})
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

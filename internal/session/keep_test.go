package session

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
)

// tracedDst is a warm responder's config on store st whose session span
// records the restore, for heapApplied to count in.
func tracedDst(st *store.Store) Config {
	return Config{Store: st, Trace: obs.NewTracer().Start("session")}
}

// heapApplied counts the heap sections the responder traced by span
// decoded into its shell: the section children of its restore span.
func heapApplied(t *testing.T, span *obs.Span) int {
	t.Helper()
	n, restores := 0, 0
	for _, c := range span.Export().Children {
		if c.Name != "restore" {
			continue
		}
		restores++
		for _, s := range c.Children {
			if s.Name == "section" && s.Kind == "heap" {
				n++
			}
		}
	}
	if restores != 1 {
		t.Fatalf("the session span holds %d restore spans, want 1", restores)
	}
	return n
}

// keptFork reports whether reg keeps a fork for e's program, without
// taking it.
func keptFork(reg *Registry, e *core.Engine) bool {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return reg.byDigest[e.Digest()].kept != nil
}

// advance resumes the paused source p to its next poll.
func advance(t *testing.T, p *vm.Process) {
	t.Helper()
	if run, err := p.ResumeRun(); err != nil || !run.Migrated {
		t.Fatalf("advance: %+v, %v", run, err)
	}
}

// TestWarmResponderKeepsShell migrates one source warm again and again
// through one registry, rewriting one list of four between transfers. From
// the second transfer on the responder restores into the fork of its last
// restore, so it applies the one rewritten heap section and no other; what
// crosses the wire is what a responder without a kept shell asks for.
func TestWarmResponderKeepsShell(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg := Config{Store: openTestStore(t)}
	kept, fresh := openTestStore(t), openTestStore(t)
	reg := NewRegistry()
	reg.Add("shards", e)
	for i := 0; i < 4; i++ {
		if i > 0 {
			advance(t, p)
		}
		dst := tracedDst(kept)
		res, _, q := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dst)
		sameState(t, p, q)
		if n := heapApplied(t, dst.Trace); i == 0 && n != 4 || i > 0 && n != 1 {
			t.Errorf("transfer %d applied %d heap sections; want 4 into a new shell, then 1", i, n)
		}
		if !keptFork(reg, e) {
			t.Errorf("transfer %d left no kept shell", i)
		}
		base, _, q := transferWith(t, e, "shards", p, arch.SPARC20, srcCfg, Config{Store: fresh})
		sameState(t, p, q)
		if res.Warm.SectionsSent != base.Warm.SectionsSent || res.Warm.WireBytes != base.Warm.WireBytes {
			t.Errorf("transfer %d sent %d sections in %d bytes; without a kept shell %d in %d",
				i, res.Warm.SectionsSent, res.Warm.WireBytes, base.Warm.SectionsSent, base.Warm.WireBytes)
		}
	}
}

// TestWarmForkSpan: the fork a warm responder keeps is timed as a "fork"
// child of its confirm span, so the responder's tree accounts for it. A
// warm Transfer, whose registry keeps no fork, traces none.
func TestWarmForkSpan(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	reg := NewRegistry()
	reg.Add("shards", e)
	dst := tracedDst(openTestStore(t))
	transferThrough(t, reg, e, "shards", p, arch.SPARC20, Config{Store: openTestStore(t)}, dst)
	var fork *obs.SpanData
	for _, c := range dst.Trace.Find("confirm").Export().Children {
		if c.Name == "fork" {
			fork = c
		}
	}
	if fork == nil || fork.DurUS <= 0 {
		t.Fatalf("no timed fork span under the responder's confirm span: %+v", fork)
	}
	if !keptFork(reg, e) {
		t.Error("the traced session kept no fork")
	}
	cfg := Config{Store: openTestStore(t), Trace: obs.NewTracer().Start("session")}
	if _, _, _, err := Transfer(e, "shards", p, arch.SPARC20, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Find("confirm") == nil || cfg.Trace.Find("fork") != nil {
		t.Error("a warm Transfer's trace should hold a confirm span and no fork span")
	}
}

// cutTransport fails every send of a BODIES frame, closing the transport
// under it, as a link cut mid-round does.
type cutTransport struct{ link.Transport }

func (c cutTransport) Send(b []byte) error {
	if wire.Name(b) == "bodies" {
		c.Transport.Close()
		return link.ErrClosed
	}
	return c.Transport.Send(b)
}

// TestKeptShellDroppedOnFailedSession fails a warm session mid-round, once
// with a corrupt body and once with the link cut, after a successful one
// left the registry a kept shell. The failed session took it, so none is
// left, and the next session restores every heap section from the store.
func TestKeptShellDroppedOnFailedSession(t *testing.T) {
	for name, wrap := range map[string]func(link.Transport) link.Transport{
		"corrupt body": func(t link.Transport) link.Transport {
			return corruptingTransport{Transport: t, at: func(f []byte) int {
				if len(f) > 64 && wire.Name(f) == "bodies" {
					return len(f) - 6
				}
				return -1
			}}
		},
		"transport cut": func(t link.Transport) link.Transport { return cutTransport{t} },
	} {
		t.Run(name, func(t *testing.T) {
			e := newMutatingEngine(t, 1<<30)
			p := stoppedLive(t, e, arch.DEC5000)
			srcCfg, dstStore := Config{Store: openTestStore(t)}, openTestStore(t)
			reg := NewRegistry()
			reg.Add("shards", e)
			transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, Config{Store: dstStore})
			advance(t, p)

			a, b := link.Pipe()
			respErr := make(chan error, 1)
			go func() {
				_, _, _, err := Respond(b, reg, arch.SPARC20, Config{Store: dstStore})
				b.Close()
				respErr <- err
			}()
			_, err := Initiate(wrap(a), e, p.Mach, "shards", p, srcCfg)
			a.Close()
			if rerr := <-respErr; err == nil || rerr == nil {
				t.Fatalf("a damaged session completed: initiator %v, responder %v", err, rerr)
			}
			if keptFork(reg, e) {
				t.Fatal("a failed session left a kept shell")
			}

			dst := tracedDst(dstStore)
			_, _, q := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, dst)
			sameState(t, p, q)
			if n := heapApplied(t, dst.Trace); n != 4 {
				t.Errorf("the session after the failure applied %d heap sections, want all 4 from the store", n)
			}
		})
	}
}

// keptCellSrc keeps a heap cell that points into main's frame, and a list
// that does not.
const keptCellSrc = `
struct cell { int *p; int n; };
struct node { int v; struct node *next; };
int main() {
	int x, r;
	struct cell *c;
	struct node *l, *m;
	x = 1;
	c = (struct cell *) malloc(sizeof(struct cell));
	c->p = &x;
	c->n = 0;
	l = 0;
	for (r = 0; r < 8; r++) {
		m = (struct node *) malloc(sizeof(struct node));
		m->v = r;
		m->next = l;
		l = m;
	}
	for (r = 0; r < 5; r++) {
		*c->p = *c->p * 3 + r;
		c->n = c->n + 1;
		migrate_here();
	}
	return (x + c->n + l->v) & 255;
}`

// TestKeptShellHeapPointerIntoFrame migrates a program whose heap cell
// points into a frame warm through one registry: twice from the same
// state, then after the cell changed. A fork has no frames, so the shell
// keeps the cell's blocks but does not resolve its section, which the
// store or the wire supplies and which is applied before the frames exist
// and again after; the list the shell does resolve.
func TestKeptShellHeapPointerIntoFrame(t *testing.T) {
	e, err := core.NewEngine(keptCellSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstStore := Config{Store: openTestStore(t)}, openTestStore(t)
	reg := NewRegistry()
	reg.Add("cell", e)
	for i, want := range []int{3, 2, 2} {
		if i == 2 {
			advance(t, p)
		}
		dst := tracedDst(dstStore)
		_, _, q := transferThrough(t, reg, e, "cell", p, arch.SPARC20, srcCfg, dst)
		sameState(t, p, q)
		if n := heapApplied(t, dst.Trace); n != want {
			t.Errorf("transfer %d applied %d heap sections, want %d", i, n, want)
		}
		q.MaxSteps = 1_000_000
		if res, err := q.Run(); err != nil || res.Migrated {
			t.Fatalf("transfer %d: restored run %+v, %v", i, res, err)
		}
	}
}

// TestKeptShellDroppedByAdd re-registers the program under the same digest:
// the kept shell belongs to the engine it replaced, so it goes, and the
// next session restores everything from the store.
func TestKeptShellDroppedByAdd(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstStore := Config{Store: openTestStore(t)}, openTestStore(t)
	reg := NewRegistry()
	reg.Add("shards", e)
	transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, Config{Store: dstStore})
	e2 := newMutatingEngine(t, 1<<30)
	if e2.Digest() != e.Digest() {
		t.Fatal("the same source compiled twice has two digests")
	}
	reg.Add("shards", e2)
	if keptFork(reg, e2) {
		t.Fatal("Add kept the shell of the engine it replaced")
	}
	dst := tracedDst(dstStore)
	_, _, q := transferThrough(t, reg, e2, "shards", p, arch.SPARC20, srcCfg, dst)
	sameState(t, p, q)
	if n := heapApplied(t, dst.Trace); n != 4 {
		t.Errorf("the session after Add applied %d heap sections, want all 4", n)
	}
}

// TestKeptShellReshipsDeletedBlob deletes a destination blob the kept
// shell holds: the shell must not resolve it, so it is wanted and shipped
// again, and the checkpoint the ref then names reads back whole.
func TestKeptShellReshipsDeletedBlob(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	p := stoppedLive(t, e, arch.DEC5000)
	srcCfg, dstStore := Config{Store: openTestStore(t)}, openTestStore(t)
	reg := NewRegistry()
	reg.Add("shards", e)
	res, _, _ := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, Config{Store: dstStore})
	m, err := dstStore.GetManifest(res.Warm.ManifestHash)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a heap section the next state repeats.
	advance(t, p)
	secs := sectionsOf(t, p)
	changed, gone := 0, -1
	for i, sec := range secs {
		if store.HashBytes(sec.Body) != m.Entries[i].Hash {
			changed++
		} else if sec.Kind == snapshot.KindHeap {
			gone = i
		}
	}
	if gone < 0 {
		t.Fatal("the next state repeats no heap section")
	}
	hx := m.Entries[gone].Hash.String()
	if err := os.Remove(filepath.Join(dstStore.Dir(), "blobs", hx[:2], hx[2:])); err != nil {
		t.Fatal(err)
	}
	res, _, q := transferThrough(t, reg, e, "shards", p, arch.SPARC20, srcCfg, Config{Store: dstStore})
	sameState(t, p, q)
	if res.Warm.SectionsSent != changed+1 {
		t.Errorf("sent %d sections, want the %d that changed and the deleted one", res.Warm.SectionsSent, changed)
	}
	h, ok, err := dstStore.Ref("shards")
	if err != nil || !ok || h != res.Warm.ManifestHash {
		t.Fatalf("ref: %s %v %v, want %s", h.Short(), ok, err, res.Warm.ManifestHash.Short())
	}
	if _, _, err := dstStore.Sections(h); err != nil {
		t.Errorf("the ref names a checkpoint that does not read back: %v", err)
	}
}

// wantBarrier holds the responder of each of n sessions at its WANT until
// all n got there, so that every one has taken the kept shell, or found
// none, before any finishes and keeps another.
type wantBarrier struct {
	link.Transport
	arrive *sync.WaitGroup
}

func (w wantBarrier) Send(b []byte) error {
	if wire.Name(b) == "want" {
		w.arrive.Done()
		w.arrive.Wait()
	}
	return w.Transport.Send(b)
}

// TestKeptShellConcurrentSessions runs two warm sessions of one program at
// once through one daemon, after a first left it a kept shell. One session
// takes the shell and the other starts from a new process: both restore
// the source's state, and exactly one restored from the shell.
func TestKeptShellConcurrentSessions(t *testing.T) {
	e := newMutatingEngine(t, 1<<30)
	reg := NewRegistry()
	reg.Add("shards", e)
	var arrive sync.WaitGroup
	restored := make(chan *vm.Process, 3)
	d := &Daemon{
		Registry:      reg,
		Mach:          arch.SPARC20,
		Config:        Config{Store: openTestStore(t)},
		Metrics:       obs.NewRegistry(),
		MaxConcurrent: 2,
		Timeout:       time.Minute,
		WrapTransport: func(t link.Transport) link.Transport { return wantBarrier{t, &arrive} },
		OnRestored:    func(_ Info, q *vm.Process, _ core.Timing) { restored <- q },
	}
	addr, served := daemonFixture(t, d)
	migrate := func(p *vm.Process, cfg Config) error {
		conn, err := link.Dial(addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = Initiate(conn, e, p.Mach, "shards", p, cfg)
		return err
	}

	arrive.Add(1)
	if err := migrate(stoppedLive(t, e, arch.DEC5000), Config{Store: openTestStore(t)}); err != nil {
		t.Fatal(err)
	}
	<-restored // its responder kept the shell before handing the process over
	srcs := []*vm.Process{stoppedLive(t, e, arch.DEC5000), stoppedLive(t, e, arch.DEC5000)}
	arrive.Add(len(srcs))
	errs := make(chan error, len(srcs))
	for _, p := range srcs {
		cfg := Config{Store: openTestStore(t)}
		go func(p *vm.Process) { errs <- migrate(p, cfg) }(p)
	}
	for range srcs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	// The state did not change, so a session that restored into the shell
	// allocated no heap block: it held every one.
	fromShell := 0
	for range srcs {
		q := <-restored
		sameState(t, srcs[0], q)
		if q.RestoreStatsOf().Allocated == 0 {
			fromShell++
		}
	}
	if fromShell != 1 {
		t.Errorf("%d of the two concurrent sessions restored from the kept shell, want exactly 1", fromShell)
	}
	if !keptFork(reg, e) {
		t.Error("no shell kept after the concurrent sessions")
	}
}

package session

import (
	"cmp"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/wire"
)

// listSrc builds a 60-node heap list and only then reaches its single
// migration point, so the captured state spans several small chunks.
// 60*61/2 = 1830; 1830 % 128 = 38.
const listSrc = `
	struct node { float data; struct node *link; };
	struct node *head;
	int main() {
		int i, sum;
		struct node *c;
		head = 0;
		for (i = 1; i <= 60; i++) {
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

const listExit = 38

func newListEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(listSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stoppedAt runs the program on m until its migration point and returns
// the stopped process.
func stoppedAt(t testing.TB, e *core.Engine, m *arch.Machine) *vm.Process {
	t.Helper()
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	return p
}

// TestNegotiate is the capability table: what an initiator offers against
// what a responder holds. The shape is the intersection, and nothing else
// enters into it but the responder's store under live rounds: a live
// responder holding one echoes both bits whatever the initiator holds, so
// the rounds name their bodies by content hash and cross with a WANT.
func TestNegotiate(t *testing.T) {
	st := openTestStore(t)
	cases := []struct {
		name  string
		offer uint32
		srv   Config
		want  Params
	}{
		{"neither end holds a capability", 0, Config{}, Params{}},
		{"a store on one end only stays cold", 0, Config{Store: st}, Params{}},
		{"an initiator's store alone stays cold", capWarm, Config{}, Params{}},
		{"stores on both ends select the warm round", capWarm, Config{Store: st}, Params{Warm: true}},
		{"live on the initiator only stays cold", capLive, Config{}, Params{}},
		{"live on the responder only stays cold", 0, Config{Live: true}, Params{}},
		{"live on both ends selects live rounds", capLive, Config{Live: true}, Params{Live: true}},
		{"live with stores on both ends names bodies by hash", capWarm | capLive, Config{Store: st, Live: true}, Params{Warm: true, Live: true}},
		{"live into a store the initiator lacks names bodies by hash", capLive, Config{Store: st, Live: true}, Params{Warm: true, Live: true}},
		{"live offered to a store-only responder falls to warm", capWarm | capLive, Config{Store: st}, Params{Warm: true}},
		{"a store offered to a live-only responder stays cold", capWarm, Config{Live: true}, Params{}},
		{"a store and live on opposite ends stay cold", capLive, Config{Store: st}, Params{}},
		{"a bit this side does not know is not echoed", 1<<31 | capWarm, Config{Store: st, Live: true}, Params{Warm: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := negotiate(offer{caps: c.offer}, c.srv); got != c.want {
				t.Errorf("params = %+v, want %+v", got, c.want)
			}
		})
	}

	// The initiator's side of the table: an ACCEPT may echo only what the
	// OFFER advertised, and a store only beside live rounds.
	for _, c := range []struct {
		name   string
		cfg    Config
		accept Params
	}{
		{"responder echoes a bit that was not offered", Config{Store: st}, Params{Live: true}},
		{"responder echoes its store without live rounds", Config{Live: true}, Params{Warm: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newListEngine(t)
			p := stoppedAt(t, e, arch.DEC5000)
			a, b := link.Pipe()
			defer a.Close()
			defer b.Close()
			go func() {
				if _, _, err := recvMessage(b, wire.Offer); err == nil {
					b.Send(marshalAccept(c.accept))
				}
			}()
			if _, err := Initiate(a, e, p.Mach, "list", p, c.cfg); !errors.Is(err, ErrProtocol) {
				t.Errorf("initiator err = %v, want ErrProtocol", err)
			}
		})
	}
}

// runTransfer exercises the full pipe-based protocol under cfg and checks
// the restored process completes correctly.
func runTransfer(t *testing.T, cfg Config) core.Timing {
	t.Helper()
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	q, mig, err := Transfer(e, "list", p, arch.SPARC20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mach != arch.SPARC20 {
		t.Error("restored process not on destination machine")
	}
	q.MaxSteps = 1_000_000
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != listExit {
		t.Errorf("exit = %d, want %d", res.ExitCode, listExit)
	}
	if mig.Timing.Bytes == 0 {
		t.Error("no bytes recorded")
	}
	if mig.Timing.Restore <= 0 || mig.Timing.Restore != q.RestoreElapsed() {
		t.Errorf("Transfer reports restore %v, the responder's restore took %v", mig.Timing.Restore, q.RestoreElapsed())
	}
	return mig.Timing
}

func TestTransferStreamedDefault(t *testing.T) {
	runTransfer(t, Config{ChunkSize: 256})
}

func TestInitiateReportsNegotiatedParams(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("list", e)
	dstStore := openTestStore(t)
	go func() {
		// The daemon holds a store but does not run live rounds.
		Respond(b, reg, arch.SPARC20, Config{Store: dstStore})
	}()
	res, err := Initiate(a, e, p.Mach, "list", p, Config{Store: openTestStore(t), Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Params{Warm: true}); res.Params != want || res.Params.How() != "warm" {
		t.Errorf("params = %+v (%s), want %+v", res.Params, res.Params.How(), want)
	}
}

func TestRespondRejectsUnknownDigest(t *testing.T) {
	e := newListEngine(t)
	other, err := core.NewEngine(`int main() { return 7; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p := stoppedAt(t, e, arch.DEC5000)
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("other", other) // the migrating program is NOT registered
	errc := make(chan error, 1)
	go func() {
		_, _, rerr := Respond(b, reg, arch.SPARC20, Config{})
		errc <- rerr
	}()
	_, err = Initiate(a, e, p.Mach, "list", p, Config{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("initiator err = %v, want ErrRejected", err)
	}
	if !strings.Contains(err.Error(), "not pre-distributed") {
		t.Errorf("rejection reason not forwarded: %v", err)
	}
	if rerr := <-errc; !errors.Is(rerr, ErrUnknownProgram) {
		t.Errorf("responder err = %v, want ErrUnknownProgram", rerr)
	}
}

// daemonFixture starts a Daemon on a loopback listener and returns it with
// its address and a channel that yields Serve's return value.
func daemonFixture(t *testing.T, d *Daemon) (addr string, served chan error) {
	t.Helper()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served = make(chan error, 1)
	go func() { served <- d.Serve(l) }()
	return l.Addr().String(), served
}

// migrateTo runs one full client migration of the list program against a
// daemon address.
func migrateTo(t *testing.T, addr string, e *core.Engine, cfg Config) (*Result, error) {
	t.Helper()
	return initiateAt(t, addr, e, "list", stoppedAt(t, e, arch.DEC5000), cfg)
}

// initiateAt migrates the stopped process p of the program registered as
// name to the daemon at addr.
func initiateAt(t *testing.T, addr string, e *core.Engine, name string, p *vm.Process, cfg Config) (*Result, error) {
	t.Helper()
	conn, err := link.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	return Initiate(conn, e, p.Mach, name, p, cfg)
}

func TestDaemonConcurrentMixedShapes(t *testing.T) {
	// The acceptance scenario: one persistent daemon — a store, live
	// rounds — completes at least 4 concurrent migrations from a mix of
	// cold, warm and live clients, with nothing matched between operators.
	// OnRestored holds the first 4 sessions at a barrier, so the test
	// deadlocks (and times out) unless 4 workers are truly in flight at
	// once. Pre-copy resumes a live client's source between rounds, so the
	// live clients migrate the mutating-shards program, which polls again.
	// Two sessions follow the concurrent ones: a warm one, which restores
	// into the shell the registry kept from an earlier warm session, and a
	// live one whose initiator holds a store too. Every session's Result
	// and the daemon's Info of it must tell one account.
	const clients = 6
	const barrier = 4
	const sessions = clients + 2
	e, shards := newListEngine(t), newMutatingEngine(t, 8)
	reg := NewRegistry()
	reg.Add("list", e)
	reg.Add("shards", shards)

	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	ran := make(chan struct{}, sessions)
	infos := map[uint64]Info{} // by trace ID, which the responder adopts
	d := &Daemon{
		Registry:      reg,
		Mach:          arch.SPARC20,
		Config:        Config{Store: openTestStore(t), Live: true},
		Metrics:       obs.NewRegistry(),
		MaxConcurrent: clients,
		Timeout:       time.Minute,
		OnRestored: func(info Info, p *vm.Process, tm core.Timing) {
			defer func() { ran <- struct{}{} }()
			if tm != info.Timing {
				t.Errorf("session %d: OnRestored timing %+v, Info.Timing %+v", info.ID, tm, info.Timing)
			}
			mu.Lock()
			infos[info.Trace.TraceID] = info
			arrived++
			if arrived == barrier {
				close(release)
			}
			mu.Unlock()
			select {
			case <-release:
			case <-time.After(30 * time.Second):
				t.Error("barrier never filled: sessions are not concurrent")
			}
			p.MaxSteps = 1_000_000
			res, err := p.Run()
			if err != nil {
				t.Errorf("session %d run: %v", info.ID, err)
				return
			}
			want := listExit
			if info.Program == "shards" {
				want = 0 // the mutating workload exits 0 iff every mutation survived
			}
			if res.ExitCode != want {
				t.Errorf("session %d (%s) exit = %d, want %d", info.ID, info.Program, res.ExitCode, want)
			}
		},
	}
	addr, served := daemonFixture(t, d)

	var results []*Result
	migrate := func(i int, cfg Config) {
		var res *Result
		var err error
		if cfg.Live {
			res, err = initiateAt(t, addr, shards, "shards", stoppedLive(t, shards, arch.DEC5000), cfg)
		} else {
			res, err = migrateTo(t, addr, e, cfg)
		}
		if err != nil {
			t.Errorf("client %d: %v", i, err)
			return
		}
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cfg := Config{ChunkSize: 512}
		switch i % 3 {
		case 1:
			cfg.Store = openTestStore(t) // a warm client
		case 2:
			cfg.Live = true // a live client
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			migrate(i, cfg)
		}(i)
	}
	wg.Wait()
	got := map[string]int{}
	for _, res := range results {
		got[res.Params.How()]++
	}
	if got["cold"] != clients/3 || got["warm"] != clients/3 || got["live"] != clients/3 {
		t.Errorf("negotiated shapes %v; want %d each of cold, warm and live", got, clients/3)
	}
	for i := 0; i < clients; i++ {
		<-ran
	}
	if !keptFork(reg, e) {
		t.Fatal("no warm session left the registry a kept shell")
	}
	migrate(clients, Config{Store: openTestStore(t)})
	migrate(clients+1, Config{Store: openTestStore(t), Live: true})
	for i := clients; i < sessions; i++ {
		<-ran
	}

	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	count := func(name string) int64 { return d.Metrics.Counter("session." + name).Value() }
	if count("accepted") != sessions || count("restored") != sessions || count("failed") != 0 {
		t.Errorf("accepted %d, restored %d, failed %d; want %d, %d, 0",
			count("accepted"), count("restored"), count("failed"), sessions, sessions)
	}
	if count("bytes") == 0 {
		t.Error("no payload bytes counted")
	}
	for _, res := range results {
		info, ok := infos[res.Trace.TraceID]
		if !ok {
			t.Errorf("no daemon record of the %s session under trace %s", res.Params.How(), res.Trace)
			continue
		}
		sameAccount(t, res, info)
	}
}

// sameAccount holds an initiator's Result and the responder's Info of one
// session to one account: each side's rounds add up to its own totals, and
// the two sides agree on the shape, the wire bytes and every round.
func sameAccount(t *testing.T, res *Result, info Info) {
	t.Helper()
	how := res.Params.How()
	rx, ix := cmp.Or(res.Warm, res.Live), cmp.Or(info.Warm, info.Live)
	addsUp(t, how+" initiator", res.Timing, rx)
	addsUp(t, how+" responder", info.Timing, ix)
	if res.Params != info.Params || res.Timing.Bytes != info.Timing.Bytes ||
		(res.Warm == nil) != (info.Warm == nil) || (res.Live == nil) != (info.Live == nil) {
		t.Errorf("%s: initiator %+v, %d bytes, warm %v live %v; responder %+v, %d bytes, warm %v live %v", how,
			res.Params, res.Timing.Bytes, res.Warm != nil, res.Live != nil,
			info.Params, info.Timing.Bytes, info.Warm != nil, info.Live != nil)
	}
	if rx == nil || ix == nil {
		return
	}
	if rx.Sections != ix.Sections || rx.SectionsSent != ix.SectionsSent || rx.SnapshotBytes != ix.SnapshotBytes ||
		rx.ManifestHash != ix.ManifestHash || !slices.Equal(rx.Rounds, ix.Rounds) {
		t.Errorf("%s: initiator's exchange %+v, responder's %+v", how, rx, ix)
	}
	if res.Params.Warm == (rx.ManifestHash == store.Hash{}) {
		t.Errorf("%s: manifest hash %s for bodies named by content = %v", how, rx.ManifestHash.Short(), res.Params.Warm)
	}
}

// addsUp holds one side's record to itself: the rounds' bytes sum to its
// Timing.Bytes, and their sections and sent sections to the exchange's
// totals. A cold session (x nil) has no rounds.
func addsUp(t *testing.T, side string, tm core.Timing, x *Exchange) {
	t.Helper()
	if tm.Bytes <= 0 {
		t.Errorf("%s: %d wire bytes recorded", side, tm.Bytes)
	}
	if x == nil {
		return
	}
	bytes, sections, sent := 0, 0, 0
	for _, r := range x.Rounds {
		bytes, sections, sent = bytes+r.Bytes, sections+r.Sections, sent+r.SectionsSent
	}
	if bytes != tm.Bytes || sections != x.Sections || sent != x.SectionsSent {
		t.Errorf("%s: rounds add up to %d bytes, %d sections, %d sent; the record holds %d, %d, %d",
			side, bytes, sections, sent, tm.Bytes, x.Sections, x.SectionsSent)
	}
}

func TestDaemonSurvivesCutHandshake(t *testing.T) {
	// A client that connects and dies mid-handshake must fail its own
	// session only: the daemon reports the failure, closes, and keeps
	// serving.
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	var mu sync.Mutex
	var failures []error
	restored := make(chan struct{}, 1)
	d := &Daemon{
		Registry:      reg,
		Mach:          arch.SPARC20,
		Metrics:       obs.NewRegistry(),
		MaxConcurrent: 2,
		Timeout:       30 * time.Second,
		OnSessionEnd: func(_ Info, _ time.Duration, err error) {
			if err != nil {
				mu.Lock()
				failures = append(failures, err)
				mu.Unlock()
			}
		},
		OnRestored: func(Info, *vm.Process, core.Timing) { restored <- struct{}{} },
	}
	addr, served := daemonFixture(t, d)

	// Cut mid-read: a frame header promising 100 bytes, then nothing.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0, 0, 0, 100, 1, 2, 3, 4})
	raw.Close()

	// The daemon must still complete a real migration afterwards.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := migrateTo(t, addr, e, Config{ChunkSize: 512}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon did not recover: %v", err)
		}
	}
	<-restored

	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	if n := d.Metrics.Counter("session.failed").Value(); n < 1 {
		t.Errorf("cut handshake not counted as failure: session.failed = %d", n)
	}
	if n := d.Metrics.Counter("session.restored").Value(); n < 1 {
		t.Errorf("daemon stopped restoring after cut handshake: session.restored = %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(failures, func(err error) bool { return ClassifyFailure(err) == FailTransport }) {
		t.Errorf("cut handshake not reported as a transport failure; failures = %v", failures)
	}
}

func TestDaemonSessionTimeout(t *testing.T) {
	// A peer that stalls after connecting must not pin a worker forever.
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	d := &Daemon{
		Registry:      reg,
		Mach:          arch.SPARC20,
		Metrics:       obs.NewRegistry(),
		MaxConcurrent: 1,
		Timeout:       50 * time.Millisecond,
	}
	addr, served := daemonFixture(t, d)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Send nothing; the per-session deadline must fail the handshake and,
	// with MaxConcurrent=1, free the only worker for the next session.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := migrateTo(t, addr, e, Config{ChunkSize: 512}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("stalled session pinned the worker: %v", err)
		}
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := d.Metrics.Counter("session.failed").Value(); n < 1 {
		t.Errorf("stalled session not counted as failure: session.failed = %d", n)
	}
}

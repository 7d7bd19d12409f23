package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestNodeIdentityAndRefresh(t *testing.T) {
	reg := obs.NewRegistry()
	n := NewNode("sparc20", "127.0.0.1:7464", reg)
	if n.Info.ID == "" || !strings.Contains(n.Info.ID, "-") {
		t.Errorf("node ID = %q, want <hostname>-<hex>", n.Info.ID)
	}
	if n.Info.PID != os.Getpid() || n.Info.Machine != "sparc20" || n.Info.Version == "" {
		t.Errorf("node info = %+v", n.Info)
	}
	if NewNode("sparc20", "", obs.NewRegistry()).Info.ID == n.Info.ID {
		t.Error("two nodes minted the same ID")
	}
	snap := reg.Snapshot()
	if snap.Gauges["node.up"] != 1 {
		t.Errorf("node.up = %d, want 1", snap.Gauges["node.up"])
	}
	if _, ok := snap.Gauges["node.uptime.seconds"]; !ok {
		t.Error("refresh did not set node.uptime.seconds")
	}
}

func TestNodeStoreGauges(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.PutBlob([]byte("hello fleet")); err != nil {
		t.Fatal(err)
	}
	n := NewNode("sparc20", "", reg)
	n.Store = st
	n.Refresh()
	snap := reg.Snapshot()
	if snap.Gauges["node.store.blobs"] != 1 || snap.Gauges["node.store.bytes"] != 11 {
		t.Errorf("store gauges = blobs %d bytes %d, want 1/11",
			snap.Gauges["node.store.blobs"], snap.Gauges["node.store.bytes"])
	}
}

// TestNodeRoutes drives the three endpoints: /metrics carries the node
// header, /healthz always answers ok, /readyz flips to 503 — and back —
// with the readiness hook, exactly the drain semantics migd wires in.
func TestNodeRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("session.restored").Add(7)
	n := NewNode("sparc20", "", reg)
	ready := true
	n.Ready = func() bool { return ready }
	srv := httptest.NewServer(n.Mux())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, n.Info.ID) {
		t.Errorf("/metrics status %d, body missing node ID:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body != "ready\n" {
		t.Errorf("/readyz ready = %d %q", code, body)
	}

	ready = false // drain begins
	if code, body := get("/readyz"); code != 503 || body != "draining\n" {
		t.Errorf("/readyz draining = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}

	ready = true // drain aborted
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz after drain = %d, want 200", code)
	}
}

// TestScraperRollup runs two real nodes plus one dead target through the
// scraper and checks the aggregation: summed counts, exact merged
// quantiles against a single-registry reference, readiness, and
// windowed rates on a second round.
func TestScraperRollup(t *testing.T) {
	ref := obs.NewRegistry()
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	durations := [][]time.Duration{
		{2 * time.Millisecond, 9 * time.Millisecond, 40 * time.Millisecond},
		{3 * time.Millisecond, 700 * time.Microsecond},
	}
	var targets []Target
	for i, reg := range regs {
		for _, d := range durations[i] {
			reg.Counter("session.accepted").Inc()
			reg.Counter("session.restored").Inc()
			reg.Histogram("session.duration").Observe(d)
			ref.Histogram("session.duration").Observe(d)
		}
		n := NewNode("sparc20", "", reg)
		srv := httptest.NewServer(n.Mux())
		defer srv.Close()
		targets = append(targets, NormalizeTarget(srv.URL))
	}
	regs[0].Counter("session.failed").Inc()
	regs[0].Counter("session.fail.transport").Inc()
	targets = append(targets, NormalizeTarget("127.0.0.1:1")) // nobody home

	sc := &Scraper{Targets: targets, Client: &http.Client{Timeout: 2 * time.Second}}
	sc.Scrape(context.Background())
	r := sc.Rollup()

	if r.Nodes != 3 || r.Ready != 2 {
		t.Fatalf("nodes %d ready %d, want 3/2", r.Nodes, r.Ready)
	}
	if r.Accepted != 5 || r.Restored != 5 || r.Failed != 1 {
		t.Errorf("totals acc/rest/fail = %d/%d/%d, want 5/5/1", r.Accepted, r.Restored, r.Failed)
	}
	if r.FailClasses["transport"] != 1 {
		t.Errorf("fail classes = %v", r.FailClasses)
	}
	refSnap := ref.Histogram("session.duration").Snapshot()
	if r.Session.Count != refSnap.Count || r.Session.P50US != refSnap.P50US ||
		r.Session.P99US != refSnap.P99US {
		t.Errorf("merged session histogram %+v, reference %+v", r.Session, refSnap)
	}
	var deadRow *NodeRow
	for i := range r.Rows {
		if r.Rows[i].Err != "" {
			deadRow = &r.Rows[i]
		}
	}
	if deadRow == nil {
		t.Fatal("dead target missing from rows")
	}

	// Second round: more sessions → a positive windowed rate.
	for i := 0; i < 4; i++ {
		regs[0].Counter("session.accepted").Inc()
	}
	time.Sleep(20 * time.Millisecond)
	sc.Scrape(context.Background())
	r2 := sc.Rollup()
	if r2.Rows[0].AcceptedRate <= 0 {
		t.Errorf("windowed accepted rate = %v, want > 0", r2.Rows[0].AcceptedRate)
	}

	var buf bytes.Buffer
	r2.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"NODE", "fleet:", "transport=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestJournalWritesJSONLAndStderrSink(t *testing.T) {
	dir := t.TempDir()
	var errSink bytes.Buffer
	node := obs.NodeInfo{ID: "nodetest-0001"}
	j, err := NewJournal(&errSink, dir, node)
	if err != nil {
		t.Fatal(err)
	}
	j.Logger().Info("session.restored", "session", 1, "how", "warm", "bytes", 4096)
	j.Logger().Error("session.failed", "session", 2, "fail_class", "transport")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if rec["node"] != "nodetest-0001" {
			t.Errorf("record missing node attr: %v", rec)
		}
	}
	if lines != 2 {
		t.Errorf("journal has %d lines, want 2", lines)
	}
	if !strings.Contains(errSink.String(), `"msg":"session.restored"`) {
		t.Errorf("stderr sink missing record: %s", errSink.String())
	}

	// Discarding journal (no sinks) still hands out a usable logger.
	quiet, err := NewJournal(nil, "", node)
	if err != nil {
		t.Fatal(err)
	}
	quiet.Logger().Info("noop")
	if quiet.Path() != "" {
		t.Errorf("quiet journal path = %q", quiet.Path())
	}
}

func TestSLOTracker(t *testing.T) {
	reg := obs.NewRegistry()
	tr := &Tracker{SLO: SLO{Session: time.Millisecond, Downtime: 100 * time.Microsecond}, Metrics: reg}
	tr.ObserveSession(500 * time.Microsecond) // within budget
	tr.ObserveSession(2 * time.Millisecond)   // burn
	tr.ObserveDowntime(50 * time.Microsecond)
	tr.ObserveDowntime(time.Millisecond) // burn
	snap := reg.Snapshot()
	if snap.Counters["slo.session.total"] != 2 || snap.Counters["slo.session.burn"] != 1 {
		t.Errorf("session budget = %v", snap.Counters)
	}
	if snap.Counters["slo.downtime.total"] != 2 || snap.Counters["slo.downtime.burn"] != 1 {
		t.Errorf("downtime budget = %v", snap.Counters)
	}

	// Disabled budgets write nothing, and a nil tracker is a no-op.
	off := &Tracker{Metrics: reg}
	off.ObserveSession(time.Hour)
	if reg.Snapshot().Counters["slo.session.total"] != 2 {
		t.Error("disabled budget still counted")
	}
	var nilT *Tracker
	nilT.ObserveSession(time.Second)
}

// TestDaemonAccountingExact wires a real session daemon the way migd
// does — an unmeetable session SLO on its end-of-session hook, a journal,
// and a node whose readiness is the daemon's drain state — drives N good
// migrations and one offer of a program it does not hold, all at once,
// and reads every count back exactly: from the registry, from the
// journal, and through a scrape of the node's /metrics.
func TestDaemonAccountingExact(t *testing.T) {
	const good = 5
	e, err := core.NewEngine(workload.ShardedListsSource(2, 12), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := core.NewEngine(`int main() { migrate_here(); return 5; }`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	metrics := obs.NewRegistry()
	var sink bytes.Buffer
	journal, err := NewJournal(&sink, "", obs.NodeInfo{ID: "acct"})
	if err != nil {
		t.Fatal(err)
	}
	slo := &Tracker{SLO: SLO{Session: time.Nanosecond}, Metrics: metrics}
	// One send per session, after its counters and journal record.
	ended := make(chan struct{}, good+1)
	reg := session.NewRegistry()
	reg.Add("prog", e)
	d := &session.Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: metrics, MaxConcurrent: 4,
		Journal: journal.Logger(),
		OnSessionEnd: func(_ session.Info, elapsed time.Duration, _ error) {
			slo.ObserveSession(elapsed)
			ended <- struct{}{}
		},
	}
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(l) }()
	defer d.Shutdown()
	node := NewNode("sparc20", "", metrics)
	node.Ready = func() bool { return !d.Draining() }
	srv := httptest.NewServer(node.Mux())
	defer srv.Close()

	var wg sync.WaitGroup
	offer := func(e *core.Engine, wantOK bool) {
		defer wg.Done()
		p, err := e.NewProcess(arch.DEC5000)
		if err != nil {
			t.Error(err)
			return
		}
		var req core.Request
		req.Raise()
		p.PollHook = req.Hook()
		if res, err := p.Run(); err != nil || !res.Migrated {
			t.Errorf("run to the migration point: %+v %v", res, err)
			return
		}
		conn, err := link.Dial(l.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := session.Initiate(conn, e, p.Mach, "prog", p, session.Config{}); (err == nil) != wantOK {
			t.Errorf("migration err = %v, want success %v", err, wantOK)
		}
	}
	for range good {
		wg.Add(1)
		go offer(e, true)
	}
	wg.Add(1)
	go offer(stranger, false)
	wg.Wait()
	for range good + 1 {
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("the daemon did not finish every session")
		}
	}

	want := map[string]int64{
		"session.accepted":         good + 1,
		"session.restored":         good,
		"session.failed":           1,
		"session.fail.negotiation": 1,
		"slo.session.total":        good + 1,
		"slo.session.burn":         good + 1,
	}
	counters := metrics.Snapshot().Counters
	for name, n := range want {
		if counters[name] != n {
			t.Errorf("%s = %d, want %d", name, counters[name], n)
		}
	}
	restored := strings.Count(sink.String(), `"msg":"session.restored"`)
	failed := strings.Count(sink.String(), `"msg":"session.failed"`)
	if restored != good || failed != 1 {
		t.Errorf("journal holds %d session.restored and %d session.failed records, want %d and 1", restored, failed, good)
	}

	// The scraped roll-up reads the same totals, and a drained node stays
	// in it, not ready, with its counts intact.
	sc := &Scraper{Targets: []Target{NormalizeTarget(srv.URL)}}
	sc.Scrape(context.Background())
	r := sc.Rollup()
	if r.Ready != 1 || r.Accepted != good+1 || r.Restored != good || r.Failed != 1 ||
		r.FailClasses["negotiation"] != 1 || r.SLOSessionBurn != good+1 || r.Session.Count != good+1 {
		t.Errorf("roll-up = %+v, want %d accepted, %d restored, 1 negotiation failure, %d burned and observed",
			r, good+1, good, good+1)
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	sc.Scrape(context.Background())
	if r2 := sc.Rollup(); r2.Nodes != 1 || r2.Ready != 0 || r2.Accepted != r.Accepted {
		t.Errorf("after drain: %d nodes, %d ready, %d accepted; want 1, 0, %d", r2.Nodes, r2.Ready, r2.Accepted, r.Accepted)
	}
}

package fleet_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestNodeIdentityAndRefresh(t *testing.T) {
	reg := obs.NewRegistry()
	n := fleet.NewNode("sparc20", "127.0.0.1:7464", reg)
	if n.Info.ID == "" || !strings.Contains(n.Info.ID, "-") {
		t.Errorf("node ID = %q, want <hostname>-<hex>", n.Info.ID)
	}
	if n.Info.PID != os.Getpid() || n.Info.Machine != "sparc20" || n.Info.Version == "" {
		t.Errorf("node info = %+v", n.Info)
	}
	if fleet.NewNode("sparc20", "", obs.NewRegistry()).Info.ID == n.Info.ID {
		t.Error("two nodes minted the same ID")
	}
	// Without a store a node registers no gauge: its identity travels in
	// the /metrics header and the journal's node attribute.
	if info := n.Refresh(); info != &n.Info || len(reg.Snapshot().Gauges) != 0 {
		t.Errorf("refresh = %p (want %p), gauges %v", info, &n.Info, reg.Snapshot().Gauges)
	}
}

func TestNodeStoreGauges(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("hello fleet")
	if err := st.BeginOverwrite([]store.Hash{store.HashBytes(body)}, [][]byte{body}).Wait(); err != nil {
		t.Fatal(err)
	}
	n := fleet.NewNode("sparc20", "", reg)
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
	n := fleet.NewNode("sparc20", "", reg)
	ready := true
	n.Ready = func() bool { return ready }
	mux := http.NewServeMux()
	n.Routes(mux)
	srv := httptest.NewServer(mux)
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

func TestJournalWritesJSONLAndStderrSink(t *testing.T) {
	dir := t.TempDir()
	var errSink bytes.Buffer
	node := obs.NodeInfo{ID: "nodetest-0001"}
	j, err := fleet.NewJournal(&errSink, dir, node)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []fleet.Record{
		{Msg: "session.restored", Session: 1, How: "warm", Bytes: 4096},
		{Msg: "session.failed", Session: 2, FailClass: "transport"},
	} {
		if err := j.Write(r); err != nil {
			t.Fatal(err)
		}
	}
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
		if rec["node"] != "nodetest-0001" || rec["time"] == nil {
			t.Errorf("record missing node or time: %v", rec)
		}
		if _, ok := rec["level"]; ok {
			t.Errorf("record carries a level: %v", rec)
		}
	}
	if lines != 2 {
		t.Errorf("journal has %d lines, want 2", lines)
	}
	if !strings.Contains(errSink.String(), `"msg":"session.restored"`) {
		t.Errorf("stderr sink missing record: %s", errSink.String())
	}

	// A journal with no sinks discards, and a nil one writes nothing.
	quiet, err := fleet.NewJournal(nil, "", node)
	if err != nil {
		t.Fatal(err)
	}
	if err := quiet.Write(fleet.Record{Msg: "noop"}); err != nil || quiet.Path() != "" {
		t.Errorf("quiet journal: write %v, path %q", err, quiet.Path())
	}
	var none *fleet.Journal
	if err := none.Write(fleet.Record{Msg: "noop"}); err != nil {
		t.Errorf("nil journal write = %v", err)
	}
}

// TestReadJournals reads two nodes' journal directories, one of them
// ending in a line cut off mid-append, and folds them into the table
// migtop prints. The lines are written with Journal.Write, the daemon's
// writer, so a failed record reads back field for field, tree and all.
func TestReadJournals(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	write := func(dir, node string, recs ...fleet.Record) string {
		j, err := fleet.NewJournal(nil, dir, obs.NodeInfo{ID: node})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := j.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return j.Path()
	}
	restored := func(session uint64, bytes, us int64) fleet.Record {
		return fleet.Record{Msg: "session.restored", Session: session, Bytes: bytes, ElapsedUS: us}
	}
	write(dirA, "a", restored(1, 1000, 400), restored(2, 1000, 100), restored(3, 1000, 300), restored(4, 1000, 200))
	failed := fleet.Record{Msg: "session.failed", Node: "b", Session: 2, Program: "prog", Peer: "dec5000",
		How: "live, pushed", ElapsedUS: 90, RestoreUS: 12, Trace: "00ab", FailClass: "peer-rollback",
		Error: "peer rolled back", PrecopyRounds: 3, Tree: &obs.SpanData{Name: "session", DurUS: 90,
			Events: []obs.EventData{{AtUS: 80, Kind: "session.fail", Detail: "peer rolled back"}}}}
	pathB := write(dirB, "b", restored(1, 7, 50), failed)
	f, err := os.OpenFile(pathB, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"time":"2026-01-01T00:00:00Z","msg":"session.rest`)
	f.Close()

	recs, torn, err := fleet.ReadJournals([]string{dirA, dirB})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 || torn != 1 {
		t.Fatalf("read %d records, %d torn; want 6 and 1", len(recs), torn)
	}
	s := fleet.Summarize(recs, torn)
	want := []fleet.NodeSummary{
		{Node: "a", Restored: 4, Bytes: 4000, P50US: 200, P99US: 400},
		{Node: "b", Restored: 1, Failed: 1, Bytes: 7, P50US: 50, P99US: 90},
	}
	if len(s.Nodes) != 2 || s.Nodes[0] != want[0] || s.Nodes[1] != want[1] {
		t.Errorf("nodes = %+v, want %+v", s.Nodes, want)
	}
	if len(s.Failures) == 1 {
		s.Failures[0].Time = time.Time{}
	}
	if s.FailClasses["peer-rollback"] != 1 || len(s.Failures) != 1 || !reflect.DeepEqual(s.Failures[0], failed) {
		t.Errorf("failures = %v %+v, want %+v", s.FailClasses, s.Failures, failed)
	}

	// A daemon restarted with the same node ID drops the torn line before
	// it appends, so the directory still reads.
	write(dirB, "b", restored(3, 7, 60))
	if recs, torn, err := fleet.ReadJournals([]string{dirB}); err != nil || torn != 0 || len(recs) != 3 {
		t.Errorf("after a restart: %d records, %d torn, %v; want 3, 0, nil", len(recs), torn, err)
	}

	// A line that does not decode anywhere but at the end is damage, not
	// a cut append.
	f, _ = os.OpenFile(pathB, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("\n{}\n")
	f.Close()
	if _, _, err := fleet.ReadJournals([]string{dirB}); err == nil {
		t.Error("a malformed line inside the journal was accepted")
	}
	if _, _, err := fleet.ReadJournals([]string{t.TempDir()}); err == nil {
		t.Error("a directory without a journal read as an empty fleet")
	}
}

// TestJournalCarriesFailedTree writes a failed session's record, span
// tree and all, and a restored one's to a journal file and reads both back:
// the failed record's tree renders exactly as the session's own exported
// tree did, and the restored line has no tree key at all.
func TestJournalCarriesFailedTree(t *testing.T) {
	root := obs.NewTracer().Start("session")
	root.SetAttr("outcome", "transport")
	root.Event("session.offer", "program %q digest %08x", "prog", 0xabc)
	restore := root.Child("restore")
	sec := restore.Child("section")
	sec.SetSection("heap", 0)
	sec.SetBytes(1232)
	sec.End()
	restore.Event("session.fail", "receive/restore: %v", io.ErrUnexpectedEOF)
	restore.End()
	root.End()
	tree := root.Export()

	dir := t.TempDir()
	j, err := fleet.NewJournal(nil, dir, obs.NodeInfo{ID: "n"})
	if err != nil {
		t.Fatal(err)
	}
	j.Write(fleet.Record{Msg: "session.restored", Session: 1, Bytes: 10})
	j.Write(fleet.Record{Msg: "session.failed", Session: 2, Trace: "00cd", FailClass: "transport", Tree: tree})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := fleet.ReadJournals([]string{dir})
	if err != nil || len(recs) != 2 {
		t.Fatalf("read back %d records: %v", len(recs), err)
	}
	failed := recs[1]
	if !failed.Failed() || failed.Tree == nil {
		t.Fatalf("failed record = %+v, want its tree", failed)
	}
	if got, want := failed.Tree.Tree(), tree.Tree(); got != want {
		t.Errorf("tree read back renders\n%s\nwant\n%s", got, want)
	}
	raw, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	restoredLine, _, _ := bytes.Cut(raw, []byte("\n"))
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(restoredLine, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["tree"]; ok || recs[0].Tree != nil {
		t.Errorf("restored record carries a tree: %s", restoredLine)
	}
}

// TestDaemonAccountingExact wires a real session daemon the way migd
// does — a journal in a directory, OnSessionEnd, and a node whose
// readiness follows the drain — drives N good
// migrations and one offer of a program it does not hold, all at once,
// and reads every count back exactly: from the registry, and from the
// journal file through ReadJournals, whose quantiles are the sessions'
// own elapsed times.
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
	dir := t.TempDir()
	journal, err := fleet.NewJournal(nil, dir, obs.NodeInfo{ID: "acct"})
	if err != nil {
		t.Fatal(err)
	}
	// One send per session, after its counters and journal record.
	ended := make(chan struct{}, good+1)
	reg := session.NewRegistry()
	reg.Add("prog", e)
	d := &session.Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: metrics, MaxConcurrent: 4,
		Journal:      journal,
		OnSessionEnd: func(session.Info, time.Duration, error) { ended <- struct{}{} },
	}
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(l) }()
	defer d.Shutdown()
	node := fleet.NewNode("sparc20", "", metrics)
	node.Ready = func() bool { return !d.Draining() }
	mux := http.NewServeMux()
	node.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

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
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz while serving = %d, want 200", code)
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// A drained node reads not ready, and its counts stay intact.
	if !d.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", code)
	}
	code, body := get("/metrics")
	var rep obs.Report
	if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || rep.Metrics == nil {
		t.Fatalf("/metrics after drain = %d %v", code, err)
	}
	if got := rep.Metrics.Counters["session.accepted"]; got != good+1 {
		t.Errorf("/metrics after drain: session.accepted = %d, want %d", got, good+1)
	}

	want := map[string]int64{
		"session.accepted":         good + 1,
		"session.restored":         good,
		"session.failed":           1,
		"session.fail.negotiation": 1,
	}
	snap := metrics.Snapshot()
	counters := snap.Counters
	for name, n := range want {
		if counters[name] != n {
			t.Errorf("%s = %d, want %d", name, counters[name], n)
		}
	}
	if n := snap.Histograms["session.duration"].Count; n != good+1 {
		t.Errorf("session.duration observed %d sessions, want %d", n, good+1)
	}

	// The quantiles are the journal lines' own elapsed times: with six
	// sessions, p50 is the third smallest and p99 the largest.
	raw, err := os.ReadFile(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	var elapsed []int64
	scan := bufio.NewScanner(bytes.NewReader(raw))
	for scan.Scan() {
		var line struct {
			ElapsedUS int64 `json:"elapsed_us"`
		}
		if err := json.Unmarshal(scan.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		elapsed = append(elapsed, line.ElapsedUS)
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })

	recs, torn, err := fleet.ReadJournals([]string{dir})
	if err != nil || torn != 0 || len(elapsed) != good+1 {
		t.Fatalf("read back: %d records, %d torn, %v; the file holds %d lines", len(recs), torn, err, len(elapsed))
	}
	s := fleet.Summarize(recs, torn)
	wantRow := fleet.NodeSummary{Node: "acct", Restored: good, Failed: 1, P50US: elapsed[2], P99US: elapsed[good]}
	if len(s.Nodes) != 1 {
		t.Fatalf("nodes = %+v", s.Nodes)
	}
	row := s.Nodes[0]
	row.Bytes = 0 // checked below: a sum over the restored records
	if row != wantRow {
		t.Errorf("row = %+v, want %+v", s.Nodes[0], wantRow)
	}
	var bytesRestored int64
	for _, r := range recs {
		if !r.Failed() {
			bytesRestored += r.Bytes
		}
	}
	if s.Nodes[0].Bytes != bytesRestored || bytesRestored != counters["session.bytes"] {
		t.Errorf("bytes = %d, records sum %d, session.bytes %d", s.Nodes[0].Bytes, bytesRestored, counters["session.bytes"])
	}
	if len(s.Failures) != 1 || s.FailClasses["negotiation"] != 1 || s.Failures[0].FailClass != "negotiation" || s.Failures[0].Tree == nil {
		t.Errorf("failures = %v %+v, want one negotiation failure with its tree", s.FailClasses, s.Failures)
	}
	for _, r := range recs {
		if !r.Failed() && r.Tree != nil {
			t.Errorf("restored session %d carries a tree", r.Session)
		}
	}
}

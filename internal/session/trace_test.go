package session

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
)

// TestStitchedTrace is the tentpole acceptance check: one v3 migration
// over loopback TCP produces a single stitched trace — the destination's
// restore and confirm spans appear under the initiator's trace ID in the
// exported report.
func TestStitchedTrace(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	reg := NewRegistry()
	reg.Add("list", e)

	done := make(chan error, 1)
	respTracer := obs.NewTracer()
	go func() {
		_, _, err := Respond(srv, reg, arch.SPARC20, Config{Trace: respTracer.Start("session")})
		done <- err
	}()

	initTracer := obs.NewTracer()
	root := initTracer.Start("session")
	res, err := Initiate(cli, e, p.Mach, "list", p, Config{Trace: root})
	root.End()
	if err != nil {
		t.Fatalf("initiate: %v", err)
	}
	if rerr := <-done; rerr != nil {
		t.Fatalf("respond: %v", rerr)
	}
	if res.Params != (Params{}) {
		t.Fatalf("negotiated %+v, want the cold shape", res.Params)
	}
	if !res.Trace.Valid() {
		t.Fatal("result carries no trace context")
	}
	if res.Remote == nil {
		t.Fatal("responder shipped no spans")
	}
	wantTrace := obs.IDString(res.Trace.TraceID)
	if res.Remote.TraceID != wantTrace {
		t.Errorf("remote trace id = %s, want %s", res.Remote.TraceID, wantTrace)
	}
	if res.Remote.ParentSpanID != obs.IDString(res.Trace.SpanID) {
		t.Errorf("remote parent span = %s, want initiator span %s",
			res.Remote.ParentSpanID, obs.IDString(res.Trace.SpanID))
	}

	// The exported report holds ONE tree: the initiator's session span
	// with the responder's subtree grafted in, same trace ID throughout.
	spans := initTracer.Export()
	if len(spans) != 1 {
		t.Fatalf("exported %d roots, want 1", len(spans))
	}
	tree := spans[0]
	if tree.TraceID != wantTrace {
		t.Fatalf("local root trace id = %s, want %s", tree.TraceID, wantTrace)
	}
	var remote *obs.SpanData
	for _, c := range tree.Children {
		if c.Remote {
			remote = c
		}
	}
	if remote == nil {
		t.Fatalf("no remote subtree under the initiator root:\n%s", initTracer.Tree())
	}
	phases := map[string]bool{}
	for _, c := range remote.Children {
		phases[c.Name] = true
	}
	if !phases["restore"] || !phases["confirm"] {
		t.Errorf("stitched trace missing a destination restore or confirm span:\n%s", initTracer.Tree())
	}
	if !strings.Contains(initTracer.Tree(), "(remote)") {
		t.Errorf("rendered stitched tree missing remote marker:\n%s", initTracer.Tree())
	}

	// Both sides' offer events name the trace once, as trace=<id> span=<id>:
	// the initiator's on its root, the responder's on the stitched subtree.
	offered := fmt.Sprintf("program %q digest %08x trace=%s span=%s", "list", e.Digest(), wantTrace, obs.IDString(res.Trace.SpanID))
	if evs := eventsOf(&obs.SpanData{Events: tree.Events}, "session.offer"); len(evs) != 1 || evs[0].Detail != offered {
		t.Errorf("initiator offer events %+v, want one reading %q", evs, offered)
	}
	accepted := fmt.Sprintf("program %q digest %08x from dec5000 trace=%s span=%s", "list", e.Digest(), wantTrace, res.Remote.SpanID)
	if evs := eventsOf(res.Remote, "session.offer"); len(evs) != 1 || evs[0].Detail != accepted {
		t.Errorf("responder offer events %+v, want one reading %q", evs, accepted)
	}
}

// TestPhaseHistograms verifies both sides feed the per-phase latency
// histograms of their configured registries, one observation per phase
// per migration.
func TestPhaseHistograms(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	cliMetrics := obs.NewRegistry()
	srvMetrics := obs.NewRegistry()
	d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: srvMetrics}
	addr, served := daemonFixture(t, d)
	if _, err := migrateTo(t, addr, e, Config{Metrics: cliMetrics}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"handshake", "collect", "transport", "confirm"} {
		if n := cliMetrics.Histogram("session.phase." + phase).Snapshot().Count; n != 1 {
			t.Errorf("initiator phase %q observed %d times, want 1", phase, n)
		}
	}
	for _, phase := range []string{"handshake", "restore", "confirm"} {
		if n := srvMetrics.Histogram("session.phase." + phase).Snapshot().Count; n != 1 {
			t.Errorf("responder phase %q observed %d times, want 1", phase, n)
		}
	}
}

// TestTreeOnlyOnFailedRecord drives one successful session and two
// failing ones — an unregistered program, and a source killed once it has
// seen RESTORED, whose restored copy the daemon discards — against a
// daemon that journals and logs to one stream, as migd does on its
// stderr: only a failed session's record may carry a span tree, that tree
// must carry the failure classification and the session's events, and it
// must reach the stream once, in the record.
func TestTreeOnlyOnFailedRecord(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	var stderr lockedBuffer
	j, err := fleet.NewJournal(&stderr, "", obs.NodeInfo{ID: "n"})
	if err != nil {
		t.Fatal(err)
	}
	d := &Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(),
		Journal: j,
		Logf:    func(format string, args ...any) { jlogf(&stderr, format, args...) },
	}
	addr, served := daemonFixture(t, d)

	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("successful migration failed: %v", err)
	}
	// An unregistered program digest fails the handshake on the daemon.
	unregistered, cerr := core.NewEngine(`int main() { migrate_here(); return 7; }`, minic.PollPolicy{})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if _, err := migrateTo(t, addr, unregistered, Config{}); err == nil {
		t.Fatal("migration of unregistered program succeeded")
	}
	conn, err := link.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	killed := chaos.New(chaos.Spec{Victim: chaos.VictimSource, Point: chaos.Point{Class: "restored", N: 1, When: chaos.AfterRecv}})
	p := stoppedAt(t, e, arch.DEC5000)
	if _, err := Initiate(killed.Source(conn), e, p.Mach, "list", p, Config{}); err == nil {
		t.Fatal("migration from a source killed after RESTORED succeeded")
	}
	conn.Close()
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	var journal []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			journal = append(journal, line)
		}
	}
	recs := journalRecords(t, strings.Join(journal, "\n"))
	var restored, failed []fleet.Record
	for _, r := range recs {
		if r.Failed() {
			failed = append(failed, r)
		} else {
			restored = append(restored, r)
		}
	}
	if len(restored) != 1 || len(failed) != 2 {
		t.Fatalf("stderr = %s, want one restored record and two failed", stderr.String())
	}
	if restored[0].Tree != nil {
		t.Errorf("successful session's record carries a tree:\n%s", restored[0].Tree.Tree())
	}
	for _, r := range failed {
		if r.Tree == nil || r.Tree.TraceID != r.Trace {
			t.Fatalf("failed record's tree = %+v, want one under trace %s", r.Tree, r.Trace)
		}
	}
	negotiation := failed[0].Tree
	if negotiation.Attrs["outcome"] != "negotiation" {
		negotiation = failed[1].Tree
	}
	if negotiation.Attrs["outcome"] != "negotiation" {
		t.Fatalf("no failed record has outcome negotiation:\n%s", stderr.String())
	}
	for _, kind := range []string{"session.offer", "session.reject", "session.classify"} {
		if len(eventsOf(negotiation, kind)) != 1 {
			t.Errorf("failed record's tree lacks one %s event:\n%s", kind, negotiation.Tree())
		}
	}
	for _, kind := range []string{"session.reject", "session.discard"} {
		if n := strings.Count(stderr.String(), kind); n != 1 {
			t.Errorf("%s appears %d times in the daemon's stream, want once, in its record:\n%s", kind, n, stderr.String())
		}
	}
}

// journalRecords decodes a journal's text, one record per line.
func journalRecords(t *testing.T, journal string) []fleet.Record {
	t.Helper()
	var recs []fleet.Record
	for _, line := range strings.Split(strings.TrimSpace(journal), "\n") {
		var r fleet.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// eventsOf returns the events of kind anywhere in the exported tree d, in
// tree order.
func eventsOf(d *obs.SpanData, kind string) []obs.EventData {
	if d == nil {
		return nil
	}
	var out []obs.EventData
	for _, ev := range d.Events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	for _, c := range d.Children {
		out = append(out, eventsOf(c, kind)...)
	}
	return out
}

// TestGarbageOfferRecordsByTrace sends an offer that does not parse to
// each of two daemons: each session still gets a trace of its own, and its
// failed record names it and carries a tree under it.
func TestGarbageOfferRecordsByTrace(t *testing.T) {
	e := newListEngine(t)
	var traces []string
	for _, node := range []string{"a", "b"} {
		reg := NewRegistry()
		reg.Add("list", e)
		var jbuf lockedBuffer
		j, err := fleet.NewJournal(&jbuf, "", obs.NodeInfo{ID: node})
		if err != nil {
			t.Fatal(err)
		}
		d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(), Journal: j}
		addr, served := daemonFixture(t, d)
		conn, err := link.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Send([]byte("not an offer"))
		conn.Recv() // the daemon closes the connection once it has failed the session
		conn.Close()
		d.Shutdown()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		recs := journalRecords(t, jbuf.String())
		if len(recs) != 1 || !recs[0].Failed() || recs[0].Trace == "" || recs[0].Node != node {
			t.Fatalf("node %s journal = %q, want one failed record with a trace", node, jbuf.String())
		}
		if tree := recs[0].Tree; tree == nil || tree.TraceID != recs[0].Trace || len(eventsOf(tree, "session.classify")) != 1 {
			t.Errorf("node %s record's tree = %+v, want one under trace %s with its classification", node, tree, recs[0].Trace)
		}
		traces = append(traces, recs[0].Trace)
	}
	if traces[0] == traces[1] {
		t.Fatalf("both daemons recorded trace %s, want one each", traces[0])
	}
}

// TestDaemonChaosRecordNamesInject wraps a daemon's connections with an
// armed chaos injector, as migd serve -chaos does: the failed record of
// the session the fault fails carries a tree whose events name the
// injected boundary.
func TestDaemonChaosRecordNamesInject(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	var jbuf lockedBuffer
	j, err := fleet.NewJournal(&jbuf, "", obs.NodeInfo{ID: "n"})
	if err != nil {
		t.Fatal(err)
	}
	spec := chaos.Spec{Victim: chaos.VictimDest, Point: chaos.Point{Class: "restored", N: 1, When: chaos.BeforeSend}}
	d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(), Journal: j,
		WrapTransport: func(t link.Transport) link.Transport { return chaos.New(spec).Dest(t) }}
	addr, served := daemonFixture(t, d)
	if _, err := migrateTo(t, addr, e, Config{}); err == nil {
		t.Fatal("migration through a killed destination succeeded")
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, jbuf.String())
	if len(recs) != 1 || !recs[0].Failed() || recs[0].Tree == nil {
		t.Fatalf("journal = %s, want one failed record with its tree", jbuf.String())
	}
	evs := eventsOf(recs[0].Tree, "chaos.inject")
	if len(evs) != 1 || !strings.Contains(evs[0].Detail, spec.Point.String()) || !strings.Contains(evs[0].Detail, "dest") {
		t.Errorf("chaos.inject events %+v, want one naming dest at %s:\n%s", evs, spec.Point, recs[0].Tree.Tree())
	}
}

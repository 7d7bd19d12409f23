package session

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestFlightDumpOnlyOnFailure drives one successful and one failing
// session against a daemon with a trace directory: only the failure may
// leave a dump on disk, and the dumped tree must carry the failure
// classification and the session's events.
func TestFlightDumpOnlyOnFailure(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	dir := t.TempDir()
	var logs strings.Builder
	var logMu sync.Mutex
	d := &Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(),
		TraceDir: dir,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs.WriteString(strings.TrimRight(fmt.Sprintf(format, args...), "\n") + "\n")
		},
	}
	addr, served := daemonFixture(t, d)

	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("successful migration failed: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("successful session left a dump: %v", entries)
	}

	// An unregistered program digest fails the handshake on the daemon.
	unregistered, cerr := core.NewEngine(`int main() { migrate_here(); return 7; }`, minic.PollPolicy{})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if _, err := migrateTo(t, addr, unregistered, Config{}); err == nil {
		t.Fatal("migration of unregistered program succeeded")
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed session left %d dumps, want 1", len(entries))
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "flight-") || !strings.HasSuffix(name, ".json") {
		t.Errorf("dump name = %q", name)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var dump fleet.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != fleet.DumpSchema || dump.Outcome != "negotiation" || dump.Tree == nil || name != "flight-"+dump.TraceID+".json" {
		t.Fatalf("dump %s: schema %q outcome %q trace %q, want %q, negotiation, and the trace in its name",
			name, dump.Schema, dump.Outcome, dump.TraceID, fleet.DumpSchema)
	}
	for _, kind := range []string{"session.offer", "session.reject", "session.classify"} {
		if len(eventsOf(dump.Tree, kind)) != 1 {
			t.Errorf("dumped tree lacks one %s event:\n%s", kind, dump.Tree.Tree())
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "session.reject") {
		t.Errorf("daemon log missing the failed session's tree:\n%s", logs.String())
	}
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

// TestGarbageOfferDumpsByTrace sends an offer that does not parse to each
// of two daemons that share one dump directory: each session still gets a
// trace of its own, its journal line names it, and its dump is named by it,
// so neither daemon's dump overwrites the other's.
func TestGarbageOfferDumpsByTrace(t *testing.T) {
	e := newListEngine(t)
	dir := t.TempDir()
	var traces []string
	for _, node := range []string{"a", "b"} {
		reg := NewRegistry()
		reg.Add("list", e)
		var jbuf lockedBuffer
		j, err := fleet.NewJournal(&jbuf, "", obs.NodeInfo{ID: node})
		if err != nil {
			t.Fatal(err)
		}
		d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(), TraceDir: dir, Journal: j.Logger()}
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
		var rec fleet.Record
		if err := json.Unmarshal([]byte(jbuf.String()), &rec); err != nil || !rec.Failed() || rec.Trace == "" {
			t.Fatalf("node %s journal = %q (%v), want one failed record with a trace", node, jbuf.String(), err)
		}
		if want := filepath.Join(dir, "flight-"+rec.Trace+".json"); rec.Flight != want {
			t.Errorf("node %s record names dump %q, want %q", node, rec.Flight, want)
		}
		traces = append(traces, rec.Trace)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || traces[0] == traces[1] {
		t.Fatalf("dumps %v for traces %v, want one per daemon", entries, traces)
	}
}

// TestDaemonChaosDumpNamesInject wraps a daemon's connections with an
// armed chaos injector, as migd serve -chaos does: the session the fault
// fails dumps a tree whose events name the injected boundary.
func TestDaemonChaosDumpNamesInject(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	dir := t.TempDir()
	spec := chaos.Spec{Victim: chaos.VictimDest, Point: chaos.Point{Class: "restored", N: 1, When: chaos.BeforeSend}}
	d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(), TraceDir: dir,
		WrapTransport: func(t link.Transport) link.Transport { return chaos.New(spec).Dest(t) }}
	addr, served := daemonFixture(t, d)
	if _, err := migrateTo(t, addr, e, Config{}); err == nil {
		t.Fatal("migration through a killed destination succeeded")
	}
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(paths) != 1 {
		t.Fatalf("dumps = %v, want one", paths)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump fleet.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	evs := eventsOf(dump.Tree, "chaos.inject")
	if len(evs) != 1 || !strings.Contains(evs[0].Detail, spec.Point.String()) || !strings.Contains(evs[0].Detail, "dest") {
		t.Errorf("chaos.inject events %+v, want one naming dest at %s:\n%s", evs, spec.Point, dump.Tree.Tree())
	}
}

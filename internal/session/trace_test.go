package session

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
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
		_, _, _, err := Respond(srv, reg, arch.SPARC20, Config{Trace: respTracer.Start("session")})
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
		t.Fatalf("no remote subtree under the initiator root:\n%s", tree.Tree())
	}
	if remote.Find("restore") == nil {
		t.Errorf("stitched trace missing destination restore span:\n%s", tree.Tree())
	}
	if remote.Find("confirm") == nil {
		t.Errorf("stitched trace missing destination confirm span:\n%s", tree.Tree())
	}
	if !strings.Contains(tree.Tree(), "(remote)") {
		t.Errorf("rendered stitched tree missing remote marker:\n%s", tree.Tree())
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
		if n := cliMetrics.Histogram("session.phase." + phase).Count(); n != 1 {
			t.Errorf("initiator phase %q observed %d times, want 1", phase, n)
		}
	}
	for _, phase := range []string{"handshake", "restore", "confirm"} {
		if n := srvMetrics.Histogram("session.phase." + phase).Count(); n != 1 {
			t.Errorf("responder phase %q observed %d times, want 1", phase, n)
		}
	}
}

// TestFlightDumpOnlyOnFailure drives one successful and one failing
// session against a daemon with a trace directory: only the failure may
// leave a recording on disk, and the recording must carry the failure
// classification.
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
		t.Fatalf("successful session dumped a flight recording: %v", entries)
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
	body := string(raw)
	for _, want := range []string{obs.FlightSchema, `"outcome"`, "negotiation", "session.offer", "session.reject"} {
		if !strings.Contains(body, want) {
			t.Errorf("flight dump missing %q:\n%s", want, body)
		}
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "flight recording") {
		t.Errorf("daemon log missing flight recording:\n%s", logs.String())
	}
}

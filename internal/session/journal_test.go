package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vm"
)

// lockedBuffer lets the concurrently-writing daemon journal share a
// buffer with test assertions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJournalRecordsAndFlightCrossReference is the journal/dump interplay
// regression: a failed traced session's journal record and its dump must
// carry the same trace ID — greppable as flight-<traceID>.json straight
// from the journal line — and the dump's tree is the session's, events and
// all. It also pins the journal record shape for successes (how, bytes,
// durations), and that Logf keeps the failed session's tree.
func TestJournalRecordsAndFlightCrossReference(t *testing.T) {
	_, journal, logs := failedSession(t)

	var restored, failed map[string]any
	scan := bufio.NewScanner(strings.NewReader(journal))
	for scan.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("journal line not JSON: %v: %s", err, scan.Text())
		}
		switch rec["msg"] {
		case "session.restored":
			restored = rec
		case "session.failed":
			failed = rec
		}
	}
	if restored == nil || failed == nil {
		t.Fatalf("journal missing records:\n%s", journal)
	}
	if _, versioned := restored["version"]; restored["how"] != "cold" || versioned || restored["program"] != "list" {
		t.Errorf("restored record = %v", restored)
	}
	if restored["bytes"].(float64) <= 0 || restored["elapsed_us"].(float64) <= 0 {
		t.Errorf("restored record missing size/timing: %v", restored)
	}
	if failed["fail_class"] != "negotiation" || failed["level"] != "ERROR" {
		t.Errorf("failed record = %v", failed)
	}

	// The cross-reference: trace attr, flight attr, and the dump on disk
	// must all agree on the trace ID.
	traceID, _ := failed["trace"].(string)
	flight, _ := failed["flight"].(string)
	if traceID == "" || flight == "" {
		t.Fatalf("failed record missing trace/flight attrs: %v", failed)
	}
	if want := "flight-" + traceID + ".json"; filepath.Base(flight) != want {
		t.Errorf("flight dump = %q, want basename %q", flight, want)
	}
	if !strings.Contains(journal, "flight-"+traceID+".json") {
		t.Errorf("journal not greppable for the dump name:\n%s", journal)
	}
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("journal points at a missing dump: %v", err)
	}
	var dump fleet.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != fleet.DumpSchema || dump.TraceID != traceID || dump.Tree == nil || dump.Tree.TraceID != traceID {
		t.Errorf("dump %s of trace %q (tree %+v), want %s of journal trace %q", dump.Schema, dump.TraceID, dump.Tree, fleet.DumpSchema, traceID)
	}
	if len(eventsOf(dump.Tree, "session.reject")) != 1 {
		t.Errorf("dumped tree lacks the session.reject event:\n%s", dump.Tree.Tree())
	}

	if !strings.Contains(logs, "session.reject") || !strings.Contains(logs, "trace=") {
		t.Errorf("free-form diagnostics lost the failed session's tree:\n%s", logs)
	}
}

// TestExplainFailedSession reads the failed session back the way
// `migtop explain` does: from the journal file by trace ID, then the
// tree its dump holds, with the events in recorded order.
func TestExplainFailedSession(t *testing.T) {
	dir, journal, _ := failedSession(t)
	_, line, _ := strings.Cut(journal, `"msg":"session.failed"`)
	_, trace, _ := strings.Cut(line, `"trace":"`)
	trace, _, _ = strings.Cut(trace, `"`)
	rec, dump, err := fleet.Explain([]string{dir}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Failed() || rec.FailClass != "negotiation" || rec.Peer != "dec5000" ||
		rec.Node != "explain" || !strings.Contains(rec.Error, "not pre-distributed") {
		t.Errorf("record = %+v", rec)
	}
	if dump == nil || dump.TraceID != trace || dump.Tree == nil || len(dump.Tree.Events) == 0 {
		t.Fatalf("dump = %+v", dump)
	}
	evs := dump.Tree.Events
	for i, ev := range evs[1:] {
		if ev.AtUS < evs[i].AtUS {
			t.Errorf("events out of order: %+v after %+v", ev, evs[i])
		}
	}
	if last := evs[len(evs)-1]; last.Kind != "session.classify" || !strings.HasPrefix(last.Detail, "negotiation") {
		t.Errorf("last event = %+v, want the classification", last)
	}
	if _, _, err := fleet.Explain([]string{dir}, "no-such-trace"); !errors.Is(err, fleet.ErrNoRecord) {
		t.Errorf("unknown trace: err = %v, want ErrNoRecord", err)
	}
}

// failedSession runs one good migration and one traced offer of an
// unregistered program into a daemon that journals into dir (node
// "explain") and dumps failed sessions' trees there. It returns dir, the
// journal's text and the daemon's Logf output.
func failedSession(t *testing.T) (dir, journal, logs string) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	dir = t.TempDir()
	var jbuf lockedBuffer
	var lbuf lockedBuffer
	j, err := fleet.NewJournal(&jbuf, dir, obs.NodeInfo{ID: "explain"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d := &Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(),
		TraceDir: dir,
		Journal:  j.Logger(),
		Logf:     func(format string, args ...any) { jlogf(&lbuf, format, args...) },
	}
	addr, served := daemonFixture(t, d)

	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("successful migration failed: %v", err)
	}

	// A traced client offering an unregistered program fails the
	// handshake; the daemon adopts the trace, so the dump is named by the
	// trace ID.
	unregistered, cerr := core.NewEngine(`int main() { migrate_here(); return 7; }`, minic.PollPolicy{})
	if cerr != nil {
		t.Fatal(cerr)
	}
	tracer := obs.NewTracer()
	root := tracer.Start("session")
	if _, err := migrateTo(t, addr, unregistered, Config{Trace: root}); err == nil {
		t.Fatal("migration of unregistered program succeeded")
	}
	root.End()
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	return dir, jbuf.String(), lbuf.String()
}

func jlogf(buf *lockedBuffer, format string, args ...any) {
	buf.mu.Lock()
	defer buf.mu.Unlock()
	buf.buf.WriteString(strings.TrimRight(fmt.Sprintf(format, args...), "\n") + "\n")
}

// TestInflightAndPoolGauges drives the worker-pool occupancy telemetry:
// session.pool.capacity reflects MaxConcurrent, session.inflight rises
// while a session (including its OnRestored run) is in flight, and both
// failure and success paths return the gauge to zero.
func TestInflightAndPoolGauges(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	metrics := obs.NewRegistry()
	release := make(chan struct{})
	d := &Daemon{
		Registry: reg, Mach: arch.SPARC20, MaxConcurrent: 3, Metrics: metrics,
		OnRestored: func(Info, *vm.Process, core.Timing) { <-release },
	}
	addr, served := daemonFixture(t, d)

	waitGauge := func(name string, want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if metrics.Gauge(name).Value() == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("gauge %s = %d, want %d", name, metrics.Gauge(name).Value(), want)
	}

	waitGauge("session.pool.capacity", 3)

	// The client returns once COMMIT is sent; the worker is still parked
	// in OnRestored, so the in-flight gauge must read 1 until release.
	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	waitGauge("session.inflight", 1)
	close(release)
	waitGauge("session.inflight", 0)

	// Failure path: the handshake rejects an unregistered program; the
	// gauge must come back down even though the session never restored.
	unregistered, cerr := core.NewEngine(`int main() { migrate_here(); return 9; }`, minic.PollPolicy{})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if _, err := migrateTo(t, addr, unregistered, Config{}); err == nil {
		t.Fatal("migration of unregistered program succeeded")
	}
	waitGauge("session.inflight", 0)

	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := metrics.Histogram("session.duration").Snapshot().Count; n != 2 {
		t.Errorf("session.duration observed %d sessions, want 2 (success + failure)", n)
	}
}

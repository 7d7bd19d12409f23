package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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

// TestJournalRecordsCrossReference is the journal/tree interplay
// regression: a failed traced session's journal record carries the
// session's tree, and the client's trace ID, the record's and the tree's
// must be one and the same. It also pins the journal record shape for
// successes (how, bytes, durations, no tree), and that Logf does not
// repeat the failed session's tree: with a journal, the record is its copy.
func TestJournalRecordsCrossReference(t *testing.T) {
	_, journal, logs, trace := failedSession(t)

	var restored, failed map[string]any
	scan := bufio.NewScanner(strings.NewReader(journal))
	scan.Buffer(nil, 1<<20)
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
	if _, ok := restored["tree"]; ok {
		t.Errorf("restored record carries a tree: %v", restored)
	}
	if failed["fail_class"] != "negotiation" {
		t.Errorf("failed record = %v", failed)
	}

	// The cross-reference: the client's trace, the record's and its tree's
	// must all agree.
	recs := journalRecords(t, journal)
	i := slices.IndexFunc(recs, fleet.Record.Failed)
	rec := recs[i]
	if trace == "" || rec.Trace != trace || rec.Tree == nil || rec.Tree.TraceID != trace {
		t.Errorf("record of trace %q with tree %+v, want client trace %q throughout", rec.Trace, rec.Tree, trace)
	}
	if len(eventsOf(rec.Tree, "session.reject")) != 1 {
		t.Errorf("failed record's tree lacks the session.reject event:\n%s", rec.Tree.Tree())
	}

	if strings.Contains(logs, "session.reject") {
		t.Errorf("free-form diagnostics repeat the failed session's tree, which its record carries:\n%s", logs)
	}
}

// TestExplainFailedSession reads the failed session back the way
// `migtop explain` does: from the journal file by trace ID, with the
// record's tree holding the events in recorded order.
func TestExplainFailedSession(t *testing.T) {
	dir, _, _, trace := failedSession(t)
	rec, err := fleet.Explain([]string{dir}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Failed() || rec.FailClass != "negotiation" || rec.Peer != "dec5000" ||
		rec.Node != "explain" || !strings.Contains(rec.Error, "not pre-distributed") {
		t.Errorf("record = %+v", rec)
	}
	if rec.Tree == nil || rec.Tree.TraceID != trace || len(rec.Tree.Events) == 0 {
		t.Fatalf("tree = %+v", rec.Tree)
	}
	evs := rec.Tree.Events
	for i, ev := range evs[1:] {
		if ev.AtUS < evs[i].AtUS {
			t.Errorf("events out of order: %+v after %+v", ev, evs[i])
		}
	}
	if last := evs[len(evs)-1]; last.Kind != "session.classify" || !strings.HasPrefix(last.Detail, "negotiation") {
		t.Errorf("last event = %+v, want the classification", last)
	}
	if _, err := fleet.Explain([]string{dir}, "no-such-trace"); !errors.Is(err, fleet.ErrNoRecord) {
		t.Errorf("unknown trace: err = %v, want ErrNoRecord", err)
	}
}

// failedSession runs one good migration and one traced offer of an
// unregistered program into a daemon that journals into dir (node
// "explain"). It returns dir, the journal's text, the daemon's Logf output
// and the failed client's trace ID.
func failedSession(t *testing.T) (dir, journal, logs, trace string) {
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
		Journal: j,
		Logf:    func(format string, args ...any) { jlogf(&lbuf, format, args...) },
	}
	addr, served := daemonFixture(t, d)

	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("successful migration failed: %v", err)
	}

	// A traced client offering an unregistered program fails the
	// handshake; the daemon adopts the trace, so its record and tree are
	// found by the client's trace ID.
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

	return dir, jbuf.String(), lbuf.String(), root.Export().TraceID
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

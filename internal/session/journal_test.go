package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
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

// TestJournalRecordsAndFlightCrossReference is the journal/flight
// interplay regression: a failed traced session's journal record and its
// flight-recorder dump must carry the same trace ID — greppable as
// flight-<traceID>.json straight from the journal line. It also pins the
// journal record shape for successes (how, bytes, durations), and that
// Logf keeps the flight recording.
func TestJournalRecordsAndFlightCrossReference(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	dir := t.TempDir()
	var jbuf lockedBuffer
	var logs lockedBuffer
	d := &Daemon{
		Registry: reg, Mach: arch.SPARC20, Metrics: obs.NewRegistry(),
		TraceDir: dir,
		Journal:  slog.New(slog.NewJSONHandler(&jbuf, nil)),
		Logf:     func(format string, args ...any) { jlogf(&logs, format, args...) },
	}
	addr, served := daemonFixture(t, d)

	if _, err := migrateTo(t, addr, e, Config{}); err != nil {
		t.Fatalf("successful migration failed: %v", err)
	}

	// A traced client offering an unregistered program fails the
	// handshake; the daemon adopts the trace, so the flight dump is named
	// by the trace ID.
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

	var restored, failed map[string]any
	scan := bufio.NewScanner(strings.NewReader(jbuf.String()))
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
		t.Fatalf("journal missing records:\n%s", jbuf.String())
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
	if !strings.Contains(jbuf.String(), "flight-"+traceID+".json") {
		t.Errorf("journal not greppable for the dump name:\n%s", jbuf.String())
	}
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("journal points at a missing dump: %v", err)
	}
	var dump obs.FlightData
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.TraceID != traceID {
		t.Errorf("dump trace ID %q != journal trace %q", dump.TraceID, traceID)
	}

	if !strings.Contains(logs.String(), "flight recording") {
		t.Errorf("free-form diagnostics lost:\n%s", logs.String())
	}
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

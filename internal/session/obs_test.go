package session

import (
	"fmt"
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

// TestDaemonMetricsAndTraceConcurrent runs several concurrent sessions —
// successes and a negotiation failure — against a daemon publishing to an
// injected obs registry with per-session tracing on. The lifecycle
// counters must balance and every session must log its phase-span tree.
// Run under -race -count=2 in CI: the registry is shared by all workers.
func TestDaemonMetricsAndTraceConcurrent(t *testing.T) {
	const clients = 4
	e := newListEngine(t)
	unregistered, err := core.NewEngine(`int main() { migrate_here(); return 7; }`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("list", e)

	var mu sync.Mutex
	var logs []string
	metrics := obs.NewRegistry()
	d := &Daemon{
		Registry:      reg,
		Mach:          arch.SPARC20,
		MaxConcurrent: clients,
		Timeout:       time.Minute,
		Metrics:       metrics,
		Trace:         true,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
		OnRestored: func(info Info, p *vm.Process, _ core.Timing) {
			p.MaxSteps = 1_000_000
			res, err := p.Run()
			if err != nil || res.ExitCode != listExit {
				t.Errorf("session %d: exit=%v err=%v", info.ID, res, err)
			}
		},
	}
	addr, served := daemonFixture(t, d)

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := migrateTo(t, addr, e, Config{ChunkSize: 512}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	// One deliberate failure: a program the daemon does not hold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := migrateTo(t, addr, unregistered, Config{}); err == nil {
			t.Error("unregistered program was accepted")
		}
	}()
	wg.Wait()
	d.Shutdown()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	counters := metrics.Snapshot().Counters
	if counters["session.accepted"] != clients+1 {
		t.Errorf("session.accepted = %d, want %d", counters["session.accepted"], clients+1)
	}
	if counters["session.restored"] != clients {
		t.Errorf("session.restored = %d, want %d", counters["session.restored"], clients)
	}
	if counters["session.failed"] != 1 {
		t.Errorf("session.failed = %d, want 1", counters["session.failed"])
	}
	if counters["session.fail."+string(FailNegotiation)] != 1 {
		t.Errorf("session.fail.%s = %d, want 1", FailNegotiation,
			counters["session.fail."+string(FailNegotiation)])
	}
	if counters["session.bytes"] == 0 {
		t.Error("session.bytes = 0")
	}

	mu.Lock()
	defer mu.Unlock()
	traces := 0
	for _, l := range logs {
		if strings.Contains(l, "trace:") && strings.Contains(l, "session") {
			traces++
			if strings.Contains(l, "restored") && !strings.Contains(l, "restore") {
				t.Errorf("restored session trace missing restore span:\n%s", l)
			}
		}
	}
	if traces != clients+1 {
		t.Errorf("logged %d session traces, want %d", traces, clients+1)
	}
}

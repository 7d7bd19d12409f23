package session

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Every early return in Initiate, its round driver, and awaitRestored must
// leave the source paused and resumable — the first half of the
// rollback-or-complete contract. These tests name each return path
// explicitly (the chaos matrix sweeps the same ground exhaustively but
// anonymously) and assert Rollback completes the source correctly.

func TestRollbackRunsToCompletion(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	metrics := obs.NewRegistry()
	res, err := Rollback(p, Config{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated || res.ExitCode != listExit {
		t.Errorf("rolled-back run = %+v, want exit %d", res, listExit)
	}
	if n := metrics.Counter("session.rolledback").Value(); n != 1 {
		t.Errorf("session.rolledback = %d, want 1", n)
	}
	if n := metrics.Histogram("session.rollback").Snapshot().Count; n != 1 {
		t.Errorf("session.rollback histogram count = %d, want 1", n)
	}
}

func TestRollbackPausesAtNextGrantedPoll(t *testing.T) {
	// The mutating workload polls once per round, and stoppedLive grants
	// every poll: the rollback resumes to the NEXT poll stop, not to
	// completion — the source re-enters its migratable state.
	e := newMutatingEngine(t, 4)
	p := stoppedLive(t, e, arch.DEC5000)
	res, err := Rollback(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Errorf("rollback ran to completion; want a pause at the next granted poll")
	}
}

func TestRollbackFailureIsCounted(t *testing.T) {
	e := newListEngine(t)
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	// Never run, never stopped: there is no poll site to resume from.
	metrics := obs.NewRegistry()
	if _, err := Rollback(p, Config{Metrics: metrics}); err == nil {
		t.Fatal("rollback of a never-stopped process succeeded")
	}
	if n := metrics.Counter("session.rollback.failed").Value(); n != 1 {
		t.Errorf("session.rollback.failed = %d, want 1", n)
	}
}

// TestInitiateErrorPathsLeaveSourceResumable walks each named early
// return: kill the session at that exact path, then prove the source is
// byte-identical (stop-and-copy) and resumes to the correct exit.
func TestInitiateErrorPathsLeaveSourceResumable(t *testing.T) {
	coldCfg := Config{ChunkSize: 1024}
	// DirtyThreshold beyond any dirty set: the live loop runs round 0,
	// stops on "threshold", and the final round is ANNOUNCE #2 — a fixed
	// frame schedule the specs below can name.
	liveCfg := Config{ChunkSize: 4096, PrecopyRounds: 3, DirtyThreshold: 1 << 30, Live: true}
	cases := []struct {
		name string
		live bool
		cfg  Config
		spec chaos.Spec
	}{
		{"offer-send", false, coldCfg, chaos.Spec{Victim: chaos.VictimSource,
			Point: chaos.Point{Class: "offer", N: 1, When: chaos.BeforeSend}}},
		{"handshake-read", false, coldCfg, chaos.Spec{Victim: chaos.VictimDest,
			Point: chaos.Point{Class: "offer", N: 1, When: chaos.AfterRecv}}},
		{"transfer-send", false, coldCfg, chaos.Spec{Victim: chaos.VictimSource,
			Point: chaos.Point{Class: "data", N: 1, When: chaos.BeforeSend}}},
		{"confirm-read", false, coldCfg, chaos.Spec{Victim: chaos.VictimDest,
			Point: chaos.Point{Class: "restored", N: 1, When: chaos.BeforeSend}}},
		{"commit-send", false, coldCfg, chaos.Spec{Victim: chaos.VictimSource,
			Point: chaos.Point{Class: "restored", N: 1, When: chaos.AfterRecv}}},
		{"live-round-send", true, liveCfg, chaos.Spec{Victim: chaos.VictimSource,
			Point: chaos.Point{Class: "announce", N: 1, When: chaos.BeforeSend}}},
		{"live-final-send", true, liveCfg, chaos.Spec{Victim: chaos.VictimSource,
			Point: chaos.Point{Class: "announce", N: 2, When: chaos.BeforeSend}}},
		{"live-confirm-read", true, liveCfg, chaos.Spec{Victim: chaos.VictimDest,
			Point: chaos.Point{Class: "restored", N: 1, When: chaos.BeforeSend}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m := chaosMode{name: c.name, live: c.live, cfg: c.cfg}
			e := m.engine(t)
			p := m.fixture(t, e)
			var direct []byte
			if !c.live {
				var err error
				if direct, err = p.Recapture(); err != nil {
					t.Fatal(err)
				}
			}
			inj := chaos.New(c.spec)
			initErr, q, respErr := runChaosMigration(t, m, e, p, inj, c.cfg, c.cfg)
			if initErr == nil {
				t.Fatalf("migration survived the injected fault")
			}
			if q != nil || respErr == nil {
				t.Fatalf("destination kept a copy across the %s failure: q=%v err=%v", c.name, q, respErr)
			}
			if !c.live {
				re, err := p.Recapture()
				if err != nil {
					t.Fatalf("recapture after %s failure: %v", c.name, err)
				}
				if !bytes.Equal(re, direct) {
					t.Errorf("source state changed across the %s failure", c.name)
				}
			} else {
				p.PollHook = nil
			}
			res, err := Rollback(p, c.cfg)
			if err != nil {
				t.Fatalf("rollback after %s failure: %v", c.name, err)
			}
			if res.Migrated || res.ExitCode != m.exit() {
				t.Errorf("rolled-back run = %+v, want exit %d", res, m.exit())
			}
		})
	}
}

// TestTransferRollsBackOnFailure pins the satellite fix: a failed
// Transfer used to return with the source still paused forever. Now it
// resumes the source before returning.
func TestTransferRollsBackOnFailure(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	metrics := obs.NewRegistry()
	span := obs.NewTracer().Start("session")
	// The destination holds a different build of "list": the handshake
	// matches the digest Transfer offers, the state that arrives names
	// functions and sites that build does not have, and the restore fails.
	other, err := core.NewEngine(`int main() { migrate_here(); return 7; }`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Metrics: metrics, Trace: span}
	q, _, err := Transfer(other, "list", p, arch.SPARC20, cfg)
	if err == nil || q != nil {
		t.Fatalf("Transfer = %v, %v; want a failed restore", q, err)
	}
	if n := metrics.Counter("session.rolledback").Value(); n != 1 {
		t.Errorf("session.rolledback = %d, want 1 (source left paused forever?)", n)
	}
	var resumed bool
	for _, ev := range eventsOf(span.Export(), "session.rollback") {
		resumed = resumed || strings.Contains(ev.Detail, "ran to completion")
	}
	if !resumed {
		t.Errorf("session tree lacks the rollback completion:\n%s", span.Export().Tree())
	}
}

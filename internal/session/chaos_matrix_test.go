package session

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/vm"
)

// The chaos matrix is the enforcement mechanism for the session layer's
// recovery contract: for EVERY protocol configuration, at EVERY frame
// boundary a migration crosses, killing ANY party must leave exactly one
// live copy of the process — the rolled-back source or the committed
// destination, never zero and never both. The cells are not hand-picked:
// a clean recorded run of each configuration enumerates its own
// boundaries (chaos.Points), so a protocol change that adds frames adds
// matrix cells automatically.

// chaosMode is one protocol-configuration column of the matrix.
type chaosMode struct {
	name string
	live bool
	warm bool
	cfg  Config
}

// chaosModes lists the four configurations: cold, warm, live, and live
// into a store. The names are the matrix's cell IDs
// (TestChaosMatrix/<mode>/<cell>) and stay what they were when a shape was
// negotiated as a version: v3 is the sectioned chunk stream, v4 the live
// rounds.
func chaosModes() []chaosMode {
	liveCfg := Config{ChunkSize: 4096, PrecopyRounds: 3, DirtyThreshold: 1}
	return []chaosMode{
		{name: "v3", cfg: Config{ChunkSize: 640}},
		{name: "v3-warm", warm: true, cfg: Config{ChunkSize: 1024}},
		{name: "v4-live", live: true, cfg: liveCfg},
		{name: "v4-live-warm", live: true, warm: true, cfg: liveCfg},
	}
}

// cellIDs keeps each matrix cell's ID what it was when a chaos class
// carried the protocol phase of its message: the cell that kills the
// link before the 1st COMMIT goes out runs as
// TestChaosMatrix/<mode>/link@confirm/commit:1/before-send, while its
// spec, the one -chaos takes, is link@commit:1/before-send. These are
// test IDs only; no spec parses them.
var cellIDs = map[string]string{
	"offer": "handshake/offer", "accept": "handshake/accept", "reject": "handshake/reject",
	"restored": "confirm/restored", "commit": "confirm/commit",
	"announce": "live/delta", "want": "live/want", "bodies": "live/bodies", "abort": "live/abort",
	"data": "transport/data", "fin": "transport/ctl", "raw": "transport/raw",
}

// cellID names one matrix cell by its kept ID; a class the table lacks
// names itself.
func cellID(c chaos.Spec) string {
	cls, ok := cellIDs[c.Point.Class]
	if !ok {
		cls = c.Point.Class
	}
	return fmt.Sprintf("%s@%s:%d/%s", c.Victim, cls, c.Point.N, c.Point.When)
}

func (m chaosMode) engine(t *testing.T) *core.Engine {
	t.Helper()
	if m.live {
		return newMutatingEngine(t, 8)
	}
	return newListEngine(t)
}

func (m chaosMode) fixture(t *testing.T, e *core.Engine) *vm.Process {
	t.Helper()
	if m.live {
		return stoppedLive(t, e, arch.DEC5000)
	}
	return stoppedAt(t, e, arch.DEC5000)
}

func (m chaosMode) exit() int {
	if m.live {
		return 0 // the mutating workload exits 0 iff every mutation survived
	}
	return listExit
}

// runChaosMigration drives one full migration of p with both transport
// endpoints wrapped by inj, returning both sides' outcomes. On initiator
// failure the raw pipe is closed so the responder always joins.
func runChaosMigration(t *testing.T, m chaosMode, e *core.Engine, p *vm.Process, inj *chaos.Injector, srcCfg, dstCfg Config) (initErr error, q *vm.Process, respErr error) {
	t.Helper()
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	srcT, dstT := inj.Source(a), inj.Dest(b)
	reg := NewRegistry()
	reg.Add("prog", e)
	type rr struct {
		q   *vm.Process
		err error
	}
	c := make(chan rr, 1)
	go func() {
		_, q, err := Respond(dstT, reg, arch.SPARC20, dstCfg)
		c <- rr{q, err}
	}()
	_, initErr = Initiate(srcT, e, p.Mach, "prog", p, srcCfg)
	if initErr != nil {
		a.Close()
		b.Close()
	}
	r := <-c
	return initErr, r.q, r.err
}

// verifyRestored asserts the destination copy carries the migrated state:
// it runs to the workload's correct exit.
func verifyRestored(t *testing.T, m chaosMode, q *vm.Process) {
	t.Helper()
	if q.Mach != arch.SPARC20 {
		t.Errorf("restored process on %s, want destination machine", q.Mach.Name)
	}
	q.MaxSteps = 50_000_000
	res, err := q.Run()
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if res.Migrated || res.ExitCode != m.exit() {
		t.Errorf("restored run = %+v, want exit %d", res, m.exit())
	}
}

// runChaosCell runs one matrix cell: a fresh migration killed at the
// cell's boundary, then the rollback-or-complete assertion. srcHits says
// whether the source's end is the one whose Send or Recv hits the
// boundary, so whose tree must record the fault.
func runChaosCell(t *testing.T, m chaosMode, e *core.Engine, cell chaos.Spec, srcHits bool) {
	t.Helper()
	inj := chaos.New(cell)
	srcCfg, dstCfg := m.cfg, m.cfg
	srcCfg.Trace, dstCfg.Trace = obs.NewTracer().Start("migration"), obs.NewTracer().Start("session")
	if m.warm {
		srcCfg.Store = openTestStore(t)
		dstCfg.Store = openTestStore(t)
	}
	if m.live {
		srcCfg.Live, dstCfg.Live = true, true
	}

	p := m.fixture(t, e)
	var direct []byte
	if !m.live {
		// Stop-and-copy leaves the source untouched by the attempt, so a
		// rollback must find the byte-identical state.
		var err error
		if direct, err = p.Recapture(); err != nil {
			t.Fatal(err)
		}
	}

	initErr, q, respErr := runChaosMigration(t, m, e, p, inj, srcCfg, dstCfg)
	if _, fired := inj.Fired(); !fired {
		t.Fatalf("fault %s never fired (init=%v resp=%v)", cell, initErr, respErr)
	}
	destAlive := respErr == nil && q != nil

	switch {
	case initErr == nil && !destAlive:
		t.Fatalf("no survivor: source relinquished (nil error) but destination failed: %v", respErr)
	case initErr == nil:
		// The destination is the one live copy; the source stays paused
		// and is never resumed.
		verifyRestored(t, m, q)
	case errors.Is(initErr, ErrSourceExited):
		// The source ran to completion locally between live rounds — that
		// finished run is the one copy; the destination must stand down.
		if destAlive {
			t.Fatalf("two survivors: source ran to completion locally and destination activated")
		}
	case destAlive:
		t.Fatalf("two survivors: source rolling back (%v) while destination activated", initErr)
	default:
		// The source is the one live copy: still paused, state intact,
		// resumable to the workload's correct exit.
		if !m.live {
			re, err := p.Recapture()
			if err != nil {
				t.Fatalf("recapture after failed attempt: %v", err)
			}
			if !bytes.Equal(re, direct) {
				t.Errorf("source state after failed attempt differs from pre-attempt capture (%d vs %d bytes)",
					len(re), len(direct))
			}
		} else {
			// The live source advanced between rounds, so there is no
			// pre-attempt image to compare against; it must still be
			// capturable where it paused.
			if _, err := p.CaptureSections(0); err != nil {
				t.Fatalf("capture after failed live attempt: %v", err)
			}
			p.PollHook = nil // let the rollback run to completion
		}
		res, err := Rollback(p, srcCfg)
		if err != nil {
			t.Fatalf("rollback: %v", err)
		}
		if res.Migrated || res.ExitCode != m.exit() {
			t.Errorf("rolled-back run = %+v, want exit %d", res, m.exit())
		}
	}

	// Every injected fault names its boundary in the tree of the side
	// whose end hit it, and in that tree only.
	hit, other := dstCfg.Trace, srcCfg.Trace
	if srcHits {
		hit, other = other, hit
	}
	if evs := eventsOf(hit.Export(), "chaos.inject"); len(evs) != 1 || !strings.Contains(evs[0].Detail, cell.Point.String()) {
		t.Errorf("the %s tree's chaos.inject events %+v, want one naming boundary %s", hit.Name(), evs, cell.Point)
	}
	if evs := eventsOf(other.Export(), "chaos.inject"); len(evs) != 0 {
		t.Errorf("the %s tree records the fault too: %+v", other.Name(), evs)
	}
}

// TestChaosMatrix generates and runs the full matrix: for each protocol
// configuration, a clean recorded migration enumerates every frame
// boundary it crosses; each boundary × {before-send, after-recv} ×
// {source, dest, link} becomes a cell asserting exactly one surviving
// copy. Every cell runs, -short or not: the whole matrix takes about a
// second, ten under -race.
func TestChaosMatrix(t *testing.T) {
	for _, m := range chaosModes() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			e := m.engine(t)
			srcCfg, dstCfg := m.cfg, m.cfg
			if m.warm {
				srcCfg.Store = openTestStore(t)
				dstCfg.Store = openTestStore(t)
			}
			if m.live {
				srcCfg.Live, dstCfg.Live = true, true
			}
			rec := chaos.NewRecordOnly()
			p := m.fixture(t, e)
			initErr, q, respErr := runChaosMigration(t, m, e, p, rec, srcCfg, dstCfg)
			if initErr != nil || respErr != nil || q == nil {
				t.Fatalf("clean run failed: init=%v resp=%v", initErr, respErr)
			}
			verifyRestored(t, m, q)
			trace := rec.Trace()
			// A frame's sender hits its before-send boundary and its
			// receiver its after-recv one.
			fromSource := map[chaos.Point]bool{}
			for _, ev := range trace {
				fromSource[chaos.Point{Class: ev.Class, N: ev.N}] = ev.FromSource
			}
			points := chaos.Points(trace, 3)
			cells := chaos.Cells(points, chaos.Victims)
			if len(cells) == 0 {
				t.Fatal("empty matrix: no injection points derived from the clean trace")
			}
			t.Logf("%s: %d frames -> %d boundaries -> %d cells", m.name, len(trace), len(points), len(cells))
			for _, cell := range cells {
				cell := cell
				t.Run(cellID(cell), func(t *testing.T) {
					t.Parallel()
					sent := fromSource[chaos.Point{Class: cell.Point.Class, N: cell.Point.N}]
					runChaosCell(t, m, e, cell, sent == (cell.Point.When == chaos.BeforeSend))
				})
			}
		})
	}
}

// TestChaosKillAtLiveAbort pins the regression where a fault at the
// ABORT boundary turned a completed source run into a failed
// rollback: when the source exits between pre-copy rounds, the finished
// local run IS the surviving copy, and ErrSourceExited must win over any
// wire error — including the abort notice itself never getting out.
func TestChaosKillAtLiveAbort(t *testing.T) {
	// One mutation round and an unreachable convergence threshold: the
	// workload runs to completion while round 0 is still being shipped.
	cfg := Config{ChunkSize: 4096, PrecopyRounds: 8, DirtyThreshold: 0, Live: true}
	m := chaosMode{name: "abort", live: true, cfg: cfg}
	specs := []struct {
		name string
		spec chaos.Spec
	}{
		{"clean", chaos.Spec{}}, // record-only: abort crosses, responder stands down
		{"before-send", chaos.Spec{Victim: chaos.VictimLink,
			Point: chaos.Point{Class: "abort", N: 1, When: chaos.BeforeSend}}},
		{"after-recv", chaos.Spec{Victim: chaos.VictimDest,
			Point: chaos.Point{Class: "abort", N: 1, When: chaos.AfterRecv}}},
	}
	for _, c := range specs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := newMutatingEngine(t, 1)
			p := stoppedLive(t, e, arch.DEC5000)
			inj := chaos.New(c.spec)
			if c.spec == (chaos.Spec{}) {
				inj = chaos.NewRecordOnly()
			}
			initErr, q, respErr := runChaosMigration(t, m, e, p, inj, cfg, cfg)
			if !errors.Is(initErr, ErrSourceExited) {
				t.Fatalf("initiator err = %v, want ErrSourceExited", initErr)
			}
			if respErr == nil || q != nil {
				t.Fatalf("responder restored a copy of an exited source: q=%v err=%v", q, respErr)
			}
			if c.name == "clean" {
				if !errors.Is(respErr, ErrLiveAborted) {
					t.Errorf("responder err = %v, want ErrLiveAborted", respErr)
				}
				var sawAbort bool
				for _, ev := range inj.Trace() {
					if ev.Class == "abort" {
						sawAbort = true
					}
				}
				if !sawAbort {
					t.Error("clean run delivered no ABORT frame")
				}
			} else if ClassifyFailure(respErr) != FailTransport {
				t.Errorf("responder failure classified %q, want %q (%v)",
					ClassifyFailure(respErr), FailTransport, respErr)
			}
		})
	}
}

// TestChaosKillBetweenRestoredAndCommit pins the exact window the commit
// handshake exists for: the connection dies after the initiator has seen
// RESTORED but before its COMMIT reaches the responder. Without the
// handshake both sides would keep a copy; with it the destination
// discards and the source rolls back byte-identically.
func TestChaosKillBetweenRestoredAndCommit(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	direct, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Spec{Victim: chaos.VictimSource,
		Point: chaos.Point{Class: "restored", N: 1, When: chaos.AfterRecv}})
	m := chaosMode{name: "v3", cfg: Config{ChunkSize: 256}}
	initErr, q, respErr := runChaosMigration(t, m, e, p, inj, m.cfg, m.cfg)
	if initErr == nil || !errors.Is(initErr, chaos.ErrInjected) {
		t.Fatalf("initiator err = %v, want the injected commit-send failure", initErr)
	}
	if q != nil || respErr == nil {
		t.Fatalf("destination kept a copy without COMMIT: q=%v err=%v", q, respErr)
	}
	re, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Error("source state changed across the failed attempt")
	}
	res, err := Rollback(p, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated || res.ExitCode != listExit {
		t.Errorf("rolled-back run = %+v, want exit %d", res, listExit)
	}
}

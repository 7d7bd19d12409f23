package exper

// E15 — chaos matrix: survivor accounting and rollback latency under
// injected faults.
//
// The chaos harness (internal/chaos) kills one party of a migration at a
// chosen frame boundary; the session layer's recovery contract says every
// such kill leaves exactly one live copy of the process — the committed
// destination, the rolled-back source, or (live mode) the source run that
// finished locally between rounds. TestChaosMatrix enforces the contract
// cell by cell; E15 measures it: for each protocol configuration a clean
// recorded run enumerates its own frame boundaries, a seed-reproducible
// sample of boundary × when × victim cells is executed, and the rows
// report where the survivors landed, how each initiator failure
// classified, and the rollback latency distribution.
//
// Acceptance gate: the ZeroSurvivors and TwoSurvivors columns are zero in
// every row. A zero means a fault lost the process (the paper's data
// collection left nothing restorable); a two means the commit handshake
// failed to arbitrate (both sides kept a copy). Either is a protocol bug,
// and the gate (gateChaos) fails.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// ChaosRow is one protocol configuration's sweep over sampled fault
// cells.
type ChaosRow struct {
	Mode string
	// Frames is the clean run's wire-frame count; Boundaries the
	// distinct injection points derived from it (per-class capped);
	// Cells the full boundary × when × victim matrix; Ran the
	// seed-sampled subset actually executed.
	Frames     int
	Boundaries int
	Cells      int
	Ran        int
	// Survivor accounting: every cell must land in exactly one of the
	// first three buckets. ZeroSurvivors and TwoSurvivors are the
	// contract violations the gate rejects.
	DestCompleted    int
	SourceRolledBack int
	SourceExited     int
	ZeroSurvivors    int
	TwoSurvivors     int
	// Initiator failure classes (ClassifyFailure over every non-nil
	// initiator error): injected kills must surface as transport, never
	// as an unclassified mystery.
	FailTransport int
	FailCorrupt   int
	FailOther     int
	// Rollback latency quantiles from the session.rollback histogram —
	// the price of the "or rollback" arm of the contract.
	Rollbacks   int64
	RollbackP50 time.Duration
	RollbackP99 time.Duration
	OK          bool
}

// chaosExp is one protocol-configuration row of the E15 sweep — the
// bench-side analogue of the test matrix's chaosMode.
type chaosExp struct {
	name string
	live bool
	cfg  session.Config
}

func chaosExps() []chaosExp {
	return []chaosExp{
		{name: "cold", cfg: session.Config{ChunkSize: 1024}},
		{name: "live", live: true,
			cfg: session.Config{PrecopyRounds: 3, DirtyThreshold: 1, Live: true}},
	}
}

// chaosEngine compiles the mode's workload: a sharded-list builder with a
// single migration point for stop-and-copy modes, the mutating-shards
// workload (one poll per mutation round) for live. Both exit 0 iff every
// byte survived.
func (x chaosExp) chaosEngine() (*core.Engine, error) {
	if x.live {
		return core.NewEngine(workload.MutatingShardsSource(4, 20, 8), minic.PollPolicy{})
	}
	return core.NewEngine(workload.ShardedListsSource(4, 30), minic.PollPolicy{})
}

// chaosFixture pauses a fresh process at its migration point: captured
// for stop-and-copy, NoAutoCapture with an always-granting poll hook for
// live.
func (x chaosExp) chaosFixture(e *core.Engine) (*vm.Process, error) {
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		return nil, err
	}
	p.MaxSteps = 50_000_000
	if x.live {
		p.NoAutoCapture = true
		p.PollHook = func(_ *vm.Process, _ *minic.Site) bool { return true }
	} else {
		var req core.Request
		req.Raise()
		p.PollHook = req.Hook()
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if !res.Migrated {
		return nil, fmt.Errorf("exper: chaos workload exited (code %d) before its migration point", res.ExitCode)
	}
	return p, nil
}

// chaosMigrate drives one migration of p over a pipe with both transport
// ends wrapped by inj, returning both sides' outcomes.
func chaosMigrate(e *core.Engine, p *vm.Process, inj *chaos.Injector, cfg session.Config) (initErr error, q *vm.Process, respErr error) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	_, q, initErr, respErr = migrate(inj.Source(a), inj.Dest(b), e, "prog", p, arch.SPARC20, cfg, cfg)
	return initErr, q, respErr
}

// chaosVerify runs a surviving copy to completion; exit 0 proves the
// workload's checksum crossed intact.
func chaosVerify(q *vm.Process) error {
	q.MaxSteps = 50_000_000
	q.PollHook = nil
	res, err := q.Run()
	if err != nil {
		return err
	}
	if res.Migrated || res.ExitCode != 0 {
		return fmt.Errorf("exper: surviving copy ran to %+v, want exit 0", res)
	}
	return nil
}

// Chaos runs E15: for each protocol configuration, derive the fault
// matrix from a clean recorded run, execute a seed-sampled subset of
// cells, and account for every survivor.
func Chaos(cfg Config) ([]ChaosRow, error) {
	sampleN := 24
	if cfg.Quick {
		sampleN = 10
	}
	var out []ChaosRow
	for _, x := range chaosExps() {
		e, err := x.chaosEngine()
		if err != nil {
			return nil, err
		}
		metrics := obs.NewRegistry()
		scfg := x.cfg
		scfg.Metrics = metrics

		// A clean record-only run enumerates the configuration's own
		// frame boundaries — the matrix is generated, not hand-picked.
		p, err := x.chaosFixture(e)
		if err != nil {
			return nil, err
		}
		rec := chaos.NewRecordOnly()
		initErr, q, respErr := chaosMigrate(e, p, rec, scfg)
		if initErr != nil || respErr != nil || q == nil {
			return nil, fmt.Errorf("exper: clean %s run failed: init=%v resp=%v", x.name, initErr, respErr)
		}
		if err := chaosVerify(q); err != nil {
			return nil, fmt.Errorf("exper: clean %s run: %w", x.name, err)
		}
		trace := rec.Trace()
		points := chaos.Points(trace, 3)
		cells := chaos.Cells(points, chaos.Victims)
		row := ChaosRow{Mode: x.name, Frames: len(trace), Boundaries: len(points), Cells: len(cells)}
		sampled := chaos.Sample(cells, 1, sampleN)
		row.Ran = len(sampled)

		for _, cell := range sampled {
			p, err := x.chaosFixture(e)
			if err != nil {
				return nil, err
			}
			inj := chaos.New(cell)
			initErr, q, respErr := chaosMigrate(e, p, inj, scfg)
			destAlive := respErr == nil && q != nil
			if initErr != nil && !errors.Is(initErr, session.ErrSourceExited) {
				switch session.ClassifyFailure(initErr) {
				case session.FailTransport:
					row.FailTransport++
				case session.FailCorrupt:
					row.FailCorrupt++
				default:
					row.FailOther++
				}
			}
			switch {
			case initErr == nil && !destAlive:
				row.ZeroSurvivors++
			case initErr == nil:
				if err := chaosVerify(q); err != nil {
					return nil, fmt.Errorf("exper: %s cell %s: %w", x.name, cell, err)
				}
				row.DestCompleted++
			case errors.Is(initErr, session.ErrSourceExited):
				if destAlive {
					row.TwoSurvivors++
				} else {
					row.SourceExited++
				}
			case destAlive:
				row.TwoSurvivors++
			default:
				// The source is the intended survivor: roll it back and
				// run it to the workload's correct exit.
				p.PollHook = nil
				res, err := session.Rollback(p, scfg)
				if err != nil || res.Migrated || res.ExitCode != 0 {
					row.ZeroSurvivors++
				} else {
					row.SourceRolledBack++
				}
			}
		}

		h := metrics.Histogram("session.rollback")
		row.Rollbacks = h.Count()
		if row.Rollbacks > 0 {
			row.RollbackP50 = h.Quantile(0.5)
			row.RollbackP99 = h.Quantile(0.99)
		}
		row.OK = row.ZeroSurvivors == 0 && row.TwoSurvivors == 0
		out = append(out, row)
	}
	return out, nil
}

// gateChaos is the E15 gate: no sampled cell lost the process or kept two
// copies of it.
func gateChaos(rows []ChaosRow) error {
	var errs []error
	for _, r := range rows {
		if !r.OK {
			errs = append(errs, fmt.Errorf("%s: %d cells with zero survivors, %d with two — every fault must leave exactly one live copy",
				r.Mode, r.ZeroSurvivors, r.TwoSurvivors))
		}
	}
	return errors.Join(errs...)
}

// PrintChaos renders the E15 survivor and fail-class accounting.
func PrintChaos(w io.Writer, rows []ChaosRow) {
	t := stats.Table{
		Title: "E15 (chaos matrix): survivors and rollback latency under injected faults, DEC5000 -> SPARC20",
		Headers: []string{"Mode", "Frames", "Bnds", "Cells", "Ran",
			"Dest", "Rolled", "Exited", "Zero", "Two",
			"transport", "corrupt", "other", "RB p50", "RB p99", "OK"},
	}
	for _, r := range rows {
		t.AddRow(r.Mode, r.Frames, r.Boundaries, r.Cells, r.Ran,
			r.DestCompleted, r.SourceRolledBack, r.SourceExited,
			r.ZeroSurvivors, r.TwoSurvivors,
			r.FailTransport, r.FailCorrupt, r.FailOther,
			r.RollbackP50, r.RollbackP99, r.OK)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintln(w, "Each Ran cell kills one party at one frame boundary. Dest + Rolled + Exited must equal Ran:")
	fmt.Fprintln(w, "Zero (process lost) and Two (commit arbitration failed) are contract violations and fail the run.")
	fmt.Fprintln(w)
}

package exper

// E14 — live pre-copy migration: downtime versus total migration time
// across write rates.
//
// The stop-and-copy paths pay the whole capture + wire + restore as
// downtime. The v4 live path overlaps all but the final delta round with
// execution, so its downtime is bounded by what the workload re-dirties
// between polls — the write rate. E14 sweeps that knob: 16 heap lists,
// k of them mutated per poll round (k/16 of the heap dirty per round),
// k in {1, 2, 8, 16}.
//
// Each row compares the same paused state both ways. The stop-and-copy
// reference is a sectioned capture + restore with the 100 Mb/s Ethernet
// model supplying the wire term; the live transfer runs the real v4
// protocol over a pipe, with per-round wire sizes feeding the same link
// model. Pipes move bytes in microseconds, so — as in E9a/E13 — each
// measured column is paired with a modeled one; the migbench gate takes
// the better of the two (for downtime, the smaller ratio: a 1-core host
// inflates the measured numerator with scheduling noise the model
// excludes). Acceptance: at low/moderate write rates (k <= 2 of 16) live
// downtime is at most 25% of the stop-and-copy total, and at every rate
// the transfer degrades gracefully — never meaningfully worse than
// stop-and-copy plus one delta round. The downtime floor is structural:
// a steady writer re-dirties its write-rate share of the heap between
// polls, so the final round ships at least that fraction — a 50% write
// rate cannot land under a 25% ratio no matter the link.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// liveLists is the heap shard count of the E14 workload; the swept write
// rates are k/liveLists for k in LiveWriteCounts.
const liveLists = 16

// LiveWriteCounts is the write-rate sweep: lists mutated per round.
var LiveWriteCounts = []int{1, 2, 8, 16}

// LiveRow is one write rate's stop-and-copy vs live comparison.
type LiveRow struct {
	// Mutated of Lists lists are rewritten per poll round; WriteRate is
	// the fraction.
	Lists     int
	Mutated   int
	WriteRate float64
	// SnapshotBytes is the full sectioned snapshot of the paused state —
	// what stop-and-copy puts on the wire.
	SnapshotBytes int
	// Rounds is the live round count (full + deltas + final); FinalBytes
	// and WireBytes are the final round's and the cumulative wire sizes.
	Rounds     int
	FinalBytes int
	WireBytes  int
	StopReason string
	// StopTotal is the stop-and-copy downtime (== its total migration
	// time): measured capture+restore on this host, and modeled with the
	// Ethernet wire term in between.
	StopTotalMeasured time.Duration
	StopTotalModeled  time.Duration
	// Downtime is the live pause window: measured from the final pause
	// to RESTORED over the pipe, and modeled as the final round's wire
	// time plus the measured restore.
	DowntimeMeasured time.Duration
	DowntimeModeled  time.Duration
	// TotalModeled is the live transfer's cumulative wire + restore time
	// under the link model — the price paid for the bounded downtime.
	TotalModeled time.Duration
	// RatioMeasured and RatioModeled are downtime over stop-and-copy
	// total, same basis on both sides of the division.
	RatioMeasured float64
	RatioModeled  float64
	// ExitCode is the restored process's exit after finishing its
	// remaining rounds (0 = every mutation survived the migration).
	ExitCode int
}

// stopLiveAt runs the program on m to its first poll in NoAutoCapture
// mode — paused but resumable, as the live driver requires.
func stopLiveAt(e *core.Engine, m *arch.Machine) (*vm.Process, error) {
	p, err := e.NewProcess(m)
	if err != nil {
		return nil, err
	}
	p.MaxSteps = 500_000_000
	p.NoAutoCapture = true
	p.PollHook = func(_ *vm.Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if !res.Migrated {
		return nil, fmt.Errorf("exper: workload exited (code %d) before its first poll", res.ExitCode)
	}
	return p, nil
}

// Live runs E14: the write-rate sweep of live pre-copy migration against
// the stop-and-copy reference.
func Live(cfg Config) ([]LiveRow, error) {
	nnodes, rounds := 750, 10
	if cfg.Quick {
		nnodes = 200
	}
	var out []LiveRow
	for _, k := range LiveWriteCounts {
		e, err := core.NewEngine(workload.WriteRateSource(liveLists, nnodes, k, rounds), minic.PollPolicy{})
		if err != nil {
			return nil, err
		}

		// Stop-and-copy reference on the same paused state: measured
		// capture and restore bracket the modeled Ethernet wire term.
		ref, err := stopLiveAt(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		var snap []byte
		var failure error
		capT := stats.Repeat(cfg.repeats(), func() {
			s, err := ref.CaptureSections(0)
			if err != nil {
				failure = err
				return
			}
			snap = s
		})
		if failure != nil {
			return nil, failure
		}
		resT := stats.Repeat(cfg.repeats(), func() {
			if _, err := vm.RestoreProcess(e.Prog, arch.Ultra5, snap); err != nil {
				failure = err
			}
		})
		if failure != nil {
			return nil, failure
		}
		stopMeasured := capT + resT
		stopModeled := capT + link.Ethernet100.TxTime(len(snap)) + resT

		// The live transfer: real v4 protocol over a pipe. One shot per
		// rate — the source advances between rounds, so the run is not
		// repeatable in place.
		p, err := stopLiveAt(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		q, res, timing, err := session.Transfer(e, "write-rate", p, arch.Ultra5,
			session.Config{Live: true, PrecopyRounds: 4, DirtyThreshold: 4})
		if err != nil {
			return nil, err
		}
		st := res.Live
		finalBytes := st.Rounds[len(st.Rounds)-1].Bytes
		wireModel := time.Duration(0)
		for _, r := range st.Rounds {
			wireModel += link.Ethernet100.TxTime(r.Bytes)
		}
		row := LiveRow{
			Lists: liveLists, Mutated: k, WriteRate: float64(k) / liveLists,
			SnapshotBytes: len(snap),
			Rounds:        len(st.Rounds),
			FinalBytes:    finalBytes,
			WireBytes:     st.WireBytes,
			StopReason:    st.StopReason,

			StopTotalMeasured: stopMeasured,
			StopTotalModeled:  stopModeled,
			DowntimeMeasured:  st.Downtime,
			DowntimeModeled:   link.Ethernet100.TxTime(finalBytes) + timing.Restore,
			TotalModeled:      wireModel + timing.Restore,
		}
		row.RatioMeasured = ratio(row.DowntimeMeasured, row.StopTotalMeasured)
		row.RatioModeled = ratio(row.DowntimeModeled, row.StopTotalModeled)

		// The restored process finishes its remaining rounds; exit 0
		// proves every pre-migration mutation crossed intact.
		q.MaxSteps = 500_000_000
		r, err := q.Run()
		if err != nil {
			return nil, err
		}
		row.ExitCode = r.ExitCode
		out = append(out, row)
	}
	return out, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PrintLive renders the E14 sweep.
func PrintLive(w io.Writer, rows []LiveRow) {
	t := stats.Table{
		Title: "E14 (live pre-copy): downtime vs stop-and-copy total across write rates, 100Mb/s model, Ultra 5",
		Headers: []string{"Write rate", "Snapshot", "Rounds", "Stop", "Final B", "Wire B",
			"S&C meas", "S&C model", "Down meas", "Down model", "Ratio m", "Ratio M", "Exit"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d/%d (%.0f%%)", r.Mutated, r.Lists, r.WriteRate*100),
			r.SnapshotBytes, r.Rounds, r.StopReason, r.FinalBytes, r.WireBytes,
			r.StopTotalMeasured, r.StopTotalModeled,
			r.DowntimeMeasured, r.DowntimeModeled,
			fmt.Sprintf("%.2f", r.RatioMeasured), fmt.Sprintf("%.2f", r.RatioModeled),
			r.ExitCode)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintln(w, "Ratio = live downtime / stop-and-copy total, measured (pipe) and modeled (Ethernet wire terms).")
	fmt.Fprintln(w, "The pipe moves bytes in microseconds, so the measured ratio understates the wire's share on")
	fmt.Fprintln(w, "both sides of the division; the modeled column is the like-for-like comparison.")
	fmt.Fprintln(w)
}

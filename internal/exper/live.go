package exper

// E14 — live pre-copy migration: what crosses the wire, and how much of it
// while the process is stopped, across write rates.
//
// The stop-and-copy paths ship the whole snapshot as downtime. The live
// path overlaps all but the final delta round with execution, so the bytes
// it ships while paused are bounded by what the workload re-dirties
// between polls — the write rate. E14 sweeps that knob: 16 heap lists, k
// of them mutated per poll round (k/16 of the heap dirty per round), k in
// {1, 2, 8, 16}, each run through the real live rounds over a pipe.
//
// Every column is deterministic — snapshot bytes, rounds, stop reason,
// final-round bytes, cumulative wire bytes, exit code — and so is the
// gate: at low/moderate write rates (k <= 2 of 16) the final round ships
// at most 25% of the snapshot, and at every rate the transfer degrades
// gracefully — never more wire bytes than one full snapshot per round
// plus framing. The floor is structural: a steady writer re-dirties its
// write-rate share of the heap between polls, so the final round ships at
// least that fraction. The pause and the total in milliseconds are the
// benchmark's downtime_ms_p50 and migrate_ms_p50 on live_writer.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
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

// LiveRow is one write rate's live transfer.
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
	p.MaxSteps = maxSteps
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

// Live runs E14: the write-rate sweep of live pre-copy migration.
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
		p, err := stopLiveAt(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		q, res, _, err := session.Transfer(e, "write-rate", p, arch.Ultra5,
			session.Config{Live: true, PrecopyRounds: 4, DirtyThreshold: 4})
		if err != nil {
			return nil, err
		}
		st := res.Live
		row := LiveRow{
			Lists: liveLists, Mutated: k, WriteRate: float64(k) / liveLists,
			SnapshotBytes: st.SnapshotBytes,
			Rounds:        len(st.Rounds),
			FinalBytes:    st.Rounds[len(st.Rounds)-1].Bytes,
			WireBytes:     st.WireBytes,
			StopReason:    st.StopReason,
		}
		// The restored process finishes its remaining rounds; exit 0
		// proves every pre-migration mutation crossed intact.
		if row.ExitCode, err = runOut(q); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// gateLive is the E14 gate, in bytes: every restored process exits 0; at
// write rates <= 15% the final (paused) round ships at most 25% of the
// snapshot; and at every rate the cumulative wire bytes stay within 1% of
// one full snapshot per round.
func gateLive(rows []LiveRow) error {
	var errs []error
	for _, r := range rows {
		rate := fmt.Sprintf("write rate %d/%d", r.Mutated, r.Lists)
		if r.ExitCode != 0 {
			errs = append(errs, fmt.Errorf("%s: restored process exit %d, want 0", rate, r.ExitCode))
		}
		if r.WriteRate <= 0.15 && 4*r.FinalBytes > r.SnapshotBytes {
			errs = append(errs, fmt.Errorf("%s: final round %d B of a %d B snapshot, want <= 25%%",
				rate, r.FinalBytes, r.SnapshotBytes))
		}
		if 100*r.WireBytes > 101*r.Rounds*r.SnapshotBytes {
			errs = append(errs, fmt.Errorf("%s: %d wire bytes over %d rounds of a %d B snapshot, want <= 1.01x one snapshot per round",
				rate, r.WireBytes, r.Rounds, r.SnapshotBytes))
		}
	}
	return errors.Join(errs...)
}

// PrintLive renders the E14 sweep.
func PrintLive(w io.Writer, rows []LiveRow) {
	t := stats.Table{
		Title: "E14 (live pre-copy): bytes shipped while paused vs the full snapshot across write rates, Ultra 5",
		Headers: []string{"Write rate", "Snapshot", "Rounds", "Stop", "Final B", "Final %", "Wire B",
			"Wire / snapshot", "Exit"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d/%d (%.0f%%)", r.Mutated, r.Lists, r.WriteRate*100),
			r.SnapshotBytes, r.Rounds, r.StopReason, r.FinalBytes,
			fmt.Sprintf("%.1f%%", 100*float64(r.FinalBytes)/float64(r.SnapshotBytes)),
			r.WireBytes,
			fmt.Sprintf("%.2fx", float64(r.WireBytes)/float64(r.SnapshotBytes)),
			r.ExitCode)
	}
	fmt.Fprintln(w, t.String())
}

package exper

// E12 — the content-addressed checkpoint store (internal/store) and the
// warm migration path built on it. Two views:
//
//   - E12a checkpoints a mutating sharded-list workload at intervals of
//     1, 2, and 5 mutation rounds and measures the incremental dedup
//     ratio: with 10 lists and one list dirtied per round, a checkpoint
//     every round rewrites ~10% of the heap, so content addressing should
//     compress incremental checkpoints by well over 2x;
//   - E12b migrates the same workload cold (plain v3) and warm
//     (store-assisted HAVE/WANT) and compares bytes on the wire: the
//     first warm transfer pays the full price, an unchanged re-migration
//     ships only the manifest, a one-shard mutation ships one component.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/workload"
)

// storeLists and storeRounds shape the E12 workload: one list is dirtied
// per round, so a checkpoint interval of 1 sees 1/storeLists of the heap
// changed — the "10%-mutation" point.
const (
	storeLists  = 10
	storeRounds = 10
)

func storeNodes(cfg Config) int {
	if cfg.Quick {
		return 60
	}
	return 300
}

// storeRoot resolves where an E12 store lives: under cfg.StoreDir when the
// caller wants the fixture kept, a temp directory otherwise.
func storeRoot(cfg Config, name string) (string, error) {
	if cfg.StoreDir != "" {
		dir := filepath.Join(cfg.StoreDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		return dir, nil
	}
	return os.MkdirTemp("", "migstore-"+name+"-*")
}

// DedupRow is one checkpoint interval's E12a outcome.
type DedupRow struct {
	// Interval is the number of mutation rounds between checkpoints.
	Interval int
	// Checkpoints is how many checkpoints the run recorded (the first is
	// cold — an empty store — and excluded from the incremental columns).
	Checkpoints int
	Sections    int
	// SnapshotBytes and WrittenBytes sum the incremental checkpoints'
	// full snapshot sizes and actually-written (post-dedup) bytes; Ratio
	// is their quotient — the incremental dedup ratio.
	SnapshotBytes int64
	WrittenBytes  int64
	Ratio         float64
	// ColdBytes is the first checkpoint's written size (nothing dedups
	// against an empty store).
	ColdBytes int64
	// SweptBlobs and SweptBytes are what a KeepPerRef=1 GC reclaimed
	// after the run — the superseded generations.
	SweptBlobs int
	SweptBytes int64
	// Elapsed is the total checkpointing wall time.
	Elapsed time.Duration
	// ExitCode is the workload's final exit: 0 proves every mutation
	// survived the checkpoint cadence (the checksum re-verifies).
	ExitCode int
}

// StoreDedup runs E12a: checkpoint the mutating workload every interval-th
// migration point and measure how much the content-addressed store dedups
// incremental checkpoints.
func StoreDedup(cfg Config) ([]DedupRow, error) {
	var rows []DedupRow
	for _, interval := range []int{1, 2, 5} {
		e, err := core.NewEngine(
			workload.MutatingShardsSource(storeLists, storeNodes(cfg), storeRounds),
			minic.PollPolicy{})
		if err != nil {
			return nil, err
		}
		dir, err := storeRoot(cfg, fmt.Sprintf("interval-%d", interval))
		if err != nil {
			return nil, err
		}
		if cfg.StoreDir == "" {
			defer os.RemoveAll(dir)
		}
		st, err := store.Open(dir, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		p, err := e.NewProcess(arch.Ultra5)
		if err != nil {
			return nil, err
		}
		p.MaxSteps = maxSteps
		stopEvery := func(*vm.Process, *minic.Site) bool { return true }
		p.PollHook = stopEvery

		row := DedupRow{Interval: interval}
		polls := 0
		for {
			res, err := p.Run()
			if err != nil {
				return nil, err
			}
			if !res.Migrated {
				row.ExitCode = res.ExitCode
				break
			}
			polls++
			if polls%interval == 0 {
				start := time.Now()
				_, _, cst, err := e.CheckpointProcess(st, p, arch.Ultra5, "shards")
				if err != nil {
					return nil, err
				}
				row.Elapsed += time.Since(start)
				row.Checkpoints++
				row.Sections = cst.Sections
				if row.Checkpoints == 1 {
					row.ColdBytes = cst.WrittenBytes
				} else {
					row.SnapshotBytes += cst.SnapshotBytes
					row.WrittenBytes += cst.WrittenBytes
				}
			}
			// A stopped process cannot resume and re-capture; every hop
			// restores a fresh process from the captured state, exactly as a
			// real migration would.
			p, err = vm.RestoreProcess(e.Prog, arch.Ultra5, res.State)
			if err != nil {
				return nil, err
			}
			p.MaxSteps = maxSteps
			p.PollHook = stopEvery
		}
		if row.WrittenBytes > 0 {
			row.Ratio = float64(row.SnapshotBytes) / float64(row.WrittenBytes)
		}
		gc, err := st.GC(store.GCPolicy{KeepPerRef: 1})
		if err != nil {
			return nil, err
		}
		row.SweptBlobs = gc.SweptBlobs
		row.SweptBytes = gc.SweptBytes
		// The retained head must still hold every body after the sweep.
		if h, ok, err := st.Ref("shards"); err != nil || !ok {
			return nil, fmt.Errorf("exper: store ref after gc: ok=%v err=%v", ok, err)
		} else if _, _, err := st.Sections(h); err != nil {
			return nil, fmt.Errorf("exper: sections after gc: %w", err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintStoreDedup renders the E12a table.
func PrintStoreDedup(w io.Writer, rows []DedupRow) {
	t := stats.Table{
		Title: fmt.Sprintf("E12a (checkpoint store): incremental dedup vs checkpoint interval, %d lists, 1 dirtied/round, Ultra 5", storeLists),
		Headers: []string{"Interval", "Checkpoints", "Sections", "Cold bytes",
			"Incr snapshot", "Incr written", "Dedup", "GC swept", "Exit"},
	}
	for _, r := range rows {
		t.AddRow(r.Interval, r.Checkpoints, r.Sections, r.ColdBytes,
			r.SnapshotBytes, r.WrittenBytes, fmt.Sprintf("%.2fx", r.Ratio),
			fmt.Sprintf("%d blobs/%d B", r.SweptBlobs, r.SweptBytes), r.ExitCode)
	}
	fmt.Fprintln(w, t.String())
}

// StoreWireRow is one E12b migration mode.
type StoreWireRow struct {
	Mode     string
	Sections int
	// SectionsSent is how many section bodies crossed the wire (cold
	// transfers ship the whole snapshot and report all sections).
	SectionsSent int
	// SnapshotBytes is the full sectioned snapshot; WireBytes what the
	// transfer actually put on the wire; PctOfCold the latter relative to
	// the cold v3 transfer of the same state.
	SnapshotBytes int
	WireBytes     int
	PctOfCold     float64
	// ExitCode is the restored process run to completion (0 = checksum
	// verified on the destination).
	ExitCode int
}

// storeTransfer runs one full session over a pipe with per-side configs
// and returns the initiator result plus the restored process.
func storeTransfer(e *core.Engine, p *vm.Process, srcCfg, dstCfg session.Config) (*session.Result, *vm.Process, error) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	res, q, err, rerr := migrate(a, b, e, "shards", p, arch.Ultra5, srcCfg, dstCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("exper: initiate: %w", err)
	}
	if rerr != nil {
		return nil, nil, fmt.Errorf("exper: respond: %w", rerr)
	}
	return res, q, nil
}

// StoreWire runs E12b: the same stopped process migrates cold (plain v3),
// warm into an empty destination store, warm again unchanged, and warm
// after one more mutation round — comparing bytes on the wire.
func StoreWire(cfg Config) ([]StoreWireRow, error) {
	e, err := core.NewEngine(
		workload.MutatingShardsSource(storeLists, storeNodes(cfg), storeRounds),
		minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	srcDir, err := storeRoot(cfg, "wire-src")
	if err != nil {
		return nil, err
	}
	dstDir, err := storeRoot(cfg, "wire-dst")
	if err != nil {
		return nil, err
	}
	if cfg.StoreDir == "" {
		defer os.RemoveAll(srcDir)
		defer os.RemoveAll(dstDir)
	}
	srcStore, err := store.Open(srcDir, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	dstStore, err := store.Open(dstDir, obs.NewRegistry())
	if err != nil {
		return nil, err
	}

	// Stop at the first mutation round's poll.
	p, state, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return nil, err
	}

	var rows []StoreWireRow
	add := func(mode string, res *session.Result, q *vm.Process, coldBytes int) error {
		exit, err := runOut(q)
		if err != nil {
			return err
		}
		row := StoreWireRow{Mode: mode, WireBytes: res.Timing.Bytes, ExitCode: exit}
		if res.Warm != nil {
			row.Sections = res.Warm.Sections
			row.SectionsSent = res.Warm.SectionsSent
			row.WireBytes = res.Warm.WireBytes
			row.SnapshotBytes = res.Warm.SnapshotBytes
		}
		if coldBytes > 0 {
			row.PctOfCold = 100 * float64(row.WireBytes) / float64(coldBytes)
		}
		rows = append(rows, row)
		return nil
	}

	// Cold baseline: plain sectioned transfer, no stores anywhere.
	res, q, err := storeTransfer(e, p, session.Config{}, session.Config{})
	if err != nil {
		return nil, err
	}
	cold := res.Timing.Bytes
	if err := add("cold v3", res, q, cold); err != nil {
		return nil, err
	}

	// First warm transfer: the destination store is empty, every section
	// crosses — plus the manifest overhead.
	res, q, err = storeTransfer(e, p, session.Config{Store: srcStore}, session.Config{Store: dstStore})
	if err != nil {
		return nil, err
	}
	if err := add("warm, empty dst store", res, q, cold); err != nil {
		return nil, err
	}
	// The cold row moved the same paused state; its snapshot is this one's.
	rows[0].SnapshotBytes = res.Warm.SnapshotBytes

	// Unchanged process re-migrates: only the manifest crosses.
	res, q, err = storeTransfer(e, p, session.Config{Store: srcStore}, session.Config{Store: dstStore})
	if err != nil {
		return nil, err
	}
	if err := add("warm, unchanged", res, q, cold); err != nil {
		return nil, err
	}

	// One more mutation round dirties one of the lists; the warm transfer
	// ships that component (and the changed frame) only. The stopped
	// process cannot resume directly — restore a fresh one and run it to
	// the next migration point.
	p, err = vm.RestoreProcess(e.Prog, arch.Ultra5, state)
	if err != nil {
		return nil, err
	}
	p.MaxSteps = maxSteps
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	mres, err := p.Run()
	if err != nil {
		return nil, err
	}
	if !mres.Migrated {
		return nil, fmt.Errorf("exper: workload completed before its next migration point")
	}
	res, q, err = storeTransfer(e, p, session.Config{Store: srcStore}, session.Config{Store: dstStore})
	if err != nil {
		return nil, err
	}
	if err := add("warm, 1 of 10 lists mutated", res, q, cold); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintStoreWire renders the E12b table.
func PrintStoreWire(w io.Writer, rows []StoreWireRow) {
	t := stats.Table{
		Title:   "E12b (warm migration): cold v3 vs store-assisted transfer, bytes on the wire",
		Headers: []string{"Mode", "Sections sent", "Snapshot", "Wire bytes", "% of cold", "Exit"},
	}
	for _, r := range rows {
		sent := "-"
		if r.Sections > 0 {
			sent = fmt.Sprintf("%d/%d", r.SectionsSent, r.Sections)
		}
		t.AddRow(r.Mode, sent, r.SnapshotBytes, r.WireBytes,
			fmt.Sprintf("%.1f%%", r.PctOfCold), r.ExitCode)
	}
	fmt.Fprintln(w, t.String())
}

// StoreReport is E12: both views of the checkpoint store.
type StoreReport struct {
	Dedup []DedupRow     `json:"dedup"`
	Wire  []StoreWireRow `json:"wire"`
}

// Store runs E12a and E12b.
func Store(cfg Config) (*StoreReport, error) {
	dedup, err := StoreDedup(cfg)
	if err != nil {
		return nil, err
	}
	wire, err := StoreWire(cfg)
	if err != nil {
		return nil, err
	}
	return &StoreReport{Dedup: dedup, Wire: wire}, nil
}

func printStore(w io.Writer, r *StoreReport) {
	PrintStoreDedup(w, r.Dedup)
	PrintStoreWire(w, r.Wire)
}

// gateStore is the E12 gate, all byte counts: every run exits 0; at the
// 10%-per-round mutation rate (interval 1) content addressing dedups
// incremental checkpoints by at least 2x; and re-migrating an unchanged
// process warm costs under 10% of the cold transfer's wire bytes.
func gateStore(r *StoreReport) error {
	var errs []error
	for _, d := range r.Dedup {
		if d.ExitCode != 0 {
			errs = append(errs, fmt.Errorf("interval %d: workload exit %d, want 0", d.Interval, d.ExitCode))
		}
		if d.Interval == 1 && d.Ratio < 2 {
			errs = append(errs, fmt.Errorf("interval-1 dedup ratio %.2fx, want >= 2x", d.Ratio))
		}
	}
	var coldBytes, warmSame int
	for _, w := range r.Wire {
		if w.ExitCode != 0 {
			errs = append(errs, fmt.Errorf("%s: restored process exit %d, want 0", w.Mode, w.ExitCode))
		}
		switch w.Mode {
		case "cold v3":
			coldBytes = w.WireBytes
		case "warm, unchanged":
			warmSame = w.WireBytes
		}
	}
	if coldBytes == 0 || warmSame*10 >= coldBytes {
		errs = append(errs, fmt.Errorf("unchanged warm transfer %d B vs cold %d B, want < 10%%", warmSame, coldBytes))
	}
	return errors.Join(errs...)
}

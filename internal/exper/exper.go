// Package exper implements the paper's evaluation: one function per table
// or figure of Section 4, plus the all-platform chain and the design
// ablations, each registered in Experiments with the gate that judges it
// (registry.go). cmd/migbench loops over that registry; the root
// bench_test harness calls a few entries directly. Wall-clock claims about
// a migration are not made here — `go run -C bench repro/bench` is the one
// timing instrument. The experiment index lives in DESIGN.md §4; results
// and their comparison against the paper are recorded in EXPERIMENTS.md.
package exper

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
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

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks problem sizes for test runs; full sizes match the
	// paper's evaluation.
	Quick bool
	// Repeats is E6b's N (stats.Repeat, default 3). Migration and search
	// timings take at least minSamples calls, so there it only raises
	// that floor.
	Repeats int
}

func (c Config) repeats() int {
	if c.Repeats <= 0 {
		return 3
	}
	return c.Repeats
}

const maxSteps = 4_000_000_000

// stopAtMigration runs the program on m until it stops at its migration
// point, and returns the stopped process.
func stopAtMigration(e *core.Engine, m *arch.Machine) (*vm.Process, error) {
	p, err := e.NewProcess(m)
	if err != nil {
		return nil, err
	}
	p.MaxSteps = maxSteps
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if !res.Migrated {
		return nil, fmt.Errorf("exper: program completed without migrating")
	}
	return p, nil
}

// runOut drives a restored process to completion.
func runOut(q *vm.Process) (int, error) {
	q.MaxSteps = maxSteps
	res, err := q.Run()
	if err != nil {
		return 0, err
	}
	return res.ExitCode, nil
}

// minSamples and minTiming are the floor of a min-of-N measurement: it
// takes at least minSamples calls and keeps sampling until they add up to
// minTiming. Collecting or restoring a small state takes tens of
// microseconds to a few milliseconds — the size of one scheduler or
// allocator blip — so a handful of samples does not find the floor: with
// 3 calls, linpack 200's Restore read 179 µs where 30 read 68 µs.
const minSamples, minTiming = 30, 5 * time.Millisecond

// timeBest returns the minimum time of f over at least max(repeats,
// minSamples) calls and at least minTiming of them, after an untimed
// warm-up call and a collection cycle that keep Go allocator and GC
// transients out of the window.
func timeBest(repeats int, f func()) time.Duration {
	f()
	runtime.GC()
	best := time.Duration(math.MaxInt64)
	begin := time.Now()
	for i := 0; i < max(repeats, minSamples) || time.Since(begin) < minTiming; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

// migrateBest migrates the stopped process p to m through the session the
// daemons run (a cold session.Transfer), sampled as timeBest samples, and
// reads Collect and Restore from each migration's Result. It returns their
// minimums, the bytes a migration carried, and the process the last one
// restored; timeBest's warm-up call counts too, since a cold call only
// reads slower. A migration leaves p stopped, so each captures the same
// state.
func migrateBest(e *core.Engine, p *vm.Process, m *arch.Machine, repeats int) (core.Timing, *vm.Process, error) {
	best := core.Timing{Collect: math.MaxInt64, Restore: math.MaxInt64}
	var q *vm.Process
	var failure error
	timeBest(repeats, func() {
		r, res, err := session.Transfer(e, "exper", p, m, session.Config{})
		if err != nil {
			failure = err
			return
		}
		q, best.Bytes = r, res.Timing.Bytes
		best.Collect, best.Restore = min(best.Collect, res.Timing.Collect), min(best.Restore, res.Timing.Restore)
	})
	return best, q, failure
}

// ---------------------------------------------------------------------
// E1 — Section 4.1: heterogeneity validation.
// ---------------------------------------------------------------------

// HeteroRow is one program's heterogeneous migration result.
type HeteroRow struct {
	Program    string
	Src, Dst   string
	StateBytes int
	ExitCode   int
	OK         bool
}

// Heterogeneity migrates the three evaluation programs from a DEC 5000
// (little-endian Ultrix) image to a SPARC 20 (big-endian Solaris) image
// and lets each verify its own data structures after restoration.
func Heterogeneity(cfg Config) ([]HeteroRow, error) {
	treeDepth, linpackN, bitonicN := 10, 100, 5000
	if cfg.Quick {
		treeDepth, linpackN, bitonicN = 6, 40, 500
	}
	programs := []struct {
		name string
		src  string
	}{
		{"test_pointer", workload.TestPointerSource(treeDepth)},
		{fmt.Sprintf("linpack %dx%d", linpackN, linpackN), workload.LinpackSource(linpackN, true)},
		{fmt.Sprintf("bitonic %d", bitonicN), workload.BitonicSource(bitonicN, 20010415)},
	}
	var rows []HeteroRow
	for _, pr := range programs {
		e, err := core.NewEngine(pr.src, minic.PollPolicy{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		p, err := stopAtMigration(e, arch.DEC5000)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		q, mig, err := session.Transfer(e, pr.name, p, arch.SPARC20, session.Config{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		code, err := runOut(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		rows = append(rows, HeteroRow{
			Program:    pr.name,
			Src:        arch.DEC5000.Name,
			Dst:        arch.SPARC20.Name,
			StateBytes: mig.Timing.Bytes,
			ExitCode:   code,
			OK:         code == 0,
		})
	}
	return rows, nil
}

// gateHeterogeneity is the E1 gate: every program migrated and passed its
// own self-check on the destination.
func gateHeterogeneity(rows []HeteroRow) error {
	var errs []error
	for _, r := range rows {
		if !r.OK {
			errs = append(errs, fmt.Errorf("%s: self-check exit %d after migration, want 0", r.Program, r.ExitCode))
		}
	}
	return errors.Join(errs...)
}

// PrintHeterogeneity renders E1 like the paper's Section 4.1 narrative.
func PrintHeterogeneity(w io.Writer, rows []HeteroRow) {
	t := stats.Table{
		Title:   "E1 (Section 4.1): heterogeneous migration DEC 5000/Ultrix (LE) -> SPARC 20/Solaris (BE)",
		Headers: []string{"Program", "State bytes", "Self-check", "Result"},
	}
	for _, r := range rows {
		verdict := "PASS"
		if !r.OK {
			verdict = fmt.Sprintf("FAIL (code %d)", r.ExitCode)
		}
		t.AddRow(r.Program, r.StateBytes, fmt.Sprintf("exit %d", r.ExitCode), verdict)
	}
	fmt.Fprintln(w, t.String())
}

// ---------------------------------------------------------------------
// E2 — Table 1: migration time decomposition on the homogeneous pair.
// ---------------------------------------------------------------------

// Table1Row is one row of the paper's Table 1: Collect, Restore and Bytes
// as the session's Result records them, and Tx modeled.
type Table1Row struct {
	Program string
	core.Timing
}

// Table1 reproduces the paper's Table 1: linpack 1000x1000 and bitonic
// 100000 migrating between two Ultra 5 machines over 100 Mb/s Ethernet.
// Each program migrates through a cold session (migrateBest), whose
// Result gives Collect, Restore and Bytes; the wire time is the calibrated
// 100 Mb/s link model (the paper's hardware), which explains a row and
// decides none.
func Table1(cfg Config) ([]Table1Row, error) {
	linpackN, bitonicN := 1000, 100000
	if cfg.Quick {
		linpackN, bitonicN = 200, 5000
	}
	cases := []struct {
		name string
		src  string
	}{
		{fmt.Sprintf("Linpack %dx%d", linpackN, linpackN), workload.LinpackSource(linpackN, false)},
		{fmt.Sprintf("bitonic %d", bitonicN), workload.BitonicSource(bitonicN, 19991231)},
	}
	var rows []Table1Row
	for _, c := range cases {
		e, err := core.NewEngine(c.src, minic.PollPolicy{})
		if err != nil {
			return nil, err
		}
		p, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		tm, _, err := migrateBest(e, p, arch.Ultra5, cfg.repeats())
		if err != nil {
			return nil, err
		}
		tm.Tx = link.Ethernet100.TxTime(tm.Bytes)
		rows = append(rows, Table1Row{Program: c.name, Timing: tm})
	}
	return rows, nil
}

// PrintTable1 renders E2 in the paper's format.
func PrintTable1(w io.Writer, rows []Table1Row) {
	t := stats.Table{
		Title:   "E2 (Table 1): timing results (in seconds), Ultra 5 -> Ultra 5, 100 Mb/s Ethernet",
		Headers: []string{"Programs", "Collect", "Tx", "Restore", "Bytes"},
	}
	for _, r := range rows {
		t.AddRow(r.Program, r.Collect, r.Tx, r.Restore, r.Bytes)
	}
	fmt.Fprintln(w, t.String())
}

// ---------------------------------------------------------------------
// E3 / E4 — Figure 2: collection and restoration time scaling.
// ---------------------------------------------------------------------

// ScalingPoint is one x position of a Figure 2 curve.
type ScalingPoint struct {
	// N is the problem size (matrix order, or numbers sorted).
	N int
	// Bytes is the migrated data size (the x axis of Figure 2a).
	Bytes int
	// Blocks is the MSR node count.
	Blocks  int64
	Collect time.Duration
	Restore time.Duration
	// SearchSteps is the MSRLT binary-search work of resolving every
	// pointer once (bisection).
	SearchSteps int64
}

// ScalingResult holds one experiment's sweep.
type ScalingResult struct {
	Name   string
	Points []ScalingPoint
}

// Fig2aLinpack reproduces Figure 2(a): linpack collection/restoration
// time as a function of migrated data size, for matrices 100..1000
// (0.08 MB to 8 MB of doubles, as in the paper).
func Fig2aLinpack(cfg Config) (*ScalingResult, error) {
	sizes := []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	if cfg.Quick {
		sizes = []int{50, 100, 150, 200}
	}
	out := &ScalingResult{Name: "linpack"}
	for _, n := range sizes {
		pt, err := scalingPoint(workload.LinpackSource(n, false), n, cfg)
		if err != nil {
			return nil, fmt.Errorf("linpack %d: %w", n, err)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Fig2bBitonic reproduces Figure 2(b): bitonic collection/restoration
// time as a function of the number of integers sorted.
func Fig2bBitonic(cfg Config) (*ScalingResult, error) {
	sizes := []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000, 90000, 100000}
	if cfg.Quick {
		sizes = []int{1000, 2000, 3000, 4000}
	}
	out := &ScalingResult{Name: "bitonic"}
	for _, n := range sizes {
		pt, err := scalingPoint(workload.BitonicSource(n, 8151), n, cfg)
		if err != nil {
			return nil, fmt.Errorf("bitonic %d: %w", n, err)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func scalingPoint(src string, n int, cfg Config) (ScalingPoint, error) {
	e, err := core.NewEngine(src, minic.PollPolicy{})
	if err != nil {
		return ScalingPoint{}, err
	}
	p, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return ScalingPoint{}, err
	}
	tm, _, err := migrateBest(e, p, arch.Ultra5, cfg.repeats())
	if err != nil {
		return ScalingPoint{}, err
	}
	st := p.CaptureStats()
	search, err := bisection(p, false)
	if err != nil {
		return ScalingPoint{}, err
	}
	return ScalingPoint{
		N:           n,
		Bytes:       tm.Bytes,
		Blocks:      st.Save.Blocks,
		Collect:     tm.Collect,
		Restore:     tm.Restore,
		SearchSteps: search.SearchSteps,
	}, nil
}

// WriteTSV emits the sweep as tab-separated data, one row per point,
// ready for gnuplot/matplotlib to regenerate the paper's figure.
func (r *ScalingResult) WriteTSV(w io.Writer) {
	fmt.Fprintln(w, "n\tbytes\tblocks\tcollect_s\trestore_s\tsearch_steps")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.6f\t%.6f\t%d\n",
			p.N, p.Bytes, p.Blocks, p.Collect.Seconds(), p.Restore.Seconds(), p.SearchSteps)
	}
}

// PrintScaling renders a Figure 2 sweep as a table of series points.
func PrintScaling(w io.Writer, title string, r *ScalingResult) {
	t := stats.Table{
		Title:   title,
		Headers: []string{"N", "Data bytes", "MSR blocks", "Collect (s)", "Restore (s)", "Search steps"},
	}
	for _, p := range r.Points {
		t.AddRow(p.N, p.Bytes, p.Blocks, p.Collect, p.Restore, p.SearchSteps)
	}
	fmt.Fprintln(w, t.String())
}

// printFig2a renders E3: the sweep, then the linear fits the paper's
// "scales linearly with data size" claim is read from.
func printFig2a(w io.Writer, r *ScalingResult) {
	PrintScaling(w, "E3 (Figure 2a): linpack data collection and restoration vs data size, Ultra 5", r)
	cf := r.CollectSeries().LinearFit()
	rf := r.RestoreSeries().LinearFit()
	fmt.Fprintf(w, "linear fits: collect %.3g s/byte (R^2 %.4f), restore %.3g s/byte (R^2 %.4f)\n",
		cf.Slope, cf.R2, rf.Slope, rf.R2)
	fmt.Fprintf(w, "growth exponents: collect %.2f, restore %.2f (paper: linear, 1.0)\n\n",
		r.CollectSeries().GrowthExponent(), r.RestoreSeries().GrowthExponent())
}

// printFig2b renders E4: the sweep, then the collect/restore ratio at
// both ends of it.
func printFig2b(w io.Writer, r *ScalingResult) {
	PrintScaling(w, "E4 (Figure 2b): bitonic data collection and restoration vs numbers sorted, Ultra 5", r)
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	fmt.Fprintf(w, "collect/restore ratio: %.2f at n=%d -> %.2f at n=%d (paper: collection pulls ahead as n grows)\n\n",
		first.Collect.Seconds()/first.Restore.Seconds(), first.N,
		last.Collect.Seconds()/last.Restore.Seconds(), last.N)
}

// CollectSeries returns (bytes, collect-seconds) observations.
func (r *ScalingResult) CollectSeries() *stats.Series {
	s := &stats.Series{Name: r.Name + " collect"}
	for _, p := range r.Points {
		s.Add(float64(p.Bytes), p.Collect.Seconds())
	}
	return s
}

// RestoreSeries returns (bytes, restore-seconds) observations.
func (r *ScalingResult) RestoreSeries() *stats.Series {
	s := &stats.Series{Name: r.Name + " restore"}
	for _, p := range r.Points {
		s.Add(float64(p.Bytes), p.Restore.Seconds())
	}
	return s
}

// ---------------------------------------------------------------------
// E5 — Section 4.2: cost decomposition of collection and restoration.
// ---------------------------------------------------------------------

// BreakdownRow decomposes one program's migration cost in the terms of
// the paper's complexity model.
type BreakdownRow struct {
	Program string
	Blocks  int64
	Bytes   int
	// Collection = MSRLT search + encode/copy.
	SearchTime time.Duration
	EncodeTime time.Duration
	// Restoration = MSRLT update + decode/copy.
	UpdateTime time.Duration
	DecodeTime time.Duration

	SearchSteps int64
}

// Breakdown instruments collection and restoration of a linpack image
// (few large blocks) and a bitonic image (many small blocks), showing
// where the time goes: linpack cost is dominated by encode/copy of the
// matrix bytes, while bitonic pays a visible MSRLT search share that the
// restoration side does not (restores resolve identifications in constant
// time per block). The split is that of the last of migrateBest's
// migrations: the source's CaptureStats and the restored RestoreStatsOf.
func Breakdown(cfg Config) ([]BreakdownRow, error) {
	linpackN, bitonicN := 500, 50000
	if cfg.Quick {
		linpackN, bitonicN = 100, 4000
	}
	cases := []struct {
		name string
		src  string
	}{
		{fmt.Sprintf("linpack %dx%d", linpackN, linpackN), workload.LinpackSource(linpackN, false)},
		{fmt.Sprintf("bitonic %d", bitonicN), workload.BitonicSource(bitonicN, 271828)},
	}
	var rows []BreakdownRow
	for _, c := range cases {
		e, err := core.NewEngine(c.src, minic.PollPolicy{})
		if err != nil {
			return nil, err
		}
		p, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		_, restored, err := migrateBest(e, p, arch.Ultra5, cfg.repeats())
		if err != nil {
			return nil, err
		}
		cs, rs := p.CaptureStats(), restored.RestoreStatsOf()
		search, err := bisection(p, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BreakdownRow{
			Program:     c.name,
			Blocks:      cs.Save.Blocks,
			Bytes:       cs.Bytes,
			SearchTime:  cs.Save.SearchTime,
			EncodeTime:  cs.Save.EncodeTime,
			UpdateTime:  rs.UpdateTime,
			DecodeTime:  rs.DecodeTime,
			SearchSteps: search.SearchSteps,
		})
	}
	return rows, nil
}

// PrintBreakdown renders E5.
func PrintBreakdown(w io.Writer, rows []BreakdownRow) {
	t := stats.Table{
		Title:   "E5 (Section 4.2): cost decomposition — Collect = MSRLT_search + Encode&Copy; Restore = MSRLT_update + Decode&Copy",
		Headers: []string{"Program", "Blocks", "Bytes", "Search (s)", "Encode (s)", "Update (s)", "Decode (s)", "Search steps"},
	}
	for _, r := range rows {
		t.AddRow(r.Program, r.Blocks, r.Bytes, r.SearchTime, r.EncodeTime, r.UpdateTime, r.DecodeTime, r.SearchSteps)
	}
	fmt.Fprintln(w, t.String())
}

// ---------------------------------------------------------------------
// E6 — Section 4.3: execution overhead of the annotation.
// ---------------------------------------------------------------------

// OverheadRow compares one configuration against the unannotated
// baseline.
type OverheadRow struct {
	Config     string
	Elapsed    time.Duration
	PollChecks int64
	MSRLTOps   int64
	// OverheadPct is relative to the first (baseline) row of its group.
	OverheadPct float64
}

// overheadCase is one configuration of an E6 group: a program, its poll
// placement, and whether it runs unannotated.
type overheadCase struct {
	name    string
	src     string
	policy  minic.PollPolicy
	disable bool
}

// PollPlacementOverhead reproduces the first Section 4.3 observation:
// the overhead is high when poll-points sit inside a small kernel invoked
// many times, and low when they are placed in the outer loop.
func PollPlacementOverhead(cfg Config) ([]OverheadRow, error) {
	outer, inner := 20000, 40
	if cfg.Quick {
		outer, inner = 2000, 40
	}
	src := workload.KernelOverheadSource(outer, inner)
	return overheadRows(cfg, []overheadCase{
		{"unannotated (baseline)", src, minic.PollPolicy{}, true},
		{"poll at outer loop only", src, minic.PollPolicy{Loops: true, Funcs: []string{"main"}}, false},
		{"poll inside kernel loop", src, minic.DefaultPolicy, false},
	})
}

// AllocationOverhead reproduces the second Section 4.3 observation: many
// small repeatedly allocated blocks grow the MSRLT and cost run time; a
// smart (pooled) allocation policy avoids it.
func AllocationOverhead(cfg Config) ([]OverheadRow, error) {
	blocks := 20000
	if cfg.Quick {
		blocks = 2000
	}
	return overheadRows(cfg, []overheadCase{
		{"per-block malloc, unannotated (baseline)", workload.AllocOverheadSource(blocks, false), minic.DefaultPolicy, true},
		{"per-block malloc, annotated", workload.AllocOverheadSource(blocks, false), minic.DefaultPolicy, false},
		{"pooled arena, annotated", workload.AllocOverheadSource(blocks, true), minic.DefaultPolicy, false},
	})
}

// overheadRows runs each case to completion, polling but never migrating
// unless it runs unannotated, and reports its time against the first.
func overheadRows(cfg Config, cases []overheadCase) ([]OverheadRow, error) {
	var rows []OverheadRow
	var base time.Duration
	for i, c := range cases {
		e, err := core.NewEngine(c.src, c.policy)
		if err != nil {
			return nil, err
		}
		var proc *vm.Process
		elapsed := stats.Repeat(cfg.repeats(), func() {
			p, err := e.NewProcess(arch.Ultra5)
			if err != nil {
				return
			}
			p.MaxSteps = maxSteps
			p.DisableMigration = c.disable
			if !c.disable {
				p.PollHook = func(*vm.Process, *minic.Site) bool { return false }
			}
			if _, err := p.Run(); err != nil {
				return
			}
			proc = p
		})
		if proc == nil {
			return nil, fmt.Errorf("exper: overhead run failed for %s", c.name)
		}
		if i == 0 {
			base = elapsed
		}
		pct := 0.0
		if base > 0 {
			pct = 100 * (elapsed.Seconds() - base.Seconds()) / base.Seconds()
		}
		rows = append(rows, OverheadRow{
			Config:      c.name,
			Elapsed:     elapsed,
			PollChecks:  proc.Stats.PollChecks,
			MSRLTOps:    proc.Stats.MSRLTOps,
			OverheadPct: pct,
		})
	}
	return rows, nil
}

// OverheadReport is E6: both Section 4.3 observations.
type OverheadReport struct {
	Poll  []OverheadRow `json:"poll"`
	Alloc []OverheadRow `json:"alloc"`
}

// Overhead runs E6a and E6b.
func Overhead(cfg Config) (*OverheadReport, error) {
	poll, err := PollPlacementOverhead(cfg)
	if err != nil {
		return nil, err
	}
	alloc, err := AllocationOverhead(cfg)
	if err != nil {
		return nil, err
	}
	return &OverheadReport{Poll: poll, Alloc: alloc}, nil
}

func printOverheadReport(w io.Writer, r *OverheadReport) {
	PrintOverhead(w, "E6a (Section 4.3): poll-point placement overhead (kernel called many times)", r.Poll)
	PrintOverhead(w, "E6b (Section 4.3): memory allocation overhead (many small blocks vs pooled)", r.Alloc)
}

// PrintOverhead renders an E6 group.
func PrintOverhead(w io.Writer, title string, rows []OverheadRow) {
	t := stats.Table{
		Title:   title,
		Headers: []string{"Configuration", "Time (s)", "Poll checks", "MSRLT ops", "Overhead %"},
	}
	for _, r := range rows {
		t.AddRow(r.Config, r.Elapsed, r.PollChecks, r.MSRLTOps, fmt.Sprintf("%+.1f", r.OverheadPct))
	}
	fmt.Fprintln(w, t.String())
}

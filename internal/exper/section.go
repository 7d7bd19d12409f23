package exper

// E9 — sectioned snapshots: the v3 format of internal/snapshot, whose
// heap components are collected by a worker pool. Two views:
//
//   - E9a measures the parallel encode against the serial encode of the
//     same partition, on a workload whose heap splits into many
//     independent components (sharded lists) and on one where it barely
//     splits (2 lists) — the speedup is bounded by the largest component;
//   - E9b migrates the shared/cyclic test_pointer workload over real
//     loopback TCP at negotiated versions 1, 2, and 3 and checks all
//     three restore the identical machine-independent state.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
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

// SectionRow is one workload's serial-vs-parallel sectioned collection.
type SectionRow struct {
	Workload string
	// Components is the number of heap connected components the
	// partition produced; Sections the total section count.
	Components int
	Sections   int
	Blocks     int64
	Bytes      int
	// Serial is the min-of-N capture wall time with a one-worker pool,
	// Parallel with a four-worker pool. On a single-CPU host the two are
	// equal up to noise; the modeled columns carry the parallel gain.
	Serial   time.Duration
	Parallel time.Duration
	Speedup  float64
	// ModelParallel replays the measured per-section encode times of the
	// serial capture on an ideal four-worker schedule (plus the serial
	// partition residual), the same modeling device E8a uses for wire
	// speed — so the attainable speedup is visible even when the host
	// has fewer cores than the pool.
	ModelParallel time.Duration
	ModelSpeedup  float64
	// Workers is the number of pool workers that encoded at least one
	// section during the parallel run.
	Workers int
	// Identical reports the serial and parallel snapshots are
	// byte-identical (the format's determinism guarantee).
	Identical bool
}

// sectionWorkers is the pool size E9a measures and models.
const sectionWorkers = 4

// makespan schedules the durations on w ideal workers (greedy
// longest-first) and returns the finish time of the longest-loaded one.
func makespan(durs []time.Duration, w int) time.Duration {
	if w < 1 {
		w = 1
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, w)
	for _, d := range sorted {
		least := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[least] {
				least = i
			}
		}
		loads[least] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// SectionParallel runs E9a: time CaptureSections(1) against
// CaptureSections(sectionWorkers) on a many-component and a
// few-component heap.
func SectionParallel(cfg Config) ([]SectionRow, error) {
	nnodes := 6000
	if cfg.Quick {
		nnodes = 800
	}
	cases := []struct {
		name   string
		nlists int
	}{
		{fmt.Sprintf("sharded lists 8x%d", nnodes), 8},
		{fmt.Sprintf("sharded lists 2x%d", 4*nnodes), 2},
	}
	var rows []SectionRow
	for _, c := range cases {
		nn := nnodes
		if c.nlists == 2 {
			nn = 4 * nnodes // same total data, fewer components
		}
		e, err := core.NewEngine(workload.ShardedListsSource(c.nlists, nn), minic.PollPolicy{})
		if err != nil {
			return nil, err
		}
		p, _, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}

		var serialSnap, parallelSnap []byte
		var failure error
		runtime.GC()
		serial := stats.Repeat(cfg.repeats(), func() {
			s, err := p.CaptureSections(1)
			if err != nil {
				failure = err
				return
			}
			serialSnap = s
		})
		if failure != nil {
			return nil, failure
		}
		serialStats := p.CaptureStats()
		serialBreakdown := p.SectionCaptureMetrics()
		runtime.GC()
		var workers int
		parallel := stats.Repeat(cfg.repeats(), func() {
			s, err := p.CaptureSections(sectionWorkers)
			if err != nil {
				failure = err
				return
			}
			parallelSnap = s
			if w := p.SectionWorkersEngaged(); w > workers {
				workers = w
			}
		})
		if failure != nil {
			return nil, failure
		}
		breakdown := p.SectionCaptureMetrics()

		// Model: the serial capture minus its per-section encode sum is
		// the partition-and-assembly residual, which stays serial; the
		// sections themselves schedule onto the pool.
		durs := make([]time.Duration, 0, len(serialBreakdown))
		var encodeSum time.Duration
		for _, s := range serialBreakdown {
			durs = append(durs, s.Elapsed)
			encodeSum += s.Elapsed
		}
		residual := serial - encodeSum
		if residual < 0 {
			residual = 0
		}
		modelParallel := residual + makespan(durs, sectionWorkers)
		components := 0
		for _, s := range breakdown {
			if s.Kind == "heap" {
				components++
			}
		}
		rows = append(rows, SectionRow{
			Workload:      c.name,
			Components:    components,
			Sections:      len(breakdown),
			Blocks:        serialStats.Save.Blocks,
			Bytes:         len(serialSnap),
			Serial:        serial,
			Parallel:      parallel,
			Speedup:       serial.Seconds() / parallel.Seconds(),
			ModelParallel: modelParallel,
			ModelSpeedup:  serial.Seconds() / modelParallel.Seconds(),
			Workers:       workers,
			Identical:     string(serialSnap) == string(parallelSnap),
		})
	}
	return rows, nil
}

// PrintSectionParallel renders the E9a comparison, with the per-section
// cost profile of the last parallel capture of the final workload.
func PrintSectionParallel(w io.Writer, rows []SectionRow) {
	t := stats.Table{
		Title: fmt.Sprintf("E9a (sectioned snapshots): serial vs parallel heap collection, %d-worker pool, Ultra 5", sectionWorkers),
		Headers: []string{"Workload", "Heap comps", "Sections", "Blocks", "Bytes",
			"Serial", "Parallel", "Speedup", "Model 4w", "Model speedup", "Workers", "Identical"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Components, r.Sections, r.Blocks, r.Bytes,
			r.Serial, r.Parallel, fmt.Sprintf("%.2fx", r.Speedup),
			r.ModelParallel, fmt.Sprintf("%.2fx", r.ModelSpeedup), r.Workers, r.Identical)
	}
	fmt.Fprintln(w, t.String())
	if runtime.GOMAXPROCS(0) < sectionWorkers {
		fmt.Fprintf(w, "note: host has GOMAXPROCS=%d < %d pool workers; the measured Parallel column cannot\n"+
			"show the gain here — the Model column schedules the measured per-section times on an\n"+
			"ideal %d-worker pool (the E8a device, applied to cores instead of wire speed).\n\n",
			runtime.GOMAXPROCS(0), sectionWorkers, sectionWorkers)
	}
}

// SectionWireRow is one negotiated-version migration of the shared/cyclic
// test_pointer workload over loopback TCP.
type SectionWireRow struct {
	Version uint32
	Bytes   int
	Wall    time.Duration
	// Identical reports the restored process re-collects to the same
	// machine-independent state the source captured directly.
	Identical bool
	ExitCode  int
}

// SectionWire runs E9b: the same stopped test_pointer process (shared
// child, cycle, pointer arrays) migrates at versions 1 and 3 through the
// full session handshake, and every restored process must re-collect to
// the identical v1 state and run to exit 0.
func SectionWire(cfg Config) ([]SectionWireRow, error) {
	depth := 10
	if cfg.Quick {
		depth = 6
	}
	e, err := core.NewEngine(workload.TestPointerSource(depth), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	reg := session.NewRegistry()
	reg.Add("test_pointer", e)

	var rows []SectionWireRow
	for _, v := range []uint32{core.VersionMono, core.VersionSectioned} {
		p, direct, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		srv, cli, cleanup, err := link.LoopbackPair()
		if err != nil {
			return nil, err
		}
		type recvRes struct {
			q   *vm.Process
			err error
		}
		recvc := make(chan recvRes, 1)
		go func() {
			_, q, _, rerr := session.Respond(srv, reg, arch.Ultra5, session.Config{})
			recvc <- recvRes{q, rerr}
		}()
		start := time.Now()
		res, err := session.Initiate(cli, e, p.Mach, "test_pointer", p,
			session.Config{MaxVersion: v, ChunkSize: 4096, Window: 4})
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("exper: v%d initiate: %w", v, err)
		}
		recv := <-recvc
		wall := time.Since(start)
		cleanup()
		if recv.err != nil {
			return nil, fmt.Errorf("exper: v%d respond: %w", v, recv.err)
		}
		if res.Params.Version != v {
			return nil, fmt.Errorf("exper: negotiated v%d, capped at v%d", res.Params.Version, v)
		}
		re, err := recv.q.Recapture()
		if err != nil {
			return nil, err
		}
		recv.q.MaxSteps = maxSteps
		run, err := recv.q.Run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, SectionWireRow{
			Version:   v,
			Bytes:     res.Timing.Bytes,
			Wall:      wall,
			Identical: string(re) == string(direct),
			ExitCode:  run.ExitCode,
		})
	}
	return rows, nil
}

// PrintSectionWire renders the E9b round-trip table.
func PrintSectionWire(w io.Writer, rows []SectionWireRow) {
	t := stats.Table{
		Title:   "E9b (sectioned snapshots): test_pointer over loopback TCP at negotiated v1/v3",
		Headers: []string{"Version", "Bytes", "Wall", "State identical", "Exit"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("v%d", r.Version), r.Bytes, r.Wall, r.Identical, r.ExitCode)
	}
	fmt.Fprintln(w, t.String())
}

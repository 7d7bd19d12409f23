package exper

// E11 — distributed tracing: the stitched cross-machine trace and its
// price.
//
//   - E11a migrates test_pointer over real loopback TCP at v3 several
//     times with per-session trace contexts and private metrics
//     registries on both ends, then reports (i) the single stitched
//     trace — the destination's restore/confirm spans grafted under the
//     initiator's trace ID — and (ii) p50/p90/p99 per migration phase
//     from the session.phase.* latency histograms;
//   - E11b bounds the tracing overhead: the same migration over an
//     in-memory pipe with tracing, flight recording, and span shipping
//     off versus on, min-of-N. The paper-style budget is <=2%; like
//     E10a the bound is reported, not enforced, because single-digit
//     microsecond deltas drown in scheduler noise on shared CI.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// PhaseQuantileRow is one side's latency distribution for one migration
// phase, read from its session.phase.* histogram after the E11a runs.
type PhaseQuantileRow struct {
	Side  string        `json:"side"` // "initiator" or "responder"
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// ObsStitchedResult is the E11a outcome: the wire result of the last
// migration, the stitched trace, and the per-phase quantiles across all
// migrations.
type ObsStitchedResult struct {
	Version    uint32 `json:"version"`
	Bytes      int    `json:"bytes"`
	ExitCode   int    `json:"exit_code"`
	Migrations int    `json:"migrations"`
	// TraceID is the last migration's trace ID; Stitched reports whether
	// the responder's spans arrived and grafted under the initiator root
	// with that ID.
	TraceID  string             `json:"trace_id"`
	Stitched bool               `json:"stitched"`
	Phases   []PhaseQuantileRow `json:"phases"`
	// Trace is the stitched tree in the shared obs JSON form: ONE root
	// (the initiator's session span) whose children include the remote
	// subtree.
	Trace []*obs.SpanData `json:"trace"`

	tree string
}

// obs2Phases lists each side's phases in execution order.
var obs2Phases = map[string][]string{
	"initiator": {"handshake", "collect", "transport", "confirm"},
	"responder": {"handshake", "restore", "confirm"},
}

// ObsStitched runs E11a: repeats() traced v3 migrations of test_pointer
// over loopback TCP, each on a fresh connection, with both sides feeding
// private metrics registries.
func ObsStitched(cfg Config) (*ObsStitchedResult, error) {
	depth := 8
	if cfg.Quick {
		depth = 5
	}
	e, err := core.NewEngine(workload.TestPointerSource(depth), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	reg := session.NewRegistry()
	reg.Add("test_pointer", e)
	iniMetrics, respMetrics := obs.NewRegistry(), obs.NewRegistry()

	res := &ObsStitchedResult{Migrations: cfg.repeats()}
	var itr *obs.Tracer
	var last *session.Result
	for i := 0; i < res.Migrations; i++ {
		p, _, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		srv, cli, cleanup, err := link.LoopbackPair()
		if err != nil {
			return nil, err
		}
		itr = obs.NewTracer()
		iroot := itr.Start("session")
		rtr := obs.NewTracer()
		type recvRes struct {
			q   *vm.Process
			err error
		}
		recvc := make(chan recvRes, 1)
		go func() {
			_, q, _, rerr := session.Respond(srv, reg, arch.Ultra5, session.Config{
				Trace: rtr.Start("session"), Metrics: respMetrics,
			})
			recvc <- recvRes{q, rerr}
		}()
		last, err = session.Initiate(cli, e, p.Mach, "test_pointer", p, session.Config{
			ChunkSize: 4096, Window: 4, Trace: iroot, Metrics: iniMetrics,
		})
		iroot.End()
		recv := <-recvc
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("exper: stitched initiate: %w", err)
		}
		if recv.err != nil {
			return nil, fmt.Errorf("exper: stitched respond: %w", recv.err)
		}
		// Only the last restored process is run to completion; earlier
		// iterations exist to populate the histograms.
		if i == res.Migrations-1 {
			recv.q.MaxSteps = maxSteps
			run, rerr := recv.q.Run()
			if rerr != nil {
				return nil, rerr
			}
			res.ExitCode = run.ExitCode
		}
	}

	res.Version = last.Params.Version
	res.Bytes = last.Timing.Bytes
	res.TraceID = obs.IDString(last.Trace.TraceID)
	res.Trace = itr.Export()
	res.tree = itr.Tree()
	// Stitched means: one root, carrying the session's trace ID, with the
	// destination's restore and confirm spans in a remote subtree.
	if len(res.Trace) == 1 && res.Trace[0].TraceID == res.TraceID {
		for _, c := range res.Trace[0].Children {
			if c.Remote && c.Find("restore") != nil && c.Find("confirm") != nil {
				res.Stitched = true
			}
		}
	}
	for side, reg := range map[string]*obs.Registry{"initiator": iniMetrics, "responder": respMetrics} {
		for _, phase := range obs2Phases[side] {
			h := reg.Histogram("session.phase." + phase)
			res.Phases = append(res.Phases, PhaseQuantileRow{
				Side: side, Phase: phase, Count: h.Count(),
				P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			})
		}
	}
	return res, nil
}

// PrintObsStitched renders the E11a stitched trace and phase quantiles.
func PrintObsStitched(w io.Writer, r *ObsStitchedResult) {
	fmt.Fprintf(w, "E11a (tracing): %d traced v%d migrations over loopback TCP, %d bytes each, exit %d\n",
		r.Migrations, r.Version, r.Bytes, r.ExitCode)
	fmt.Fprintf(w, "stitched trace %s (remote subtree grafted: %v):\n%s",
		r.TraceID, r.Stitched, indentTree(r.tree))
	t := stats.Table{
		Title:   "per-phase latency quantiles (session.phase.* histograms, bucket upper bounds)",
		Headers: []string{"Side", "Phase", "Count", "p50", "p90", "p99"},
	}
	for _, row := range r.Phases {
		t.AddRow(row.Side, row.Phase, row.Count, row.P50, row.P90, row.P99)
	}
	fmt.Fprintln(w, t.String())
}

// ObsTracingOverheadRow is the E11b traced-vs-untraced migration
// comparison. Phase histograms observe unconditionally on both sides, so
// the delta isolates what tracing adds: span lifecycle, the trace pair
// on the OFFER, flight recording, and span export/stitching on the
// confirm leg.
type ObsTracingOverheadRow struct {
	Workload    string        `json:"workload"`
	Bytes       int           `json:"bytes"`
	Off         time.Duration `json:"off_ns"`
	On          time.Duration `json:"on_ns"`
	OverheadPct float64       `json:"overhead_pct"`
	BoundPct    float64       `json:"bound_pct"`
}

// ObsTracingOverhead runs E11b: the full v3 session (handshake through
// confirm) over an in-memory pipe, min-of-N, untraced versus fully
// instrumented.
func ObsTracingOverhead(cfg Config) ([]ObsTracingOverheadRow, error) {
	depth := 8
	if cfg.Quick {
		depth = 5
	}
	e, err := core.NewEngine(workload.TestPointerSource(depth), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	reg := session.NewRegistry()
	reg.Add("test_pointer", e)
	p, _, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return nil, err
	}

	bytes := 0
	var failure error
	migrate := func(icfg, rcfg session.Config) {
		a, b := link.Pipe()
		done := make(chan error, 1)
		go func() {
			_, _, _, rerr := session.Respond(b, reg, arch.Ultra5, rcfg)
			done <- rerr
		}()
		res, err := session.Initiate(a, e, p.Mach, "test_pointer", p, icfg)
		if rerr := <-done; failure == nil && rerr != nil {
			failure = rerr
		}
		if failure == nil && err != nil {
			failure = err
		}
		a.Close()
		b.Close()
		if err == nil {
			bytes = res.Timing.Bytes
		}
	}
	base := session.Config{ChunkSize: 4096, Window: 4}

	runtime.GC()
	off := stats.Repeat(cfg.repeats(), func() { migrate(base, session.Config{}) })
	if failure != nil {
		return nil, failure
	}
	runtime.GC()
	iniMetrics, respMetrics := obs.NewRegistry(), obs.NewRegistry()
	on := stats.Repeat(cfg.repeats(), func() {
		itr, rtr := obs.NewTracer(), obs.NewTracer()
		icfg, rcfg := base, session.Config{}
		icfg.Trace, icfg.Metrics, icfg.Recorder = itr.Start("session"), iniMetrics, obs.NewFlightRecorder(0)
		rcfg.Trace, rcfg.Metrics, rcfg.Recorder = rtr.Start("session"), respMetrics, obs.NewFlightRecorder(0)
		migrate(icfg, rcfg)
		icfg.Trace.End()
	})
	if failure != nil {
		return nil, failure
	}
	return []ObsTracingOverheadRow{{
		Workload:    fmt.Sprintf("test_pointer depth %d, v3 over in-memory pipe", depth),
		Bytes:       bytes,
		Off:         off,
		On:          on,
		OverheadPct: (on.Seconds() - off.Seconds()) / off.Seconds() * 100,
		BoundPct:    2.0,
	}}, nil
}

// PrintObsTracingOverhead renders the E11b comparison.
func PrintObsTracingOverhead(w io.Writer, rows []ObsTracingOverheadRow) {
	t := stats.Table{
		Title:   "E11b (tracing): full v3 session untraced vs traced+recorded, in-memory pipe",
		Headers: []string{"Workload", "Bytes", "Trace off", "Trace on", "Overhead", "Budget"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Bytes, r.Off, r.On,
			fmt.Sprintf("%+.1f%%", r.OverheadPct), fmt.Sprintf("<=%.0f%%", r.BoundPct))
	}
	fmt.Fprintln(w, t.String())
}

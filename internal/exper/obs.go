package exper

// E11a — distributed tracing: the stitched cross-machine trace.
//
// test_pointer migrates over real loopback TCP at v3 several times with
// per-session trace contexts and private metrics registries on both ends.
// The report is (i) the single stitched trace — the destination's
// restore/confirm spans grafted under the initiator's trace ID — and
// (ii) p50/p90/p99 per migration phase from the session.phase.* latency
// histograms. The gate is structural: one root, the remote subtree under
// it, and the restored process exiting 0. What tracing costs (the retired
// E10a/E11b) is the benchmark's obs.program_trace_overhead_pct.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
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
	How        string `json:"how"`
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

// obsPhases lists each side's phases in execution order.
var obsPhases = map[string][]string{
	"initiator": {"handshake", "collect", "transport", "confirm"},
	"responder": {"handshake", "restore", "confirm"},
}

// ObsStitched runs E11a: repeats() traced cold migrations of test_pointer
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
		sres, q, err, rerr := migrate(cli, srv, e, "test_pointer", p, arch.Ultra5,
			session.Config{ChunkSize: 4096, Trace: iroot, Metrics: iniMetrics},
			session.Config{Trace: obs.NewTracer().Start("session"), Metrics: respMetrics})
		iroot.End()
		cleanup()
		last = sres
		if err != nil {
			return nil, fmt.Errorf("exper: stitched initiate: %w", err)
		}
		if rerr != nil {
			return nil, fmt.Errorf("exper: stitched respond: %w", rerr)
		}
		// Only the last restored process is run to completion; earlier
		// iterations exist to populate the histograms.
		if i == res.Migrations-1 {
			if res.ExitCode, err = runOut(q); err != nil {
				return nil, err
			}
		}
	}

	res.How = last.Params.How()
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
		for _, phase := range obsPhases[side] {
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
	fmt.Fprintf(w, "E11a (tracing): %d traced %s migrations over loopback TCP, %d bytes each, exit %d\n",
		r.Migrations, r.How, r.Bytes, r.ExitCode)
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

// indentTree shifts a rendered span tree under its heading.
func indentTree(tree string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// gateObsStitched is the E11a gate: the trace stitched and the restored
// process ran to exit 0.
func gateObsStitched(r *ObsStitchedResult) error {
	if !r.Stitched || r.ExitCode != 0 {
		return fmt.Errorf("stitched=%v exit=%d, want one stitched trace and exit 0", r.Stitched, r.ExitCode)
	}
	return nil
}

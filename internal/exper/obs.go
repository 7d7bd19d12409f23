package exper

// E10 — observability: the cost and the content of the obs layer.
//
//   - E10a measures the sectioned capture path (the E9a workload) with
//     tracing disabled (a nil span, the default everywhere) and enabled,
//     bounding what an uninstrumented migration pays for the hooks;
//   - E10b migrates the shared/cyclic test_pointer workload over real
//     loopback TCP at v3 with per-session tracing on both ends and
//     reports the initiator's and responder's phase-span trees — the
//     same trees migd -trace logs and the same SpanData JSON the shared
//     report schema carries.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
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

// ObsOverheadRow is one workload's traced-vs-untraced capture comparison.
type ObsOverheadRow struct {
	Workload string
	Bytes    int
	// Off is the min-of-N sectioned capture wall time with tracing
	// disabled (nil span); On is the same capture under a live tracer.
	Off         time.Duration
	On          time.Duration
	OverheadPct float64
}

// ObsOverhead runs E10a: time CaptureSections(1) on the E9a sharded-lists
// workload with p.Obs nil, then with a live span, and report the delta.
// The disabled case is the bar: tracing off must cost only nil-checks.
func ObsOverhead(cfg Config) ([]ObsOverheadRow, error) {
	nnodes := 4000
	if cfg.Quick {
		nnodes = 600
	}
	e, err := core.NewEngine(workload.ShardedListsSource(8, nnodes), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	p, _, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return nil, err
	}

	var snap []byte
	var failure error
	capture := func() {
		s, err := p.CaptureSections(1)
		if err != nil {
			failure = err
			return
		}
		snap = s
	}
	runtime.GC()
	p.Obs = nil
	off := stats.Repeat(cfg.repeats(), capture)
	if failure != nil {
		return nil, failure
	}
	runtime.GC()
	tr := obs.NewTracer()
	on := stats.Repeat(cfg.repeats(), func() {
		root := tr.Start("capture")
		p.Obs = root
		capture()
		root.End()
	})
	p.Obs = nil
	if failure != nil {
		return nil, failure
	}
	return []ObsOverheadRow{{
		Workload:    fmt.Sprintf("sharded lists 8x%d", nnodes),
		Bytes:       len(snap),
		Off:         off,
		On:          on,
		OverheadPct: (on.Seconds() - off.Seconds()) / off.Seconds() * 100,
	}}, nil
}

// PrintObsOverhead renders the E10a comparison.
func PrintObsOverhead(w io.Writer, rows []ObsOverheadRow) {
	t := stats.Table{
		Title:   "E10a (observability): sectioned capture with tracing off (nil span) vs on, Ultra 5",
		Headers: []string{"Workload", "Bytes", "Trace off", "Trace on", "Overhead"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Bytes, r.Off, r.On, fmt.Sprintf("%+.1f%%", r.OverheadPct))
	}
	fmt.Fprintln(w, t.String())
}

// ObsTraceResult is the traced v3 migration of E10b: the wire outcome
// plus both ends' exported span trees.
type ObsTraceResult struct {
	Version  uint32        `json:"version"`
	Bytes    int           `json:"bytes"`
	Wall     time.Duration `json:"wall_ns"`
	ExitCode int           `json:"exit_code"`
	// Initiator and Responder are the per-session phase-span trees in
	// the shared obs JSON form (handshake, collect, transport, restore,
	// confirm, with per-section children).
	Initiator []*obs.SpanData `json:"initiator"`
	Responder []*obs.SpanData `json:"responder"`

	initTree, respTree string
}

// ObsTrace runs E10b: one v3 migration of test_pointer over loopback TCP
// with Config.Trace set on both sides.
func ObsTrace(cfg Config) (*ObsTraceResult, error) {
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
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		return nil, err
	}
	itr, rtr := obs.NewTracer(), obs.NewTracer()
	iroot, rroot := itr.Start("session"), rtr.Start("session")
	type recvRes struct {
		q   *vm.Process
		err error
	}
	recvc := make(chan recvRes, 1)
	go func() {
		_, q, _, rerr := session.Respond(srv, reg, arch.Ultra5, session.Config{Trace: rroot})
		recvc <- recvRes{q, rerr}
	}()
	start := time.Now()
	res, err := session.Initiate(cli, e, p.Mach, "test_pointer", p, session.Config{
		ChunkSize: 4096, Window: 4, Trace: iroot,
	})
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("exper: traced initiate: %w", err)
	}
	recv := <-recvc
	wall := time.Since(start)
	cleanup()
	if recv.err != nil {
		return nil, fmt.Errorf("exper: traced respond: %w", recv.err)
	}
	iroot.End()
	rroot.End()
	recv.q.MaxSteps = maxSteps
	run, err := recv.q.Run()
	if err != nil {
		return nil, err
	}
	return &ObsTraceResult{
		Version:   res.Params.Version,
		Bytes:     res.Timing.Bytes,
		Wall:      wall,
		ExitCode:  run.ExitCode,
		Initiator: itr.Export(),
		Responder: rtr.Export(),
		initTree:  itr.Tree(),
		respTree:  rtr.Tree(),
	}, nil
}

// PrintObsTrace renders the E10b phase trees.
func PrintObsTrace(w io.Writer, r *ObsTraceResult) {
	fmt.Fprintf(w, "E10b (observability): traced v%d migration over loopback TCP, %d bytes in %v, exit %d\n",
		r.Version, r.Bytes, r.Wall.Round(time.Microsecond), r.ExitCode)
	fmt.Fprintf(w, "initiator:\n%s", indentTree(r.initTree))
	fmt.Fprintf(w, "responder:\n%s\n", indentTree(r.respTree))
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

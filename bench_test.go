package repro

// One benchmark per table and figure of the paper's evaluation (Section 4).
// The experiment index mapping each benchmark to its paper artifact is in
// DESIGN.md; cmd/migbench prints the same data as paper-style tables, and
// EXPERIMENTS.md records the comparison.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/vm"
	"repro/internal/workload"
)

// prepare runs a workload to its migration point and returns the stopped
// process and its state.
func prepare(b *testing.B, src string) (*core.Engine, *vm.Process, []byte) {
	b.Helper()
	e, err := core.NewEngine(src, minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := e.NewProcess(arch.Ultra5)
	if err != nil {
		b.Fatal(err)
	}
	p.MaxSteps = 4_000_000_000
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil {
		b.Fatal(err)
	}
	if !res.Migrated {
		b.Fatal("workload did not reach its migration point")
	}
	state, err := p.Recapture()
	if err != nil {
		b.Fatal(err)
	}
	return e, p, state
}

func benchCollect(b *testing.B, src string) {
	_, p, state := prepare(b, src)
	b.SetBytes(int64(len(state)))
	b.ReportMetric(float64(len(state)), "state-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Recapture(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRestore(b *testing.B, src string) {
	e, _, state := prepare(b, src)
	b.SetBytes(int64(len(state)))
	b.ReportMetric(float64(len(state)), "state-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := e.NewProcess(arch.Ultra5)
		if err == nil {
			err = q.RestoreInto(state)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E2 — Table 1: linpack 1000x1000 and bitonic 100000, Ultra 5 pair.
// ---------------------------------------------------------------------

func BenchmarkTable1LinpackCollect(b *testing.B) {
	benchCollect(b, workload.LinpackSource(1000, false))
}

func BenchmarkTable1LinpackRestore(b *testing.B) {
	benchRestore(b, workload.LinpackSource(1000, false))
}

func BenchmarkTable1BitonicCollect(b *testing.B) {
	benchCollect(b, workload.BitonicSource(100000, 19991231))
}

func BenchmarkTable1BitonicRestore(b *testing.B) {
	benchRestore(b, workload.BitonicSource(100000, 19991231))
}

// BenchmarkTable1Tx times the wire transfer of the linpack state over a
// real loopback TCP connection, complementing the calibrated 100 Mb/s
// model used for the paper's column.
func BenchmarkTable1Tx(b *testing.B) {
	_, _, state := prepare(b, workload.LinpackSource(1000, false))
	b.SetBytes(int64(len(state)))

	srv, cli, cleanup, err := loopbackPair()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := srv.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(state); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// E3 — Figure 2(a): linpack collection/restoration vs data size.
// ---------------------------------------------------------------------

func BenchmarkFig2aLinpackCollect(b *testing.B) {
	for _, n := range []int{100, 200, 400, 700, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchCollect(b, workload.LinpackSource(n, false))
		})
	}
}

func BenchmarkFig2aLinpackRestore(b *testing.B) {
	for _, n := range []int{100, 200, 400, 700, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRestore(b, workload.LinpackSource(n, false))
		})
	}
}

// ---------------------------------------------------------------------
// E4 — Figure 2(b): bitonic collection/restoration vs numbers sorted.
// ---------------------------------------------------------------------

func BenchmarkFig2bBitonicCollect(b *testing.B) {
	for _, n := range []int{10000, 20000, 50000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchCollect(b, workload.BitonicSource(n, 8151))
		})
	}
}

func BenchmarkFig2bBitonicRestore(b *testing.B) {
	for _, n := range []int{10000, 20000, 50000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRestore(b, workload.BitonicSource(n, 8151))
		})
	}
}

// ---------------------------------------------------------------------
// E5 — Section 4.2: cost decomposition (search vs encode, update vs
// decode), reported as custom metrics.
// ---------------------------------------------------------------------

func BenchmarkComplexityBreakdown(b *testing.B) {
	cases := []struct {
		name string
		src  string
	}{
		{"linpack500", workload.LinpackSource(500, false)},
		{"bitonic50000", workload.BitonicSource(50000, 271828)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			_, p, _ := prepare(b, c.src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Recapture(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := p.CaptureStats()
			total := st.Save.SearchTime + st.Save.EncodeTime
			if total > 0 {
				b.ReportMetric(100*st.Save.SearchTime.Seconds()/total.Seconds(), "search-%")
				b.ReportMetric(100*st.Save.EncodeTime.Seconds()/total.Seconds(), "encode-%")
			}
			b.ReportMetric(float64(st.Save.Blocks), "blocks")
		})
	}
}

// ---------------------------------------------------------------------
// E6 — Section 4.3: execution overhead of annotation.
// ---------------------------------------------------------------------

func benchOverheadRun(b *testing.B, e *core.Engine, disable bool) {
	for i := 0; i < b.N; i++ {
		p, err := e.NewProcess(arch.Ultra5)
		if err != nil {
			b.Fatal(err)
		}
		p.MaxSteps = 4_000_000_000
		p.DisableMigration = disable
		if !disable {
			p.PollHook = func(*vm.Process, *minic.Site) bool { return false }
		}
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadPollPoints(b *testing.B) {
	src := workload.KernelOverheadSource(2000, 40)
	variants := []struct {
		name    string
		policy  minic.PollPolicy
		disable bool
	}{
		{"unannotated", minic.PollPolicy{}, true},
		{"outer-poll", minic.PollPolicy{Loops: true, Funcs: []string{"main"}}, false},
		{"kernel-poll", minic.DefaultPolicy, false},
	}
	for _, v := range variants {
		e, err := core.NewEngine(src, v.policy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) { benchOverheadRun(b, e, v.disable) })
	}
}

func BenchmarkOverheadAllocations(b *testing.B) {
	variants := []struct {
		name    string
		src     string
		disable bool
	}{
		{"per-block-unannotated", workload.AllocOverheadSource(5000, false), true},
		{"per-block-annotated", workload.AllocOverheadSource(5000, false), false},
		{"pooled-annotated", workload.AllocOverheadSource(5000, true), false},
	}
	for _, v := range variants {
		e, err := core.NewEngine(v.src, minic.DefaultPolicy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) { benchOverheadRun(b, e, v.disable) })
	}
}

// ---------------------------------------------------------------------
// E1 — Section 4.1: end-to-end heterogeneous migration throughput.
// ---------------------------------------------------------------------

func BenchmarkHeterogeneousMigration(b *testing.B) {
	prog, err := Compile(workload.TestPointerSource(8), PollExplicitOnly)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prog.Migrate(DEC5000, SPARC20, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.ExitCode != 0 {
			b.Fatalf("self-check failed: %d", res.ExitCode)
		}
	}
}

// exercised via the experiment harness to keep parity with cmd/migbench.
func BenchmarkExperTable1Quick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Table1(exper.Config{Quick: true, Repeats: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackPair builds a connected server/client transport over TCP.
func loopbackPair() (srv, cli link.Transport, cleanup func(), err error) {
	return link.LoopbackPair()
}

// ---------------------------------------------------------------------
// Design ablations (DESIGN.md D1/D3): what the paper's design choices buy.
// ---------------------------------------------------------------------

func BenchmarkAblationDedup(b *testing.B) {
	for _, mode := range []string{"marking-on", "marking-off"} {
		b.Run(mode, func(b *testing.B) {
			cfg := exper.Config{Quick: false, Repeats: 1}
			for i := 0; i < b.N; i++ {
				rows, err := exper.DedupAblation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				idx := 0
				if mode == "marking-off" {
					idx = 1
				}
				b.ReportMetric(rows[idx].Value, "stream-bytes")
			}
		})
	}
}

func BenchmarkAblationMSRLTIndex(b *testing.B) {
	e, err := core.NewEngine(workload.BitonicSource(50000, 61803), minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	for _, useIndex := range []bool{false, true} {
		name := "binary-search"
		if useIndex {
			name = "hash-index"
		}
		b.Run(name, func(b *testing.B) {
			p, err := e.NewProcess(arch.Ultra5)
			if err != nil {
				b.Fatal(err)
			}
			p.MaxSteps = 4_000_000_000
			var req core.Request
			req.Raise()
			p.PollHook = req.Hook()
			if _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
			// D3's pass: every non-null pointer through Table.Lookup (a
			// capture resolves through its page index, which neither
			// setting changes).
			p.Table.UseBaseIndex = useIndex
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := msr.BuildGraph(p.Space, p.Table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

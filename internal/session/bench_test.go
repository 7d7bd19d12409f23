package session

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/stream"
	"repro/internal/workload"
)

// matrixSrc holds one 4 MiB matrix of doubles when it reaches its
// migration point — the bytes-dominated shape of the linpack workload.
const matrixSrc = `
	double a[512][1024];
	int main() {
		int i;
		for (i = 0; i < 512; i++) a[i][i] = i + 0.5;
		migrate_here();
		return (int)a[7][7];
	}
`

// BenchmarkReceiveSectioned measures the receive side of a cold migration
// end to end: a 4 MiB snapshot through stream.NewWriter -> NewReader over
// loopback TCP into receiveCold, which restores it out of the chunks as
// they arrive. alloc/payload is the bytes allocated per payload byte: the
// restored process's own memory, about 1 — no join, no second copy of any
// body, and the chunk frames recycled from the previous iteration's
// stream. CI holds it under 1.5.
func BenchmarkReceiveSectioned(b *testing.B) {
	e, err := core.NewEngine(matrixSrc, minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := stoppedAt(b, e, arch.DEC5000).CaptureSections(0)
	if err != nil {
		b.Fatal(err)
	}
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()

	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := make(chan error, 1)
		go func() {
			w := stream.NewWriter(cli, stream.Config{})
			_, werr := w.Write(snap)
			if cerr := w.Close(); werr == nil {
				werr = cerr
			}
			sent <- werr
		}()
		if _, _, err := receiveCold(stream.NewReader(srv, stream.Config{}), e, arch.SPARC20, nil); err != nil {
			b.Fatal(err)
		}
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(len(snap)), "alloc/payload")
}

// BenchmarkWarmTransfer measures one warm migration of the benchmark's
// warm_mutated program — 16 lists of 750 nodes, one rewritten between
// transfers, a checkpoint store on each end — with both ends in this
// process over link.Pipe. alloc/snapshot is the bytes both ends allocate
// per byte of snapshot, i.e. how many times the state is copied on its
// way: the capture's encoders (pooled), the BODIES frame and the pipe's
// copy of it for the one list that crosses, the store's reads of the lists
// that do not, and the restored process's memory. Framing a snapshot only
// for the next package to parse it would show here as whole extra copies
// (8.4 before sections became the interface); CI holds it under 6.5.
func BenchmarkWarmTransfer(b *testing.B) {
	e, err := core.NewEngine(workload.MutatingShardsSource(16, 750, 1<<30), minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	p := stoppedLive(b, e, arch.DEC5000)
	p.MaxSteps = 0
	srcCfg, dstCfg := Config{Store: openTestStore(b)}, Config{Store: openTestStore(b)}
	// The priming transfer fills the destination store.
	res, _, _ := transferWith(b, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
	snapBytes := res.Warm.SnapshotBytes

	b.SetBytes(int64(snapBytes))
	b.ReportAllocs()
	var before, after runtime.MemStats
	var allocated uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if run, err := p.ResumeRun(); err != nil || !run.Migrated {
			b.Fatalf("advance: %+v, %v", run, err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, _, _ = transferWith(b, e, "shards", p, arch.SPARC20, srcCfg, dstCfg)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		if res.Warm.SectionsSent == 0 || res.Warm.SectionsSent == res.Warm.Sections {
			b.Fatalf("sent %d of %d sections; want the rewritten list only", res.Warm.SectionsSent, res.Warm.Sections)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(allocated)/float64(b.N)/float64(snapBytes), "alloc/snapshot")
}

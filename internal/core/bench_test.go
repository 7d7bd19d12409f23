package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/stream"
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

// BenchmarkReceiveSectioned measures the receive side of a cold sectioned
// migration end to end: a 4 MiB v3 envelope through stream.NewWriter ->
// NewReader over loopback TCP into ReceiveAndRestoreSectioned, which
// restores it out of the chunks as they arrive. alloc/payload is the bytes
// allocated per payload byte: the restored process's own memory, about 1 —
// no join, no second copy of any body, and the chunk frames recycled from
// the previous iteration's stream. CI holds it under 1.5.
func BenchmarkReceiveSectioned(b *testing.B) {
	e, err := NewEngine(matrixSrc, minic.PollPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := stoppedAtMigration(b, e, arch.DEC5000)
	var envelope bytes.Buffer
	if _, err := e.SendSectioned(nopCloser{&envelope}, arch.DEC5000, p); err != nil {
		b.Fatal(err)
	}
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()

	b.SetBytes(int64(envelope.Len()))
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent := make(chan error, 1)
		go func() {
			w := stream.NewWriter(cli, stream.Config{})
			_, werr := w.Write(envelope.Bytes())
			if cerr := w.Close(); werr == nil {
				werr = cerr
			}
			sent <- werr
		}()
		if _, _, err := e.ReceiveAndRestoreSectioned(stream.NewReader(srv, stream.Config{}), arch.SPARC20, nil); err != nil {
			b.Fatal(err)
		}
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(envelope.Len()), "alloc/payload")
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

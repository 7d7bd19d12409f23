package vm

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/workload"
)

// compileBench builds a program once for benchmarking.
func compileBench(b *testing.B, src string, policy minic.PollPolicy) *minic.Program {
	b.Helper()
	prog, err := minic.Compile(src, policy)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkInterpreterThroughput measures raw statement execution rate on
// a tight arithmetic loop, the VM's hot path.
func BenchmarkInterpreterThroughput(b *testing.B) {
	prog := compileBench(b, `
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 100000; i++) {
				s = s * 3 + i;
			}
			return s & 255;
		}
	`, minic.PollPolicy{})
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		p, err := NewProcess(prog, arch.Ultra5)
		if err != nil {
			b.Fatal(err)
		}
		p.MaxSteps = 10_000_000
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
		steps += p.Stats.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkCallOverhead measures function call cost including frame
// registration in the MSRLT.
func BenchmarkCallOverhead(b *testing.B) {
	prog := compileBench(b, `
		int leaf(int x) { return x + 1; }
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 20000; i++) {
				s = leaf(s);
			}
			return s & 255;
		}
	`, minic.PollPolicy{})
	for _, disable := range []bool{false, true} {
		name := "msrlt-on"
		if disable {
			name = "msrlt-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := NewProcess(prog, arch.Ultra5)
				if err != nil {
					b.Fatal(err)
				}
				p.MaxSteps = 10_000_000
				p.DisableMigration = disable
				if _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMallocPath measures the allocation path including MSRLT
// registration.
func BenchmarkMallocPath(b *testing.B) {
	prog := compileBench(b, `
		struct node { float v; struct node *next; };
		int main() {
			int i;
			struct node *p;
			for (i = 0; i < 10000; i++) {
				p = (struct node *) malloc(sizeof(struct node));
				p->v = i;
				free(p);
			}
			return 0;
		}
	`, minic.PollPolicy{})
	for i := 0; i < b.N; i++ {
		p, err := NewProcess(prog, arch.Ultra5)
		if err != nil {
			b.Fatal(err)
		}
		p.MaxSteps = 10_000_000
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSectionedSnapshot runs a sharded-lists workload (8 lists of 400
// nodes) to its migration point and returns the stopped process and a
// sectioned (v3) snapshot of it.
func benchSectionedSnapshot(b *testing.B) (*Process, []byte) {
	b.Helper()
	p := stopPaused(b, workload.ShardedListsSource(8, 400), arch.Ultra5)
	snap, err := p.CaptureSections(0)
	if err != nil {
		b.Fatal(err)
	}
	return p, snap
}

// BenchmarkSerialRestore measures the sectioned restore. CI holds its
// allocs/op: a restore allocates per section, not per block.
func BenchmarkSerialRestore(b *testing.B) {
	p, snap := benchSectionedSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreProcess(p.Prog, arch.Ultra5, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionedCapture measures the sectioned capture of the same
// stopped process, under the same allocation guard.
func BenchmarkSectionedCapture(b *testing.B) {
	p, snap := benchSectionedSnapshot(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CaptureSections(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResumeFastForward measures how quickly a restored process
// reaches its migration point through deep nesting.
func BenchmarkResumeFastForward(b *testing.B) {
	prog := compileBench(b, `
		int deep(int n) {
			int r;
			if (n == 0) {
				migrate_here();
				return 1;
			}
			r = deep(n - 1);
			return r + 1;
		}
		int main() {
			int v;
			v = deep(50);
			return v;
		}
	`, minic.PollPolicy{})
	p, err := NewProcess(prog, arch.Ultra5)
	if err != nil {
		b.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	p.PollHook = func(*Process, *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		b.Fatal("setup failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := RestoreProcess(prog, arch.Ultra5, res.State)
		if err != nil {
			b.Fatal(err)
		}
		q.MaxSteps = 1_000_000
		if _, err := q.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBitonic16k runs the cold_pointer workload (bitonic 16384, a tree of
// 16 384 heap nodes) to its migration point on a DEC5000 and returns the
// stopped process and a sectioned snapshot of it.
func benchBitonic16k(b *testing.B) (*Process, []byte) {
	b.Helper()
	p := stopPaused(b, workload.BitonicSource(16384, 1), arch.DEC5000)
	snap, err := p.CaptureSections(0)
	if err != nil {
		b.Fatal(err)
	}
	return p, snap
}

// BenchmarkCaptureBitonic16k measures the sectioned capture of the tree:
// one address resolution per pointer, the per-object cost of collection.
// CI holds its allocs/op, so a per-block allocation fails the build.
func BenchmarkCaptureBitonic16k(b *testing.B) {
	p, snap := benchBitonic16k(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CaptureSections(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreBitonic16k measures the restore of that snapshot on a
// SPARC20: one allocation and one registration per block and one
// identification lookup per pointer, the per-object cost of restoration.
// CI holds its allocs/op too.
func BenchmarkRestoreBitonic16k(b *testing.B) {
	p, snap := benchBitonic16k(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreProcess(p.Prog, arch.SPARC20, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutationRound measures one mutation round of bench's
// warm_mutated program (16 lists of 750 nodes, one list rewritten per
// poll), resumed from one poll to the next, with the write barrier off and
// on. A process keeps the barrier on from its first capture round
// (Process.Round), so barrier=on, with a round before each mutation
// outside the timer, is what a warm or live source pays to run between
// rounds.
func BenchmarkMutationRound(b *testing.B) {
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("barrier=%v", on), func(b *testing.B) {
			p := stopPaused(b, workload.MutatingShardsSource(16, 750, 1<<30), arch.DEC5000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if on {
					b.StopTimer()
					if _, err := p.Round(nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if res, err := p.ResumeRun(); err != nil || !res.Migrated {
					b.Fatalf("mutation round: %+v, %v", res, err)
				}
			}
		})
	}
}

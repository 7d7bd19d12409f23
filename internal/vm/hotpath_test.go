package vm

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/workload"
)

// listsSource returns a program that builds nlists independent lists of
// nnodes two-word nodes each and stops: as many blocks per byte as MigC
// state gets, so the per-block machinery is all there is to see.
func listsSource(nlists, nnodes int) string {
	return fmt.Sprintf(`
struct node { int v; struct node *next; };
struct node *heads[%d];
int main() {
	int k, i;
	struct node *n;
	for (k = 0; k < %d; k++) {
		heads[k] = 0;
		for (i = 0; i < %d; i++) {
			n = (struct node *) malloc(sizeof(struct node));
			n->v = i;
			n->next = heads[k];
			heads[k] = n;
		}
	}
	migrate_here();
	return heads[%d]->v & 255;
}`, nlists, nlists, nnodes, nlists-1)
}

// stopPaused runs src on m to its migrate_here() and leaves the process
// paused and resumable there, without the automatic v1 capture.
func stopPaused(t testing.TB, src string, m *arch.Machine) *Process {
	t.Helper()
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	p.NoAutoCapture = true
	p.MaxSteps = 4_000_000_000
	p.PollHook = func(*Process, *minic.Site) bool { return true }
	if res, err := p.Run(); err != nil || !res.Migrated {
		t.Fatalf("run to the migration point: %v (%+v)", err, res)
	}
	return p
}

// TestDeepListSectioned: a long list is ordinary state. The partition walk
// used to recurse once per node, and a goroutine stack that runs out is a
// fatal error — it takes the whole process down, every other session of a
// daemon with it — not a failed migration. The stack limit is lowered for
// the test so that 200 000 nodes stand in for the three million it takes
// against the runtime's default.
func TestDeepListSectioned(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	const nodes = 200_000
	p := stopPaused(t, listsSource(1, nodes), arch.DEC5000)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CaptureStats().Save.Blocks; got < nodes {
		t.Fatalf("capture saved %d blocks of a %d-node list", got, nodes)
	}

	// A live round walks the same way.
	lc := p.NewLiveCapture(0)
	round, err := lc.Round()
	lc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round.Snapshot(), snap) {
		t.Error("a live round of the stopped process differs from its cold capture")
	}

	q, err := RestoreProcess(p.Prog, arch.SPARC20, snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := q.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Errorf("recapture of the restored process (%d B) differs from the snapshot it was restored from (%d B)", len(again), len(snap))
	}
	q.MaxSteps = 1_000_000
	if res, err := q.Run(); err != nil || res.ExitCode != (nodes-1)&255 {
		t.Errorf("restored process: %+v, %v; want exit %d", res, err, (nodes-1)&255)
	}
}

// TestSearchCounts pins counts, not clocks. A sectioned capture searches
// the MSRLT once per root and per non-null pointer scalar — the encoder
// writes what the walk resolved — through the capture's page index, which
// runs no bisection. The bisection stays the paper's on the v1 baseline:
// ⌈log₂ n⌉-shaped, and exactly the counts read from the tree before the hot
// path was rebuilt (the benchmark's four programs at test size, and the
// claimed workload at full size).
func TestSearchCounts(t *testing.T) {
	for _, tc := range []struct {
		name            string
		src             string
		advance         bool // one ResumeRun to the next migration point, as the benchmark does
		searches, steps int64
	}{
		{"cold_array", workload.LinpackSource(48, false), false, 6, 17},
		{"cold_pointer", workload.BitonicSource(1024, 1), false, 1029, 10251},
		{"cold_pointer seed 2", workload.BitonicSource(1024, 2), false, 1029, 10251},
		{"warm_mutated", workload.MutatingShardsSource(16, 12, 1<<30), true, 195, 1479},
		{"live_writer", workload.WriteRateSource(16, 12, 2, 1<<30), true, 195, 1479},
		{"cold_pointer, full size", workload.BitonicSource(16384, 1), false, 16389, 229387},
	} {
		p := stopPaused(t, tc.src, arch.DEC5000)
		if tc.advance {
			if _, err := p.ResumeRun(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Recapture(); err != nil {
			t.Fatal(err)
		}
		v1 := p.CaptureStats().Save
		if v1.Searches != tc.searches || v1.SearchSteps != tc.steps {
			t.Errorf("%s: v1 capture made %d searches in %d steps, the baseline is %d in %d",
				tc.name, v1.Searches, v1.SearchSteps, tc.searches, tc.steps)
		}
		if _, err := p.CaptureSections(0); err != nil {
			t.Fatal(err)
		}
		v3 := p.CaptureStats().Save
		if want := v3.Pointers - v3.NullPointers; v3.Searches != want {
			t.Errorf("%s: sectioned capture made %d searches for %d roots and non-null pointers", tc.name, v3.Searches, want)
		}
		if v3.Searches != v1.Searches || v3.SearchSteps != 0 {
			t.Errorf("%s: sectioned capture %d searches / %d steps, v1 %d searches: the same pointers, resolved through the page index with no bisection",
				tc.name, v3.Searches, v3.SearchSteps, v1.Searches)
		}
		if most := int64(bits.Len(uint(p.Table.Len()))); v3.SearchSteps > v3.Searches*most {
			t.Errorf("%s: %d steps over %d searches of %d blocks: more than ⌈log₂ n⌉ = %d each",
				tc.name, v3.SearchSteps, v3.Searches, p.Table.Len(), most)
		}
	}
}

// restoreAllocs returns the bytes a restore of snap allocates.
func restoreAllocs(t *testing.T, prog *minic.Program, snap []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RestoreProcess(prog, arch.SPARC20, snap); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRestoreIndexGrowthAmortised: a restore announces each section's
// block count to the table and the allocator so their indexes grow once.
// Announcing must not mean rebuilding: sixteen sections of 750 blocks may
// not cost much more than one section of the same 12 000 (a reserve that
// copied the index on every call cost 3.7 times as much).
func TestRestoreIndexGrowthAmortised(t *testing.T) {
	measure := func(nlists, nnodes int) uint64 {
		p := stopPaused(t, listsSource(nlists, nnodes), arch.DEC5000)
		snap, err := p.CaptureSections(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, heap := countSections(t, snap); heap != nlists {
			t.Fatalf("%d heap sections, want %d", heap, nlists)
		}
		restoreAllocs(t, p.Prog, snap) // plans and pools warm
		return restoreAllocs(t, p.Prog, snap)
	}
	one, sixteen := measure(1, 12000), measure(16, 750)
	t.Logf("restore of 12000 blocks allocates %d B as one section, %d B as sixteen (%.2fx)", one, sixteen, float64(sixteen)/float64(one))
	if sixteen > one+one/2 {
		t.Errorf("sixteen sections allocate %d B, one section %d B: more than 1.5x", sixteen, one)
	}
}

package vm

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/types"
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
// paused and resumable there, without the automatic capture.
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

	q, err := restoreProcess(p.Prog, arch.SPARC20, snap)
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

// TestDeepListCapture: the state captured at a granted poll carries a list
// one node longer than the 100 000 blocks the
// recursive collector it replaced refused, and restores on another machine
// to run to the unmigrated run's exit code. The runtime's default stack
// limit stands.
func TestDeepListCapture(t *testing.T) {
	const nodes = 100_001
	prog, err := minic.Compile(listsSource(1, nodes), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.DEC5000)
	p, err := NewProcess(prog, arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 50_000_000
	p.PollHook = func(*Process, *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("run to the migration point: %v (%+v)", err, res)
	}
	q, err := restoreProcess(prog, arch.SPARC20, stopState(t, p))
	if err != nil {
		t.Fatal(err)
	}
	q.MaxSteps = 1_000_000
	if got, err := q.Run(); err != nil || got.Migrated || got.ExitCode != want {
		t.Errorf("restored process: %+v, %v; want exit %d", got, err, want)
	}
}

// bisectionCounts resolves what a capture of p resolves — every root, and
// every non-null pointer scalar of the blocks reachable from the roots —
// through the MSRLT's counted bisection (Table.Lookup), once each, as the
// paper's Save_pointer does, and returns the table's counters for it.
func bisectionCounts(t *testing.T, p *Process) msr.Stats {
	t.Helper()
	sites, err := p.captureSites(p.lastSite)
	if err != nil {
		t.Fatal(err)
	}
	roots := p.liveRoots(sites)
	p.Table.ResetStats()
	seen := map[msr.BlockID]bool{}
	var stack []*msr.Block
	resolve := func(addr memory.Address) {
		b, _, _, err := p.Table.Lookup(p.Mach, addr)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[b.ID] {
			seen[b.ID] = true
			stack = append(stack, b)
		}
	}
	for _, live := range append(roots.FrameLive, roots.Globals) {
		for _, addr := range live {
			resolve(addr)
		}
	}
	scan := func(op *types.PlanOp, base memory.Address) error {
		for i := 0; i < op.Count && op.Kind == arch.Ptr; i++ {
			if val, err := p.Space.LoadPtr(base + memory.Address(op.Off+i*op.Stride)); err != nil {
				return err
			} else if val != 0 {
				resolve(val)
			}
		}
		return nil
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		plan := b.Plan(p.Mach)
		for elem := 0; elem < b.Count; elem++ {
			if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), scan); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p.Table.Stats
}

// TestSearchCounts pins counts, not clocks. A capture searches the MSRLT
// once per root and per non-null pointer scalar — the encoder writes what
// the walk resolved — through the capture's page index, which runs no
// bisection. The paper's bisection over the same pointers stays
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
		paper := bisectionCounts(t, p)
		if paper.Searches != tc.searches || paper.SearchSteps != tc.steps {
			t.Errorf("%s: the bisection made %d searches in %d steps, the baseline is %d in %d",
				tc.name, paper.Searches, paper.SearchSteps, tc.searches, tc.steps)
		}
		if most := int64(bits.Len(uint(p.Table.Len()))); paper.SearchSteps > paper.Searches*most {
			t.Errorf("%s: %d steps over %d searches of %d blocks: more than ⌈log₂ n⌉ = %d each",
				tc.name, paper.SearchSteps, paper.Searches, p.Table.Len(), most)
		}
		if _, err := p.Recapture(); err != nil {
			t.Fatal(err)
		}
		st := p.CaptureStats().Save
		if want := st.Pointers - st.NullPointers; st.Searches != want {
			t.Errorf("%s: capture made %d searches for %d roots and non-null pointers", tc.name, st.Searches, want)
		}
		if st.Searches != paper.Searches || st.SearchSteps != 0 {
			t.Errorf("%s: capture %d searches / %d steps, bisection %d searches: the same pointers, resolved through the page index with no bisection",
				tc.name, st.Searches, st.SearchSteps, paper.Searches)
		}
	}
}

// restoreAllocs returns the bytes a restore of snap allocates.
func restoreAllocs(t *testing.T, prog *minic.Program, snap []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := restoreProcess(prog, arch.SPARC20, snap); err != nil {
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

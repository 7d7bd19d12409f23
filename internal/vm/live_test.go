package vm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// newMutatingProcess compiles the mutating-shards workload and stops the
// process at its first poll.
func newMutatingProcess(t *testing.T, m *arch.Machine, rounds int) (*Process, *minic.Program) {
	t.Helper()
	prog, err := minic.Compile(workload.MutatingShardsSource(4, 30, rounds), minic.PollPolicy{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 50_000_000
	p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil {
		t.Fatalf("run to first poll: %v", err)
	}
	if !res.Migrated {
		t.Fatalf("run to first poll: %+v, want a stop", res)
	}
	return p, prog
}

// roundTotals derives a round's totals from its two slices: how many
// sections were carried over, the bytes of all bodies and of the re-encoded
// ones (the upper bound on what must cross the wire).
func roundTotals(r *LiveRound) (reused, bytes, fresh int) {
	for i, s := range r.Sections {
		bytes += len(s.Body)
		if r.From[i] >= 0 {
			reused++
		} else {
			fresh += len(s.Body)
		}
	}
	return reused, bytes, fresh
}

// TestLiveRoundsByteIdenticalToStopAndCopy drives the pre-copy capture
// across every poll of a mutating workload and checks the core delta
// invariant: each round's assembled snapshot is byte-identical to a full
// stop-and-copy sectioned capture of the same paused state, even though
// most sections were carried over from the cache.
func TestLiveRoundsByteIdenticalToStopAndCopy(t *testing.T) {
	p, prog := newMutatingProcess(t, arch.Ultra5, 6)
	lc := p.NewLiveCapture(0)
	defer lc.Close()

	totalReused := 0
	var mid []byte
	var prev *LiveRound
	for round := 0; ; round++ {
		r, err := lc.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// A carried-over body is the body of the previous round's section
		// From names, so its content address can be copied from there.
		for i, f := range r.From {
			if f < 0 {
				continue
			}
			if p := prev.Sections[f]; p.Kind != r.Sections[i].Kind || !bytes.Equal(p.Body, r.Sections[i].Body) {
				t.Fatalf("round %d: section %d claims to carry over section %d of the previous round, which differs", round, i, f)
			}
		}
		prev = r
		direct, err := p.CaptureSections(0)
		if err != nil {
			t.Fatalf("round %d direct capture: %v", round, err)
		}
		if !bytes.Equal(r.Snapshot(), direct) {
			t.Fatalf("round %d: assembled snapshot differs from stop-and-copy capture", round)
		}
		reused, _, _ := roundTotals(r)
		if round == 0 {
			if reused != 0 || r.DirtyBlocks != 0 {
				t.Fatalf("round 0 reused %d sections, dirty %d; want 0/0", reused, r.DirtyBlocks)
			}
		} else {
			if r.DirtyBlocks == 0 {
				t.Fatalf("round %d observed an empty dirty set despite mutations", round)
			}
			totalReused += reused
		}
		if round == 3 {
			mid = r.Snapshot()
		}
		res, err := p.ResumeRun()
		if err != nil {
			t.Fatalf("resume after round %d: %v", round, err)
		}
		if !res.Migrated {
			if res.ExitCode != 0 {
				t.Fatalf("source ran to exit %d, want 0", res.ExitCode)
			}
			break
		}
	}
	if totalReused == 0 {
		t.Fatal("no section was ever reused across rounds")
	}

	// A mid-sequence round restores like any v3 snapshot — on a machine
	// with different byte order and widths — and runs to completion.
	q, err := restoreProcess(prog, arch.SPARC20, mid)
	if err != nil {
		t.Fatalf("restore mid-round snapshot: %v", err)
	}
	q.MaxSteps = 50_000_000
	res, err := q.Run()
	if err != nil {
		t.Fatalf("run restored process: %v", err)
	}
	if res.Migrated || res.ExitCode != 0 {
		t.Fatalf("restored process: migrated=%v exit=%d, want false/0", res.Migrated, res.ExitCode)
	}
}

// TestLiveRoundReuseTracksDirtySet pins the selective re-encode: with 4
// independent lists and one mutated per round, a steady-state round
// re-encodes the touched component, the frame, and the globals, and
// reuses the other three heap components.
func TestLiveRoundReuseTracksDirtySet(t *testing.T) {
	p, _ := newMutatingProcess(t, arch.Ultra5, 6)
	lc := p.NewLiveCapture(0)
	defer lc.Close()

	if _, err := lc.Round(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if res, err := p.ResumeRun(); err != nil || !res.Migrated {
			t.Fatalf("resume: res=%+v err=%v", res, err)
		}
		r, err := lc.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// 4 heap components; exactly one list was mutated between polls.
		reusedHeap := 0
		for i, s := range r.Sections {
			if s.Kind == snapshot.KindHeap && r.From[i] >= 0 {
				reusedHeap++
			}
		}
		if reusedHeap != 3 {
			t.Fatalf("round %d reused %d heap components, want 3", round, reusedHeap)
		}
		if _, bytes, fresh := roundTotals(r); fresh >= bytes {
			t.Fatalf("round %d fresh bytes %d not below total %d", round, fresh, bytes)
		}
	}
}

// TestLiveRoundReportsAsCapture holds a pre-copy round to the capture
// instruments a cold capture reports to, counting what the round encoded
// and not what it reused: vm.captures, xdr.encode.* and CaptureStats.
func TestLiveRoundReportsAsCapture(t *testing.T) {
	p, _ := newMutatingProcess(t, arch.Ultra5, 6)
	lc := p.NewLiveCapture(0)
	defer lc.Close()
	if _, err := lc.Round(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.ResumeRun(); err != nil || !res.Migrated {
		t.Fatalf("resume: res=%+v err=%v", res, err)
	}

	captures, encoded := mCaptures.Value(), mEncodeBytes.Value()
	r, err := lc.Round()
	if err != nil {
		t.Fatal(err)
	}
	reused, _, fresh := roundTotals(r)
	if reused == 0 || r.DirtyBlocks == 0 {
		t.Fatalf("round reused %d sections over %d dirty blocks; want a delta round", reused, r.DirtyBlocks)
	}
	if got := mCaptures.Value() - captures; got != 1 {
		t.Errorf("vm.captures rose by %d over one round, want 1", got)
	}
	if got := mEncodeBytes.Value() - encoded; got < int64(fresh) {
		t.Errorf("xdr.encode.bytes rose by %d, want at least the round's %d fresh bytes", got, fresh)
	}
	// The blocks of the re-encoded sections, from their directories: the
	// first word of a heap body, the word behind the live references (16
	// bytes each, never null) of a frame or globals body.
	var blocks int64
	for i, s := range r.Sections {
		if r.From[i] >= 0 || s.Kind == snapshot.KindExec {
			continue
		}
		dec := xdr.NewDecoder(s.Body)
		if s.Kind != snapshot.KindHeap {
			live, _ := dec.Uint32()
			dec.FixedOpaque(16 * int(live))
		}
		n, err := dec.Uint32()
		if err != nil {
			t.Fatal(err)
		}
		blocks += int64(n)
	}
	if got := p.CaptureStats().Save.Blocks; got != blocks {
		t.Errorf("CaptureStats().Save.Blocks = %d, want the %d blocks of the re-encoded sections", got, blocks)
	}
}

// TestResumeRunWithoutCapture checks the stop/resume cycle leaves execution unperturbed: stopping at every poll and resuming each
// time finishes with the same exit code as an uninterrupted run.
func TestResumeRunWithoutCapture(t *testing.T) {
	p, prog := newMutatingProcess(t, arch.Ultra5, 5)
	stops := 1
	for {
		res, err := p.ResumeRun()
		if err != nil {
			t.Fatalf("resume %d: %v", stops, err)
		}
		if !res.Migrated {
			if res.ExitCode != 0 {
				t.Fatalf("exit %d after %d stops, want 0", res.ExitCode, stops)
			}
			break
		}
		stops++
	}
	if stops != 5 {
		t.Fatalf("stopped %d times, want 5 (one per program round)", stops)
	}

	// The uninterrupted baseline.
	q, err := NewProcess(prog, arch.Ultra5)
	if err != nil {
		t.Fatal(err)
	}
	q.MaxSteps = 50_000_000
	res, err := q.Run()
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("baseline run: exit=%d err=%v", res.ExitCode, err)
	}
}

// reuseSource is the program of TestLiveReuseRule: two four-node lists, a
// pool of eight blocks, and a loop whose body, the case's, polls once per
// iteration (at one of two sites, or inside visit on odd rounds). c is live
// at every poll and null at each; u is dead at every poll.
const reuseSource = `
struct node {
	double pay[4];
	struct node *next;
	struct node *alt;
};

struct node *heads[2];
struct node *tail0;
struct node *pool[8];
double total;

int bump(int v) {
	int w;
	w = v + 1;
	return w;
}

int visit(int v, int r) {
	int w;
	w = v + 1;
	if (r & 1) migrate_here();
	return w;
}

int main() {
	int i, k, r, t;
	struct node *c, *u;
	for (k = 0; k < 2; k++) {
		heads[k] = 0;
		for (i = 0; i < 4; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->pay[0] = k * 10.0 + i;
			c->next = heads[k];
			c->alt = 0;
			heads[k] = c;
			if (k == 0) {
				if (i == 0) tail0 = c;
			}
		}
	}
	for (i = 0; i < 8; i++) pool[i] = (struct node *) malloc(sizeof(struct node));
	t = 0;
	c = 0;
	for (r = 0; r < 5; r++) {
%s
	}
	if (c) total = total + 1.0;
	return 0;
}
`

// TestLiveReuseRule drives each case's program through every poll with a
// live capture, and requires each round to be byte-identical to a
// stop-and-copy capture of the same paused state and to have taken the
// case's path: the previous round's partition kept, or walked again.
func TestLiveReuseRule(t *testing.T) {
	cases := []struct {
		name, body string
		path       string // every round after the first
	}{
		{"payload writes", `
		heads[0]->pay[1] = heads[0]->pay[1] + 1.0;
		total = total + heads[1]->pay[0];
		migrate_here();`, "reused"},
		{"live cursor back where it began", `
		c = heads[0];
		while (c) {
			c->pay[2] = c->pay[2] + 0.5;
			c = c->next;
		}
		migrate_here();`, "reused"},
		{"pointers overwritten with their own values", `
		heads[0]->next = heads[0]->next;
		heads[1] = heads[1];
		migrate_here();`, "reused"},
		{"pointer write in an unreachable block", `
		u = heads[r % 2];
		total = total + u->pay[0];
		migrate_here();`, "reused"},
		{"pointer retargeted inside one component", `
		u = heads[0];
		if (r % 2) u->alt = u->next; else u->alt = u->next->next;
		migrate_here();`, "walked"},
		{"components merge and split", `
		if (r % 2) tail0->next = heads[1]; else tail0->next = 0;
		migrate_here();`, "walked"},
		{"malloc between polls", `
		u = (struct node *) malloc(sizeof(struct node));
		migrate_here();`, "walked"},
		{"free between polls", `
		free(pool[r]);
		pool[r] = 0;
		migrate_here();`, "walked"},
		// A call registers nothing: the callee's frame is gone before the
		// stop, and the table the stop reads is the one the last stop read.
		{"call and return between polls", `
		t = bump(t);
		migrate_here();`, "reused"},
		{"stop inside a callee on alternate rounds", `
		t = visit(t, r);
		if (r % 2 == 0) migrate_here();`, "walked"},
		{"poll at a different site", `
		if (r % 2) {
			t = r;
			migrate_here();
			total = total + t;
		} else {
			migrate_here();
		}`, "walked"},
	}
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARC20} {
		for _, tc := range cases {
			t.Run(m.Name+"/"+tc.name, func(t *testing.T) {
				prog, err := minic.Compile(fmt.Sprintf(reuseSource, tc.body), minic.PollPolicy{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				p, err := NewProcess(prog, m)
				if err != nil {
					t.Fatal(err)
				}
				p.PollHook = func(*Process, *minic.Site) bool { return true }
				if res, err := p.Run(); err != nil || !res.Migrated {
					t.Fatalf("run to the first poll: %+v %v", res, err)
				}
				lc := p.NewLiveCapture(0)
				defer lc.Close()
				rounds := 0
				for ; ; rounds++ {
					r, path := tracedRound(t, p, lc)
					want := "walked"
					if rounds > 0 {
						want = tc.path
					}
					if path != want {
						t.Errorf("round %d: partition %s, want %s", rounds, path, want)
					}
					direct, err := p.CaptureSections(0)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(r.Snapshot(), direct) {
						t.Fatalf("round %d differs from a stop-and-copy capture", rounds)
					}
					res, err := p.ResumeRun()
					if err != nil {
						t.Fatal(err)
					}
					if !res.Migrated {
						if res.ExitCode != 0 {
							t.Fatalf("exit %d", res.ExitCode)
						}
						break
					}
				}
				if rounds < 3 {
					t.Fatalf("%d rounds, want at least 3", rounds)
				}
			})
		}
	}
}

// tracedRound captures one round and reads the path its partition took off
// the collect span.
func tracedRound(t *testing.T, p *Process, lc *LiveCapture) (*LiveRound, string) {
	t.Helper()
	tr := obs.NewTracer()
	p.Obs = tr.Start("round")
	r, err := lc.Round()
	p.Obs.End()
	p.Obs = nil
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Export()[0].Children[0].Children {
		if c.Name == "partition" {
			return r, c.Attrs["partition"]
		}
	}
	t.Fatal("no partition span")
	return nil, ""
}

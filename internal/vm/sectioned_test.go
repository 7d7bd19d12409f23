package vm

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// stopSectioned compiles src with explicit poll points only (so the
// sole poll site is its migrate_here() intrinsic), runs it on Ultra 5 to
// that point, and returns the stopped process, its state, and the
// expected final exit code from an unmigrated reference run.
func stopSectioned(t *testing.T, src string) (*Process, *minic.Program, []byte, int) {
	t.Helper()
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, _ := reference(t, prog, arch.Ultra5)
	p, err := NewProcess(prog, arch.Ultra5)
	if err != nil {
		t.Fatal(err)
	}
	p.Stdout = &bytes.Buffer{}
	p.MaxSteps = 50_000_000
	p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Fatalf("finished (exit %d) before reaching migrate_here", res.ExitCode)
	}
	return p, prog, stopState(t, p), want
}

// countSections walks a v3 snapshot and returns its section count and how
// many of those are heap components.
func countSections(t *testing.T, snap []byte) (total, heap int) {
	t.Helper()
	rd, err := snapshot.NewReader(xdr.NewDecoder(snap))
	if err != nil {
		t.Fatal(err)
	}
	for rd.Remaining() > 0 {
		sec, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		total++
		if sec.Kind == snapshot.KindHeap {
			heap++
		}
	}
	return total, heap
}

func TestSectionedCaptureDeterministic(t *testing.T) {
	p, _, _, _ := stopSectioned(t, workload.ShardedListsSource(6, 40))
	first, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two captures of one stopped process (%d B, %d B) differ", len(first), len(second))
	}
	if _, comps := countSections(t, second); comps != 6 {
		t.Errorf("heap components = %d, want 6 (one per sharded list)", comps)
	}
}

func TestSectionedPartitionMergesSharedHeap(t *testing.T) {
	// Two lists spliced together at the tail form one connected component.
	src := `
		struct node { double data; struct node *link; };
		struct node *a;
		struct node *b;
		int main() {
			struct node *cur;
			int i, sum;
			a = 0;
			for (i = 1; i <= 10; i++) {
				cur = (struct node *) malloc(sizeof(struct node));
				cur->data = i;
				cur->link = a;
				a = cur;
			}
			b = (struct node *) malloc(sizeof(struct node));
			b->data = 99.0;
			b->link = a;
			migrate_here();
			sum = 0;
			cur = b;
			while (cur) {
				sum += (int)cur->data;
				cur = cur->link;
			}
			return sum % 128;
		}
	`
	p, _, _, _ := stopSectioned(t, src)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, comps := countSections(t, snap); comps != 1 {
		t.Errorf("heap components = %d, want 1 (lists share their tail)", comps)
	}
}

func TestSectionedRestoreRoundTrip(t *testing.T) {
	p, prog, state, want := stopSectioned(t, workload.ShardedListsSource(4, 30))
	v3, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	sections, _ := countSections(t, v3)
	for _, dst := range []*arch.Machine{arch.Ultra5, arch.I386, arch.AMD64} {
		tr := obs.NewTracer()
		root := tr.Start("restore-test")
		q, err := NewProcess(prog, dst)
		if err != nil {
			t.Fatal(err)
		}
		q.Obs = root
		if err := q.RestoreInto(v3); err != nil {
			t.Fatalf("restore on %s: %v", dst.Name, err)
		}
		root.End()
		re, err := q.Recapture()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, state) {
			t.Errorf("%s: recaptured state differs from the source's capture at the poll", dst.Name)
		}
		// Every section but exec (decoded before the loop) is recorded as
		// a child of the restore span.
		if got := len(tr.Export()[0].Children[0].Children); got != sections-1 {
			t.Errorf("%s: restore span has %d section children, want %d", dst.Name, got, sections-1)
		}
		q.Stdout = &bytes.Buffer{}
		q.MaxSteps = 50_000_000
		res, err := q.Run()
		if err != nil {
			t.Fatalf("resume on %s: %v", dst.Name, err)
		}
		if res.Migrated || res.ExitCode != want {
			t.Errorf("%s: resumed run = %+v, want exit %d", dst.Name, res, want)
		}
	}
}

func TestSectionedRejectsCorruption(t *testing.T) {
	p, prog, _, _ := stopSectioned(t, workload.ShardedListsSource(3, 20))
	v3, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("body flip", func(t *testing.T) {
		mut := append([]byte(nil), v3...)
		mut[len(mut)/2] ^= 0x20
		_, err := restoreProcess(prog, arch.I386, mut)
		if err == nil {
			t.Fatal("corrupted snapshot restored without error")
		}
		if !errors.Is(err, snapshot.ErrChecksum) && !errors.Is(err, collect.ErrCorruptStream) {
			t.Errorf("err = %v, want a checksum/corrupt-stream error", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := restoreProcess(prog, arch.I386, v3[:len(v3)-6]); err == nil {
			t.Fatal("truncated snapshot restored without error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), v3...)
		mut[3] ^= 0xff
		if _, err := restoreProcess(prog, arch.I386, mut); err == nil {
			t.Fatal("bad-magic snapshot restored without error")
		}
	})
	// The ordering and completeness checks, driven with section lists (what
	// a round exchange or a checkpoint store hands RestoreSections) and, for
	// one of them, with the same list framed (what RestoreInto takes):
	// exec #0 first and once, heap components in number
	// order before any variable section, each frame of the restored chain
	// exactly once, globals exactly once.
	secs := sectionsOf(t, p)
	exec, heap, frame, globals := secs[0], secs[1:4], secs[4], secs[5]
	if exec.Kind != snapshot.KindExec || heap[2].Kind != snapshot.KindHeap || frame.Kind != snapshot.KindFrame || globals.Kind != snapshot.KindGlobals || len(secs) != 6 {
		t.Fatalf("fixture is not exec, 3 heap components, 1 frame, globals: %d sections", len(secs))
	}
	withID := func(s snapshot.Section, id uint32) snapshot.Section { s.ID = id; return s }
	list := func(s ...snapshot.Section) []snapshot.Section { return s }
	for _, tc := range []struct {
		name, want string
		secs       []snapshot.Section
	}{
		{"empty list", "does not start with the exec section", nil},
		{"no exec first", "does not start with the exec section", secs[1:]},
		{"exec with non-zero ID", "does not start with the exec section", append(list(withID(exec, 1)), secs[1:]...)},
		{"second exec", "duplicate exec section", append(list(exec, exec), secs[1:]...)},
		{"heap after a frame", "after variable sections", list(exec, heap[0], heap[1], frame, heap[2], globals)},
		{"heap IDs out of order", "heap sections out of order", list(exec, heap[0], heap[2], heap[1], frame, globals)},
		{"frame ID 0", "outside the 1 restored frames", list(exec, heap[0], heap[1], heap[2], withID(frame, 0), globals)},
		{"frame ID beyond the depth", "outside the 1 restored frames", list(exec, heap[0], heap[1], heap[2], withID(frame, 2), globals)},
		{"duplicate frame", "duplicate frame section 1", list(exec, heap[0], heap[1], heap[2], frame, frame, globals)},
		{"missing frame", "missing frame section 1", list(exec, heap[0], heap[1], heap[2], globals)},
		{"duplicate globals", "duplicate globals section", list(exec, heap[0], heap[1], heap[2], frame, globals, globals)},
		{"missing globals", "missing the globals section", secs[:5]},
		{"unknown kind", "unknown section kind 9", append(secs[:5:5], snapshot.Section{Kind: 9}, globals)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewProcess(prog, arch.I386)
			if err != nil {
				t.Fatal(err)
			}
			err = q.RestoreSections(tc.secs)
			if !errors.Is(err, collect.ErrCorruptStream) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want ErrCorruptStream (%s)", err, tc.want)
			}
		})
	}
	t.Run("missing globals, framed", func(t *testing.T) {
		if _, err := restoreProcess(prog, arch.I386, snapshot.Encode(secs[:5])); !errors.Is(err, collect.ErrCorruptStream) {
			t.Errorf("err = %v, want ErrCorruptStream", err)
		}
	})
	t.Run("trailing bytes, framed", func(t *testing.T) {
		_, err := restoreProcess(prog, arch.I386, append(append([]byte(nil), v3...), 0, 0, 0, 0))
		if !errors.Is(err, collect.ErrCorruptStream) || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("err = %v, want ErrCorruptStream (trailing bytes)", err)
		}
	})
	t.Run("sections into a process that has frames", func(t *testing.T) {
		if err := p.RestoreSections(secs); err == nil {
			t.Error("RestoreSections into a started process succeeded")
		}
	})
	// The exec section's own failures, framed: a body cut short inside its
	// frame chain, and a frame of a function the program does not have.
	withExec := func(body []byte) []byte {
		return snapshot.Encode(append(list(snapshot.Section{Kind: snapshot.KindExec, Body: body}), secs[1:]...))
	}
	t.Run("truncated exec section", func(t *testing.T) {
		if _, err := restoreProcess(prog, arch.I386, withExec(exec.Body[:6])); !errors.Is(err, collect.ErrCorruptStream) {
			t.Errorf("err = %v, want ErrCorruptStream", err)
		}
	})
	t.Run("exec section names an unknown function", func(t *testing.T) {
		enc := xdr.NewEncoder(64)
		enc.PutUint32(1)
		enc.PutString("no_such_function")
		enc.PutUint32(0)
		if _, err := restoreProcess(prog, arch.I386, withExec(enc.Bytes())); !errors.Is(err, collect.ErrMismatch) {
			t.Errorf("err = %v, want ErrMismatch", err)
		}
	})
}

func TestSectionedRejectsWrongProgram(t *testing.T) {
	p, _, _, _ := stopSectioned(t, workload.ShardedListsSource(3, 20))
	v3, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := minic.Compile(`
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 50; i++) { s += i; }
			return s % 97;
		}
	`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreProcess(other, arch.I386, v3); !errors.Is(err, collect.ErrMismatch) {
		t.Errorf("err = %v, want ErrMismatch", err)
	}
}

// cellSrc keeps a heap cell that points into main's frame.
const cellSrc = `
struct cell { int *p; int n; };
int main() {
	int x, r;
	struct cell *c;
	x = 1;
	c = (struct cell *) malloc(sizeof(struct cell));
	c->p = &x;
	c->n = 0;
	for (r = 0; r < 5; r++) {
		*c->p = *c->p * 3 + r;
		c->n = c->n + 1;
		migrate_here();
	}
	return (x + c->n) & 255;
}`

// TestHeapPointerIntoFrameWaitsForFrames restores a heap component that
// points into a frame. A restore applies heap sections before the frames
// exist — a live one round by round, as they arrive — so the pointer
// cannot resolve then; it is left null and the section filled again once
// Finish has rebuilt the frames. Applied round by round into one shell,
// each round naming what the shell already holds by sum only, and in one
// call, the restored process re-collects like the source and runs to the
// same exit.
func TestHeapPointerIntoFrameWaitsForFrames(t *testing.T) {
	p := stopPaused(t, cellSrc, arch.DEC5000)
	q, err := NewProcess(p.Prog, arch.SPARC20)
	if err != nil {
		t.Fatal(err)
	}
	shell := q.NewRestore()
	lc := p.NewLiveCapture(0)
	for round := 0; round < 3; round++ {
		if round > 0 {
			if res, err := p.ResumeRun(); err != nil || !res.Migrated {
				t.Fatalf("resume: %+v, %v", res, err)
			}
		}
		lr, err := lc.Round()
		if err != nil {
			t.Fatal(err)
		}
		secs, sums, held := slices.Clone(lr.Sections), make([]Sum, len(lr.Sections)), 0
		for i, s := range secs {
			if sums[i] = sha256.Sum256(s.Body); shell.Holds(s.Kind, sums[i]) {
				secs[i].Body, held = nil, held+1
			}
		}
		if round > 0 && held == 0 {
			t.Errorf("round %d: the shell holds none of the sections", round)
		}
		if err := shell.Apply(secs, sums); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	lc.Close()
	if err := shell.Finish(); err != nil {
		t.Fatal(err)
	}
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	oneCall, err := restoreProcess(p.Prog, arch.SPARC20, snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Process{"round by round": q, "one call": oneCall} {
		if got, err := r.Recapture(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: recapture differs from the source's (err %v)", name, err)
		}
	}
	p.PollHook = nil // the source runs on to its exit
	res, err := p.ResumeRun()
	if err != nil || res.Migrated {
		t.Fatalf("source: %+v, %v", res, err)
	}
	for name, r := range map[string]*Process{"round by round": q, "one call": oneCall} {
		r.MaxSteps = 1_000_000
		if got, err := r.Run(); err != nil || got.Migrated || got.ExitCode != res.ExitCode {
			t.Errorf("%s: restored run %+v, %v; the source exits %d", name, got, err, res.ExitCode)
		}
	}
}

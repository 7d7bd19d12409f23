package vm

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
)

// checkStackBlocks fails unless the MSRLT's stack segment holds exactly the
// locals of p's live frames: for local i of the frame at depth d, block
// stack:d.i at the local's address, of its declared type, one element —
// what registering every local at its call would have given — and nothing
// left from a popped frame. Each block must also be found by its
// identification and by its address.
func checkStackBlocks(t *testing.T, p *Process, at string) {
	t.Helper()
	want := map[memory.Address]*msr.Block{}
	for _, f := range p.frames {
		for i, v := range f.Fn.Locals {
			addr := p.VarAddr(f, v)
			want[addr] = &msr.Block{ID: msr.BlockID{Seg: memory.Stack, Major: uint32(f.Depth), Minor: uint32(i)}, Addr: addr, Type: v.Type, Count: 1}
		}
	}
	got := 0
	for _, b := range p.Table.Blocks() {
		if b.ID.Seg != memory.Stack {
			continue
		}
		got++
		w := want[b.Addr]
		if w == nil {
			t.Errorf("%s on %s: stack block %s at %#x is no live frame's local", at, p.Mach.Name, b.ID, uint64(b.Addr))
			continue
		}
		if b.ID != w.ID || b.Type != w.Type || b.Count != 1 {
			t.Errorf("%s on %s: block at %#x is %s %s x%d, want %s %s x1", at, p.Mach.Name, uint64(b.Addr), b.ID, b.Type, b.Count, w.ID, w.Type)
		}
		if byID, ok := p.Table.ByID(w.ID); !ok || byID != b {
			t.Errorf("%s on %s: ByID(%s) does not find the block at %#x", at, p.Mach.Name, w.ID, uint64(b.Addr))
		}
		if found, _, off, err := p.Table.Lookup(p.Mach, b.Addr); err != nil || found != b || off != 0 {
			t.Errorf("%s on %s: Lookup(%#x) = %v +%d, %v", at, p.Mach.Name, uint64(b.Addr), found, off, err)
		}
	}
	if got != len(want) {
		t.Errorf("%s on %s: %d stack blocks registered, want %d", at, p.Mach.Name, got, len(want))
	}
}

// stackSource recurses to a different depth on every pass of main's loop,
// with polls at the loop heads of main and down, and calls leaf (which has
// no poll) between them, so frames are pushed and popped between every two
// stops.
const stackSource = `
struct node { int v; struct node *next; };
struct node *head;

int leaf(int x) {
	int y;
	y = x * 2;
	return y;
}

int down(int n, int *acc) {
	int i, here, r;
	struct node *c;
	here = n;
	for (i = 0; i < 2; i++) {
		here = here + leaf(i);
	}
	c = (struct node *) malloc(sizeof(struct node));
	c->v = here;
	c->next = head;
	head = c;
	*acc = *acc + here;
	if (n == 0) return here;
	r = down(n - 1, &here);
	return r + here;
}

int main() {
	int k, acc, s, s2;
	acc = 0;
	s = 0;
	for (k = 0; k < 5; k++) {
		s2 = down((k * 3) % 4, &acc);
		s = s + s2;
	}
	while (head) {
		s = s + head->v;
		head = head->next;
	}
	return (s + acc) & 127;
}
`

// TestStackBlocksAtEveryStop stops a recursive program at every poll and
// checks that the MSRLT's stack blocks are exactly the live frames' locals,
// on the stopped source and on a process restored from its capture on
// another machine; both then run to the reference exit code.
func TestStackBlocksAtEveryStop(t *testing.T) {
	prog, err := minic.Compile(stackSource, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*arch.Machine{{arch.DEC5000, arch.SPARC20}, {arch.SPARCV9, arch.I386}} {
		src, dst := pair[0], pair[1]
		want, _ := reference(t, prog, src)
		p, err := NewProcess(prog, src)
		if err != nil {
			t.Fatal(err)
		}
		p.PollHook = func(*Process, *minic.Site) bool { return true }
		res, err := p.Run()
		deepest := 0
		for stop := 1; err == nil && res.Migrated; stop++ {
			deepest = max(deepest, len(p.frames))
			checkStackBlocks(t, p, "stop")
			q, err := restoreProcess(prog, dst, stopState(t, p))
			if err != nil {
				t.Fatalf("stop %d: restore on %s: %v", stop, dst.Name, err)
			}
			checkStackBlocks(t, q, "restored")
			if res, err := q.Run(); err != nil || res.Migrated || res.ExitCode != want {
				t.Fatalf("stop %d: restored run on %s = %+v, %v; want exit %d", stop, dst.Name, res, err, want)
			}
			res, err = p.ResumeRun()
		}
		if err != nil || res.ExitCode != want {
			t.Fatalf("%s: run = %+v, %v; want exit %d", src.Name, res, err, want)
		}
		if deepest < 4 {
			t.Errorf("%s: deepest stop at %d frames, want at least 4", src.Name, deepest)
		}
	}
}

// TestMigrateDeepPointerIntoCallerLocal migrates DEC5000 -> SPARC20 from a
// stop six frames deep whose innermost frame holds a pointer into its
// caller's local. The restored pointer must address that local in the
// SPARC20 frame, resolve through the restored table to its stack block,
// and the program must finish as an unmigrated run does.
func TestMigrateDeepPointerIntoCallerLocal(t *testing.T) {
	prog, err := minic.Compile(`
		int chain(int n, int *up) {
			int mine, r;
			mine = n * 10;
			if (n == 0) {
				migrate_here();
				*up = *up + 7;
				return *up;
			}
			r = chain(n - 1, &mine);
			return r + mine + *up;
		}
		int main() {
			int top, r;
			top = 1000;
			r = chain(4, &top);
			return (r + top) & 255;
		}
	`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.DEC5000)
	p, err := NewProcess(prog, arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	p.PollHook = func(*Process, *minic.Site) bool { return true }
	if res, err := p.Run(); err != nil || !res.Migrated {
		t.Fatalf("run to the stop: %+v %v", res, err)
	}
	q, err := restoreProcess(prog, arch.SPARC20, stopState(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.frames) != 6 {
		t.Fatalf("restored %d frames, want 6", len(q.frames))
	}
	checkStackBlocks(t, q, "restored")
	inner, caller := q.frames[5], q.frames[4]
	upAddr, mine := q.VarAddr(inner, inner.Fn.Locals[1]), caller.Fn.Locals[2]
	if inner.Fn.Locals[1].Name != "up" || mine.Name != "mine" {
		t.Fatalf("locals are %s and %s, want up and mine", inner.Fn.Locals[1].Name, mine.Name)
	}
	up, err := q.Space.LoadPtr(upAddr)
	if err != nil {
		t.Fatal(err)
	}
	if up != q.VarAddr(caller, mine) {
		t.Errorf("up = %#x, want the caller's mine at %#x", uint64(up), uint64(q.VarAddr(caller, mine)))
	}
	if b, _, off, err := q.Table.Lookup(q.Mach, up); err != nil || b.ID != (msr.BlockID{Seg: memory.Stack, Major: 5, Minor: 2}) || off != 0 {
		t.Errorf("up resolves to %v +%d, %v; want stack:5.2", b, off, err)
	}
	if res, err := q.Run(); err != nil || res.Migrated || res.ExitCode != want {
		t.Fatalf("restored run = %+v, %v; want exit %d", res, err, want)
	}
}

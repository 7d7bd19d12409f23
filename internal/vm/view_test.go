package vm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
)

// viewsSrc reads, writes, ++es and &-passes locals and globals on both
// sides of its polls: one in main's loop and one in the middle of a callee,
// with main's frame below it.
const viewsSrc = `
int g;
double gd;
int bump(int *p, int d) { *p = *p + d; return *p; }
void work(int *ps, int i) {
	int a, b;
	a = *ps + i;
	migrate_here();
	b = a * 2;
	a += b;
	a++;
	--b;
	*ps = (a + b) & 65535;
	g += a & 15;
	bump(&a, i);
	bump(&g, 1);
	*ps += a & 255;
}
int main() {
	int i, s, t;
	double x;
	s = 1;
	t = 0;
	x = 0.5;
	for (i = 0; i < 24; i++) {
		work(&s, i);
		s = s & 65535;
		t += s % 7;
		t++;
		++g;
		x = x * 0.5 + t;
		bump(&t, 2);
		bump(&g, s & 3);
		gd = gd + x;
		migrate_here();
		s = s - 1;
		g--;
	}
	printf("%d %d %d %d\n", s, t, g, (int) gd);
	return (s + t + g) & 255;
}`

// runViews runs viewsSrc on m, stops it at poll stopAt for a recapture and
// runs it on to the end. With grow set, each of the first polls the hook
// declines writes through the space far below the stack's exposed bytes
// and past the last global, at twice the distance of the poll before, so
// both stores reallocate their backing arrays there: in main, and in the
// middle of work with main's frame below it.
func runViews(t *testing.T, m *arch.Machine, grow bool, stopAt int) (snap []byte, code int, out string) {
	t.Helper()
	prog, err := minic.Compile(viewsSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Stdout, p.MaxSteps = &buf, 10_000_000
	polls := 0
	p.PollHook = func(p *Process, _ *minic.Site) bool {
		polls++
		if grow && polls <= 8 {
			far := memory.Address(64<<10) << polls
			for _, a := range []memory.Address{memory.StackBase - far, memory.GlobalBase + far} {
				if err := p.Space.WriteBytes(a, []byte{0xee, 0xee}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return polls == stopAt
	}
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("run to poll %d: %+v, %v", stopAt, res, err)
	}
	if snap, err = p.Recapture(); err != nil {
		t.Fatal(err)
	}
	if res, err = p.ResumeRun(); err != nil || res.Migrated {
		t.Fatalf("resume to the end: %+v, %v", res, err)
	}
	return snap, res.ExitCode, buf.String()
}

// TestFrameViewsSurviveStackGrowth: a compiled local or global access goes
// through a view its frame or the process took once, so a store that
// regrows the stack or the global segment in the middle of a function must
// leave every later access reading and writing the segment's current
// bytes. A run whose hook regrows both stores agrees with one whose hook
// writes nothing, in its recapture, its output and its exit code; and a
// recursion deep enough to regrow the stack downward through PushFrame
// several times finds each outer frame's locals intact after each return.
func TestFrameViewsSurviveStackGrowth(t *testing.T) {
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9} {
		snap, code, out := runViews(t, m, false, 20)
		gSnap, gCode, gOut := runViews(t, m, true, 20)
		if !bytes.Equal(gSnap, snap) {
			t.Errorf("%s: the recapture after regrowth differs (%d vs %d bytes)", m.Name, len(gSnap), len(snap))
		}
		if gCode != code || gOut != out {
			t.Errorf("%s: after regrowth exit %d, output %q; without, exit %d, output %q", m.Name, gCode, gOut, code, out)
		}
	}

	// Frames of just over 1 KiB, 600 deep: the stack's backing array grows
	// from 64 KiB past 512 KiB, re-based downward at every doubling, while
	// each caller is in the middle of r = down(n - 1). After each return
	// the caller writes a local through its view and reads it back through
	// a pointer, which translates its address afresh, and the other way
	// round.
	const n = 600
	src := fmt.Sprintf(`
int down(int n) {
	int a, r;
	int *pa;
	char pad[1024];
	pa = &a;
	a = n * 3;
	pad[0] = n & 127;
	pad[1023] = (n + 1) & 127;
	if (n == 0) return 0;
	r = down(n - 1);
	a++;
	if (*pa != n * 3 + 1 || pad[0] != (n & 127) || pad[1023] != ((n + 1) & 127)) return -1000000;
	*pa += 1;
	r += a;
	return r;
}
int main() {
	printf("%%d\n", down(%d));
	return 0;
}`, n)
	want := fmt.Sprintf("%d\n", 3*n*(n+1)/2+2*n)
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9} {
		if _, out := run(t, src, m, minic.PollPolicy{}); out != want {
			t.Errorf("%s: down(%d) printed %q, want %q", m.Name, n, out, want)
		}
	}
}

// barrierSrc stores to locals, globals and the heap in every form the
// compiler has: =, op=, pre and post ++ and --, struct assignment,
// parameter stores (and stores to parameters), indexed elements, and
// stores through &local, &global and &heap->field.
const barrierSrc = `
struct pt { int x; double y; struct pt *next; };
int g;
double gd;
int garr[8];
struct pt gs;
struct pt *gp;
void setp(int *p, int v) { *p = v; }
int param(int a, double b, struct pt s) {
	a = a + 1;
	b *= 2.0;
	s.x = a;
	s.y += b;
	a++;
	return a + s.x;
}
int main() {
	int i, k, arr[8];
	double d;
	struct pt s, u;
	struct pt *h;
	h = (struct pt *) malloc(sizeof(struct pt));
	gp = (struct pt *) malloc(4 * sizeof(struct pt));
	h->next = 0;
	for (i = 0; i < 16; i++) {
		migrate_here();
		k = i * 3;
		k += 2;
		k <<= 1;
		k++;
		++k;
		k--;
		--k;
		d = k * 0.5;
		d *= 1.5;
		d++;
		g = k;
		g -= 1;
		g++;
		--g;
		gd += d;
		arr[i & 7] = k;
		arr[(i + 1) & 7] += 3;
		arr[i & 7]++;
		garr[i & 7] = g;
		garr[i & 7] *= 2;
		garr[(i + 3) & 7]--;
		s.x = k;
		s.y = d;
		s.next = h;
		u = s;
		gs = u;
		gs.x++;
		h->x = k;
		h->y += 1.0;
		h->x++;
		++h->x;
		gp[i & 3] = s;
		gp[i & 3].x *= 3;
		*h = u;
		setp(&k, i + 100);
		setp(&g, i + 200);
		setp(&arr[2], i);
		setp(&h->x, i);
		setp(&gs.x, i);
		k = param(k, d, s);
	}
	return (k + g) & 255;
}`

// TestBarrierCoversEveryWrite is the oracle for "no write escapes the
// barrier": with tracking on, every byte of every MSRLT-registered block
// that changes while the process runs from one poll to the next lies in a
// range DirtyRangesSince lists for that run. Locals and globals are written
// through their views' barrier entry, everything else through Writable;
// the program stores to all three segments in every form, and each round
// must see each segment change.
func TestBarrierCoversEveryWrite(t *testing.T) {
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9} {
		p := stopPaused(t, barrierSrc, m)
		p.Space.StartDirtyTracking()
		for round := 1; ; round++ {
			w := p.Space.AdvanceGeneration()
			before := map[memory.Address][]byte{}
			for _, b := range p.Table.Blocks() {
				bs, err := p.Space.ReadBytes(b.Addr, b.Type.SizeOf(m)*b.Count)
				if err != nil {
					t.Fatal(err)
				}
				before[b.Addr] = bs
			}
			res, err := p.ResumeRun()
			if err != nil {
				t.Fatal(err)
			}
			dirty := p.Space.DirtyRangesSince(w)
			var changed [memory.NumSegments]int
			for addr, old := range before {
				now, err := p.Space.ReadBytes(addr, len(old))
				if err != nil {
					t.Fatal(err)
				}
				for i := range old {
					if a := addr + memory.Address(i); old[i] != now[i] {
						if !inDirty(dirty, a) {
							t.Fatalf("%s round %d: byte %#x changed %#x -> %#x outside every dirty range", m.Name, round, uint64(a), old[i], now[i])
						}
						seg, _ := memory.SegmentOf(a)
						changed[seg]++
					}
				}
			}
			if !res.Migrated {
				if round != 16 {
					t.Errorf("%s: the program ended after %d runs between polls, want 16", m.Name, round)
				}
				break
			}
			for seg, n := range changed {
				if n == 0 {
					t.Errorf("%s round %d: no %s byte changed", m.Name, round, memory.Segment(seg))
				}
			}
		}
	}
}

// inDirty reports whether a lies in one of the address-ordered ranges.
func inDirty(ranges []memory.DirtyRange, a memory.Address) bool {
	for _, r := range ranges {
		if a >= r.Lo && a < r.Hi {
			return true
		}
	}
	return false
}

package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
)

// run compiles and executes src on machine m, returning the exit code and
// printf output.
func run(t *testing.T, src string, m *arch.Machine, policy minic.PollPolicy) (int, string) {
	t.Helper()
	prog, err := minic.Compile(src, policy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	p.Stdout = &out
	p.MaxSteps = 50_000_000
	res, err := p.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Migrated {
		t.Fatal("unexpected migration")
	}
	return res.ExitCode, out.String()
}

func runAll(t *testing.T, src string, want int) {
	t.Helper()
	for _, m := range arch.Machines() {
		code, _ := run(t, src, m, minic.PollPolicy{})
		if code != want {
			t.Errorf("%s: exit = %d, want %d", m.Name, code, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	runAll(t, `int main() { return 2 + 3 * 4 - 14 / 2 - 1; }`, 6)
	runAll(t, `int main() { return 17 % 5; }`, 2)
	runAll(t, `int main() { return (1 << 5) | 3 & 1 ^ 2; }`, 35)
	runAll(t, `int main() { return -(-7); }`, 7)
	runAll(t, `int main() { return 100 >> 2; }`, 25)
	runAll(t, `int main() { return ~0 & 255; }`, 255)
}

func TestComparisonsAndLogic(t *testing.T) {
	runAll(t, `int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }`, 4)
	runAll(t, `int main() { return (1 && 2) + (0 || 3) + !0 + !5; }`, 3)
	runAll(t, `int main() { int x; x = 0; (x = 1) && (x = 7); return x; }`, 7)
	runAll(t, `int main() { int x; x = 0; (x = 0) && (x = 7); return x; }`, 0)
	runAll(t, `int main() { return 5 > 3 ? 10 : 20; }`, 10)
}

func TestIntegerWidthSemantics(t *testing.T) {
	// char wraps at 8 bits (signed).
	runAll(t, `int main() { char c; c = 200; return c == -56; }`, 1)
	// unsigned char wraps at 8 bits.
	runAll(t, `int main() { unsigned char c; c = 260; return c; }`, 4)
	// short truncation.
	runAll(t, `int main() { short s; s = 70000; return s == 4464; }`, 1)
	// int arithmetic wraps at 32 bits on every machine.
	runAll(t, `int main() { int x; x = 2147483647; x = x + 1; return x == -2147483647 - 1; }`, 1)
	// unsigned comparison.
	runAll(t, `int main() { unsigned int u; u = 0; u = u - 1; return u > 1000; }`, 1)
}

func TestFloatingPoint(t *testing.T) {
	runAll(t, `int main() { double d; d = 1.5 + 2.25; return (int)(d * 4.0); }`, 15)
	runAll(t, `int main() { float f; f = 0.5f; return (int)(f * 8.0); }`, 4)
	runAll(t, `int main() { double d; d = 7.0; return (int)(d / 2.0); }`, 3)
	runAll(t, `int main() { int i; i = 7; return (int)((double)i / 2.0 * 2.0); }`, 7)
	runAll(t, `int main() { double d; d = -2.5; return (int)fabs(d) + (int)sqrt(16.0); }`, 6)
	// unsigned long is 64 bits wide on LP64: a value in [2^63, 2^64)
	// converts exactly.
	for _, m := range []*arch.Machine{arch.AMD64, arch.SPARCV9} {
		if _, out := run(t, `int main() { printf("%u", (unsigned long)1e19); return 0; }`, m, minic.PollPolicy{}); out != "10000000000000000000" {
			t.Errorf("(unsigned long)1e19 on %s prints %s", m.Name, out)
		}
	}
}

func TestControlFlow(t *testing.T) {
	runAll(t, `int main() {
		int i, s;
		s = 0;
		for (i = 1; i <= 10; i++) s += i;
		return s;
	}`, 55)
	runAll(t, `int main() {
		int n, steps;
		n = 27; steps = 0;
		while (n != 1) {
			if (n % 2) n = 3 * n + 1; else n = n / 2;
			steps++;
		}
		return steps;
	}`, 111)
	runAll(t, `int main() {
		int i, s;
		s = 0;
		for (i = 0; i < 100; i++) {
			if (i == 5) continue;
			if (i == 10) break;
			s += i;
		}
		return s;
	}`, 40)
	runAll(t, `int main() { int i; i = 0; do { i++; } while (i < 5); return i; }`, 5)
}

func TestFunctionsAndRecursion(t *testing.T) {
	runAll(t, `
		int fib(int n) {
			if (n < 2) return n;
			return fib(n-1) + fib(n-2);
		}
		int main() { return fib(15); }
	`, 610)
	runAll(t, `
		int acker(int m, int n) {
			if (m == 0) return n + 1;
			if (n == 0) return acker(m - 1, 1);
			return acker(m - 1, acker(m, n - 1));
		}
		int main() { return acker(2, 3); }
	`, 9)
	runAll(t, `
		void bump(int *p) { *p = *p + 1; }
		int main() { int x; x = 41; bump(&x); return x; }
	`, 42)
}

func TestPointersAndArrays(t *testing.T) {
	runAll(t, `int main() {
		int a[10];
		int i, s;
		int *p;
		for (i = 0; i < 10; i++) a[i] = i * i;
		p = a + 3;
		s = *p + p[1] + *(a + 5);
		return s;
	}`, 9+16+25)
	runAll(t, `int main() {
		int a, *b, **c;
		a = 5;
		b = &a;
		c = &b;
		**c = 9;
		return a;
	}`, 9)
	runAll(t, `int main() {
		double m[3][4];
		int i, j;
		for (i = 0; i < 3; i++)
			for (j = 0; j < 4; j++)
				m[i][j] = i * 10 + j;
		return (int)m[2][3];
	}`, 23)
	runAll(t, `int main() {
		int a[5];
		int *p, *q;
		p = &a[1];
		q = &a[4];
		return (int)(q - p);
	}`, 3)
}

func TestStructs(t *testing.T) {
	runAll(t, `
		struct point { int x; int y; };
		int main() {
			struct point p, q;
			p.x = 3; p.y = 4;
			q = p;
			q.x = 10;
			return p.x + q.x + q.y;
		}
	`, 17)
	runAll(t, `
		struct node { float data; struct node *link; };
		int main() {
			struct node a, b;
			struct node *p;
			a.data = 1.5; a.link = &b;
			b.data = 2.5; b.link = 0;
			p = &a;
			return (int)(p->data + p->link->data);
		}
	`, 4)
	runAll(t, `
		struct mix { char c; double d; short s; };
		int main() {
			struct mix m;
			m.c = 7; m.d = 2.5; m.s = 1000;
			return m.c + (int)m.d + m.s / 100;
		}
	`, 19)
}

func TestMallocFree(t *testing.T) {
	runAll(t, `
		struct node { float data; struct node *link; };
		int main() {
			struct node *head, *cur;
			int i, count;
			head = 0;
			for (i = 0; i < 10; i++) {
				cur = (struct node *) malloc(sizeof(struct node));
				cur->data = i;
				cur->link = head;
				head = cur;
			}
			count = 0;
			while (head) {
				cur = head;
				head = head->link;
				count += (int)cur->data;
				free(cur);
			}
			return count;
		}
	`, 45)
	runAll(t, `
		int main() {
			double *xs;
			int i;
			double s;
			xs = (double *) malloc(100 * sizeof(double));
			for (i = 0; i < 100; i++) xs[i] = 0.5;
			s = 0.0;
			for (i = 0; i < 100; i++) s += xs[i];
			free(xs);
			return (int)s;
		}
	`, 50)
}

func TestGlobals(t *testing.T) {
	runAll(t, `
		int counter;
		int bump(void) { counter++; return counter; }
		int main() {
			bump(); bump(); bump();
			return counter;
		}
	`, 3)
	runAll(t, `
		double table[10];
		int main() {
			int i;
			for (i = 0; i < 10; i++) table[i] = i;
			return (int)table[7];
		}
	`, 7)
}

func TestSizeofMachineDependent(t *testing.T) {
	src := `
		struct s { char c; double d; };
		int main() { return sizeof(struct s) + sizeof(long) + sizeof(int*); }
	`
	code32, _ := run(t, src, arch.Ultra5, minic.PollPolicy{})
	if code32 != 16+4+4 {
		t.Errorf("ultra5: %d", code32)
	}
	code64, _ := run(t, src, arch.AMD64, minic.PollPolicy{})
	if code64 != 16+8+8 {
		t.Errorf("amd64: %d", code64)
	}
	codei386, _ := run(t, src, arch.I386, minic.PollPolicy{})
	if codei386 != 12+4+4 {
		t.Errorf("i386: %d", codei386)
	}
}

func TestPrintf(t *testing.T) {
	_, out := run(t, `
		int main() {
			int i;
			double d;
			char msg[6];
			i = -42;
			d = 3.25;
			msg[0] = 'h'; msg[1] = 'i'; msg[2] = 0;
			printf("i=%d u=%u d=%.2f c=%c s=%s pct=%%\n", i, 7, d, 'x', msg);
			printf("hex=%x\n", 255);
			return 0;
		}
	`, arch.DEC5000, minic.PollPolicy{})
	want := "i=-42 u=7 d=3.25 c=x s=hi pct=%\nhex=ff\n"
	if out != want {
		t.Errorf("printf output = %q, want %q", out, want)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `
		int main() {
			int i, x;
			srand(12345);
			x = 0;
			for (i = 0; i < 10; i++) x ^= rand();
			return x & 255;
		}
	`
	a, _ := run(t, src, arch.DEC5000, minic.PollPolicy{})
	b, _ := run(t, src, arch.SPARCV9, minic.PollPolicy{})
	if a != b {
		t.Errorf("rand differs across machines: %d vs %d", a, b)
	}
	if a == 0 {
		t.Log("rand xor happened to be zero; weak check")
	}
}

func TestExitBuiltin(t *testing.T) {
	runAll(t, `int main() { exit(7); return 1; }`, 7)
	runAll(t, `
		void deep(void) { exit(3); }
		int main() { deep(); return 1; }
	`, 3)
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`int main() { int x; return x / 0; }`, "division by zero"},
		{`int main() { int *p; p = 0; return *p; }`, "null pointer"},
		{`struct n {int x;}; int main() { struct n *p; p = 0; return p->x; }`, "null pointer"},
		{`int main() { int *p; p = (int*)malloc(7); return 0; }`, "not a multiple"},
		{`int main() { int a[2]; free(&a[0]); return 0; }`, "free"},
		{`int main() { while (1) {} return 0; }`, "step limit"},
	}
	for _, c := range cases {
		prog, err := minic.Compile(c.src, minic.PollPolicy{})
		if err != nil {
			t.Errorf("%q: compile: %v", c.src, err)
			continue
		}
		p, err := NewProcess(prog, arch.Ultra5)
		if err != nil {
			t.Fatal(err)
		}
		p.MaxSteps = 100000
		_, err = p.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestStackDiscipline(t *testing.T) {
	src := `
		int depth(int n) {
			int local;
			local = n;
			if (n == 0) return 0;
			return depth(n - 1) + (local > 0);
		}
		int main() { return depth(50); }
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(prog, arch.SPARC20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || res.ExitCode != 50 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	// After main returns, only main's frame remains (never popped by
	// design); all recursion frames must have been unregistered.
	stack := 0
	for _, b := range p.Table.Blocks() {
		if b.ID.Seg == memory.Stack {
			stack++
		}
	}
	if stack != len(prog.Func("main").Locals) {
		t.Errorf("stack blocks remaining = %d, want main's %d", stack, len(prog.Func("main").Locals))
	}
	if err := p.Space.PopFrame(); err != nil {
		t.Errorf("no frame left after run: %v", err)
	}
	if err := p.Space.PopFrame(); !errors.Is(err, memory.ErrStackEmpty) {
		t.Errorf("more than main's frame left after run: %v", err)
	}
}

func TestCharStringHandling(t *testing.T) {
	runAll(t, `
		int strlength(char *s) {
			int n;
			n = 0;
			while (s[n]) n++;
			return n;
		}
		int main() { return strlength("hello world"); }
	`, 11)
}

func TestCompoundAssignOnPointers(t *testing.T) {
	runAll(t, `int main() {
		int a[10];
		int *p;
		int i;
		for (i = 0; i < 10; i++) a[i] = i;
		p = a;
		p += 4;
		p -= 1;
		return *p;
	}`, 3)
}

func TestAggregateParamByValue(t *testing.T) {
	runAll(t, `
		struct pair { int a; int b; };
		int sum(struct pair p) { p.a = 99; return p.a + p.b; }
		int main() {
			struct pair x;
			x.a = 1; x.b = 2;
			sum(x);
			return x.a;
		}
	`, 1)
}

func TestGlobalInitializers(t *testing.T) {
	runAll(t, `
		int base = 40;
		int negative = -8;
		long shifted = 1 << 6;
		double ratio = 2.5;
		float f = 1.5;
		unsigned char b = 260;
		char greeting[8] = "hi";
		int *nullp = 0;
		int main() {
			if (nullp != 0) return 1;
			if (greeting[0] != 'h' || greeting[1] != 'i' || greeting[2] != 0) return 2;
			return base + negative + (int)shifted + (int)(ratio * 2.0) + (int)(f * 2.0) + b;
		}
	`, 40-8+64+5+3+4)
	// Initializers survive migration like any other global state.
	prog, err := minic.Compile(`
		int counter = 100;
		int main() {
			int i;
			for (i = 0; i < 10; i++) {
				counter += i;
			}
			return counter;
		}
	`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.Ultra5)
	code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARCV9, 5)
	if !migrated || code != want {
		t.Errorf("migrated init: code=%d want=%d", code, want)
	}
}

func TestGlobalInitializerErrors(t *testing.T) {
	for _, src := range []string{
		`int x = y; int y; int main() { return 0; }`,
		`int x = f(); int f(void) { return 1; } int main() { return 0; }`,
		`struct s { int a; }; struct s v = 3; int main() { return 0; }`,
		`char buf[2] = "toolong"; int main() { return 0; }`,
		`int p = "str"; int main() { return 0; }`,
		`int *p = 5; int main() { return 0; }`,
	} {
		if _, err := minic.Compile(src, minic.PollPolicy{}); err == nil {
			t.Errorf("%q: invalid global initializer accepted", src)
		}
	}
}

func TestFloatComparisonsAndPointerIncDec(t *testing.T) {
	// Floating comparisons at the common type (compareFloat path).
	runAll(t, `int main() {
		double d; float f;
		d = 1.5; f = 2.5f;
		return (d < f) + (d <= f) + (f > d) + (f >= d) + (d == 1.5) + (d != f);
	}`, 6)
	// Pointer and float increment/decrement (incDec paths).
	runAll(t, `int main() {
		int a[4];
		int *p;
		double d;
		a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
		p = a;
		p++;
		++p;
		p--;
		d = 1.5;
		d++;
		--d;
		return *p + (int)d;
	}`, 2+1)
	// Float postfix.
	runAll(t, `int main() { float f; f = 2.5f; f++; f--; return (int)(f * 2.0); }`, 5)
}

func TestProcessIntrospectionHelpers(t *testing.T) {
	prog, err := minic.Compile(`
		int g;
		int main() { int local; local = 3; g = local; return g; }
	`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(prog, arch.Ultra5)
	if err != nil {
		t.Fatal(err)
	}
	addr, sym, ok := p.GlobalByName("g")
	if !ok || sym.Name != "g" || addr == 0 {
		t.Fatalf("GlobalByName: %v %v %v", addr, sym, ok)
	}
	if _, _, ok := p.GlobalByName("nope"); ok {
		t.Error("phantom global")
	}
	if a2, ok := p.SnapshotAddressOf("g"); !ok || a2 != addr {
		t.Errorf("SnapshotAddressOf(g) = %v %v", a2, ok)
	}
	if _, ok := p.SnapshotAddressOf("missing"); ok {
		t.Error("SnapshotAddressOf of missing name succeeded")
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.SnapshotAddressOf("local"); !ok {
		t.Error("SnapshotAddressOf could not find the frame local")
	}
}

func TestRestoreIntoMisuse(t *testing.T) {
	prog, err := minic.Compile(`int main() { int i; for (i=0;i<2;i++){} return 0; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProcess(prog, arch.Ultra5)
	p.MaxSteps = 1000
	p.PollHook = func(*Process, *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatal("setup")
	}
	state := stopState(t, p)
	// RestoreInto on a process that has already run must be refused.
	if err := p.RestoreInto(state); err == nil {
		t.Error("RestoreInto on a running process succeeded")
	}
	// RestoreElapsed populated on the normal path.
	q, err := restoreProcess(prog, arch.Ultra5, state)
	if err != nil {
		t.Fatal(err)
	}
	if q.RestoreElapsed() <= 0 {
		t.Error("RestoreElapsed not recorded")
	}
	// Recapture on a never-migrated process fails cleanly.
	fresh, _ := NewProcess(prog, arch.Ultra5)
	if _, err := fresh.Recapture(); err == nil {
		t.Error("Recapture of fresh process succeeded")
	}
}

// TestRunRefusesStartedProcess: Run starts main only on a process that has
// not run. A process stopped at a poll, or one that ran to its end, is
// refused with its frames untouched, and the stopped one still resumes to
// the unmigrated exit code.
func TestRunRefusesStartedProcess(t *testing.T) {
	prog, err := minic.Compile(`int main() { int i, s; s = 0; for (i = 0; i < 9; i++) { s += i; } return s; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.Ultra5)
	p, _ := NewProcess(prog, arch.Ultra5)
	p.MaxSteps = 1000
	polls := 0
	p.PollHook = func(*Process, *minic.Site) bool { polls++; return polls == 3 }
	if res, err := p.Run(); err != nil || !res.Migrated {
		t.Fatalf("run to the third poll: %+v, %v", res, err)
	}
	if res, err := p.Run(); err == nil {
		t.Errorf("Run on a stopped process: %+v, want an error", res)
	}
	if len(p.frames) != 1 {
		t.Errorf("stopped process holds %d frames after a refused Run, want 1", len(p.frames))
	}
	res, err := p.ResumeRun()
	if err != nil || res.Migrated || res.ExitCode != want {
		t.Fatalf("resume: %+v, %v; want exit %d", res, err, want)
	}
	if res, err := p.Run(); err == nil {
		t.Errorf("Run on a finished process: %+v, want an error", res)
	}
}

func TestExecutionTrace(t *testing.T) {
	prog, err := minic.Compile(`
		int twice(int x) { return x * 2; }
		int main() {
			int i, v;
			v = 0;
			for (i = 0; i < 2; i++) {
				v = twice(v + 1);
			}
			do { v--; } while (0);
			if (v > 0) { ; } else { break_not_here(); }
			while (v > 4) v--;
			return v;
		}
		void break_not_here(void) { }
	`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProcess(prog, arch.Ultra5)
	var trace bytes.Buffer
	p.TraceTo(&trace)
	p.MaxSteps = 100000
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	for _, want := range []string{"call twice", "[main]", "for", "do-while",
		"if", "while", "return", "poll", "decl"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Traces of an unmigrated run and the concatenation of a migrated
	// run's halves must agree on the executed-statement sequence after
	// the split point; here we just confirm the migration event lands in
	// the trace.
	q, _ := NewProcess(prog, arch.Ultra5)
	var t2 bytes.Buffer
	q.TraceTo(&t2)
	q.MaxSteps = 100000
	q.PollHook = func(*Process, *minic.Site) bool { return true }
	res, err := q.Run()
	if err != nil || !res.Migrated {
		t.Fatal("no migration")
	}
	if !strings.Contains(t2.String(), "stopping at site") {
		t.Errorf("migration event missing from trace:\n%s", t2.String())
	}
}

// SnapshotAddressOf resolves a named variable in the current innermost
// frame or globals, for the tests that inspect process memory.
func (p *Process) SnapshotAddressOf(name string) (memory.Address, bool) {
	if len(p.frames) > 0 {
		f := p.frames[len(p.frames)-1]
		for _, v := range f.Fn.Locals {
			if v.Name == name {
				return p.VarAddr(f, v), true
			}
		}
	}
	addr, _, ok := p.GlobalByName(name)
	return addr, ok
}

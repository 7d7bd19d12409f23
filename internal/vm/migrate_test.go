package vm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/msr"
)

// runMigrating executes src on the source machine until the n-th poll
// check, migrates to the destination machine, resumes, and returns the
// final exit code and the concatenated output of both halves. If the
// program finishes before the n-th poll, it reports (code, out, false).
func runMigrating(t *testing.T, prog *minic.Program, src, dst *arch.Machine, n int) (int, string, bool) {
	t.Helper()
	p, err := NewProcess(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	p.Stdout = &out
	p.MaxSteps = 50_000_000
	polls := 0
	p.PollHook = func(_ *Process, _ *minic.Site) bool {
		polls++
		return polls == n
	}
	res, err := p.Run()
	if err != nil {
		t.Fatalf("source run: %v", err)
	}
	if !res.Migrated {
		return res.ExitCode, out.String(), false
	}

	q, err := RestoreProcess(prog, dst, res.State)
	if err != nil {
		t.Fatalf("restore on %s: %v", dst.Name, err)
	}
	q.Stdout = &out
	q.MaxSteps = 50_000_000
	res2, err := q.Run()
	if err != nil {
		t.Fatalf("resumed run on %s: %v", dst.Name, err)
	}
	if res2.Migrated {
		t.Fatal("unexpected second migration")
	}
	return res2.ExitCode, out.String(), true
}

// compile for tests with loop-head polls.
func compileLoops(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Compile(src, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// reference runs the program without migration.
func reference(t *testing.T, prog *minic.Program, m *arch.Machine) (int, string) {
	t.Helper()
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	p.Stdout = &out
	p.MaxSteps = 50_000_000
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.ExitCode, out.String()
}

func TestMigrateSimpleLoop(t *testing.T) {
	src := `
		int main() {
			int i, s;
			s = 0;
			for (i = 1; i <= 100; i++) {
				s += i;
			}
			return s % 251;
		}
	`
	prog := compileLoops(t, src)
	wantCode, wantOut := reference(t, prog, arch.DEC5000)
	for _, n := range []int{1, 2, 50, 99, 100} {
		code, out, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARC20, n)
		if !migrated {
			t.Fatalf("poll %d: did not migrate", n)
		}
		if code != wantCode || out != wantOut {
			t.Errorf("poll %d: code=%d out=%q, want %d %q", n, code, out, wantCode, wantOut)
		}
	}
}

func TestMigrateAllMachinePairs(t *testing.T) {
	src := `
		int main() {
			int i;
			double acc;
			acc = 0.0;
			for (i = 1; i <= 40; i++) {
				acc += 1.0 / i;
			}
			return (int)(acc * 1000.0);
		}
	`
	prog := compileLoops(t, src)
	want, _ := reference(t, prog, arch.Ultra5)
	for _, sm := range arch.Machines() {
		for _, dm := range arch.Machines() {
			code, _, migrated := runMigrating(t, prog, sm, dm, 20)
			if !migrated {
				t.Fatalf("%s->%s: no migration", sm.Name, dm.Name)
			}
			if code != want {
				t.Errorf("%s -> %s: code = %d, want %d", sm.Name, dm.Name, code, want)
			}
		}
	}
}

func TestMigratePaperExample(t *testing.T) {
	// The example of Figure 1, with the migration point right before the
	// allocation in foo at the fifth iteration, as in Section 3.2. The
	// program then verifies its own pointer structure.
	src := `
		struct node {
			float data;
			struct node *link;
		};
		struct node *first, *last;

		void foo(struct node **p, int **q) {
			migrate_here();
			*p = (struct node *) malloc(sizeof(struct node));
			(*p)->data = 10.0;
			(**q)++;
		}

		int main() {
			int i;
			int a, *b;
			struct node *parray[10];
			a = 1;
			b = &a;
			for (i = 0; i < 10; i++) {
				foo(parray + i, &b);
				first = parray[0];
				last = parray[i];
				first->link = last;
				if (i > 0) parray[i]->link = parray[i-1];
			}
			/* verify: a was incremented through b 10 times, plus initial 1 */
			if (a != 11) return 1;
			/* first->link must be last */
			if (first->link != last) return 2;
			/* chain: parray[9] -> parray[8] -> ... -> parray[1] -> parray[0] */
			for (i = 9; i > 0; i--) {
				if (parray[i]->link != parray[i-1]) return 3;
				if ((int)parray[i]->data != 10) return 4;
			}
			return 42;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{}) // explicit poll only
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.DEC5000)
	if want != 42 {
		t.Fatalf("reference run returned %d", want)
	}
	// Migrate at the 5th call to foo (poll-point hit count 5), exactly
	// the snapshot of Figure 1(b) (four heap nodes exist).
	code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARC20, 5)
	if !migrated {
		t.Fatal("no migration")
	}
	if code != 42 {
		t.Errorf("migrated run returned %d, want 42", code)
	}
}

func TestMigrateNestedCalls(t *testing.T) {
	// Migration occurs three frames deep; every frame has live state.
	src := `
		int depth2(int x) {
			int k;
			k = x * 2;
			migrate_here();
			return k + 1;
		}
		int depth1(int x) {
			int local1;
			local1 = x + 10;
			local1 = depth2(local1);
			return local1 * 2;
		}
		int main() {
			int r, base;
			base = 5;
			r = depth1(base);
			return r + base;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.AMD64)
	code, _, migrated := runMigrating(t, prog, arch.AMD64, arch.SPARC20, 1)
	if !migrated {
		t.Fatal("no migration")
	}
	if code != want {
		t.Errorf("code = %d, want %d", code, want)
	}
}

func TestMigrateRecursionDeep(t *testing.T) {
	// Migration from inside a recursive call chain.
	src := `
		int sumdown(int n) {
			int r;
			if (n == 0) return 0;
			migrate_here();
			r = sumdown(n - 1);
			return r + n;
		}
		int main() {
			int r;
			r = sumdown(20);
			return r;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.I386)
	for _, pollN := range []int{1, 5, 20} {
		code, _, migrated := runMigrating(t, prog, arch.I386, arch.SPARCV9, pollN)
		if !migrated {
			t.Fatalf("poll %d: no migration", pollN)
		}
		if code != want {
			t.Errorf("poll %d: code = %d, want %d", pollN, code, want)
		}
	}
}

func TestMigrateTwice(t *testing.T) {
	// A -> B -> C double migration.
	src := `
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 60; i++) {
				s += i;
			}
			return s % 101;
		}
	`
	prog := compileLoops(t, src)
	want, _ := reference(t, prog, arch.DEC5000)

	p, _ := NewProcess(prog, arch.DEC5000)
	p.MaxSteps = 1_000_000
	polls := 0
	p.PollHook = func(_ *Process, _ *minic.Site) bool { polls++; return polls == 10 }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("first migration failed: %v %v", res, err)
	}

	q, err := RestoreProcess(prog, arch.SPARC20, res.State)
	if err != nil {
		t.Fatal(err)
	}
	q.MaxSteps = 1_000_000
	polls2 := 0
	q.PollHook = func(_ *Process, _ *minic.Site) bool { polls2++; return polls2 == 20 }
	res2, err := q.Run()
	if err != nil || !res2.Migrated {
		t.Fatalf("second migration failed: %v %v", res2, err)
	}

	r, err := RestoreProcess(prog, arch.AMD64, res2.State)
	if err != nil {
		t.Fatal(err)
	}
	r.MaxSteps = 1_000_000
	res3, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.Migrated || res3.ExitCode != want {
		t.Errorf("final result = %+v, want exit %d", res3, want)
	}
}

func TestMigrateLinkedListMidBuild(t *testing.T) {
	src := `
		struct node { float data; struct node *link; };
		struct node *head;
		int main() {
			struct node *cur;
			int i, sum;
			head = 0;
			for (i = 1; i <= 30; i++) {
				cur = (struct node *) malloc(sizeof(struct node));
				cur->data = i;
				cur->link = head;
				head = cur;
			}
			sum = 0;
			cur = head;
			while (cur) {
				sum += (int)cur->data;
				cur = cur->link;
			}
			return sum; /* 465 */
		}
	`
	prog := compileLoops(t, src)
	for _, n := range []int{3, 15, 31, 40} {
		code, _, migrated := runMigrating(t, prog, arch.SPARC20, arch.I386, n)
		if !migrated {
			t.Fatalf("poll %d: finished before migration", n)
		}
		if code != 465 {
			t.Errorf("poll %d: sum = %d, want 465", n, code)
		}
	}
}

func TestMigratePreservesOutput(t *testing.T) {
	src := `
		int main() {
			int i;
			for (i = 0; i < 6; i++) {
				printf("line %d\n", i);
			}
			return 0;
		}
	`
	prog := compileLoops(t, src)
	_, wantOut := reference(t, prog, arch.Ultra5)
	_, out, migrated := runMigrating(t, prog, arch.Ultra5, arch.DEC5000, 4)
	if !migrated {
		t.Fatal("no migration")
	}
	if out != wantOut {
		t.Errorf("output = %q, want %q", out, wantOut)
	}
}

func TestMigrateDanglingFreeConsistency(t *testing.T) {
	// Allocate, free some blocks, migrate: freed blocks must not appear
	// on the destination, and the allocator keeps working after restore.
	src := `
		struct node { float data; struct node *link; };
		int main() {
			struct node *keep[8];
			struct node *temp;
			int i, alive;
			for (i = 0; i < 8; i++) {
				keep[i] = (struct node *) malloc(sizeof(struct node));
				keep[i]->data = i;
				keep[i]->link = 0;
				temp = (struct node *) malloc(sizeof(struct node));
				free(temp);
			}
			alive = 0;
			for (i = 0; i < 8; i++) {
				temp = (struct node *) malloc(sizeof(struct node));
				temp->data = 100;
				alive += (int)keep[i]->data;
				free(temp);
			}
			return alive; /* 0+..+7 = 28 */
		}
	`
	prog := compileLoops(t, src)
	code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARC20, 9)
	if !migrated {
		t.Fatal("no migration")
	}
	if code != 28 {
		t.Errorf("code = %d, want 28", code)
	}
}

func TestMigrateGraphEquivalence(t *testing.T) {
	// Build a shared/cyclic structure, capture the MSR graph before
	// migration and after restore: canonical forms must agree.
	src := `
		struct node { float data; struct node *link; };
		struct node *a, *b;
		int main() {
			int i;
			a = (struct node *) malloc(sizeof(struct node));
			b = (struct node *) malloc(sizeof(struct node));
			a->link = b;
			b->link = a;
			a->data = 1.0;
			b->data = 2.0;
			for (i = 0; i < 3; i++) {
				migrate_here();
			}
			return (int)(a->data + b->link->data);
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewProcess(prog, arch.DEC5000)
	p.MaxSteps = 100000
	p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("migration failed: %v", err)
	}
	srcGraph, err := msr.BuildGraph(p.Space, p.Table)
	if err != nil {
		t.Fatal(err)
	}

	q, err := RestoreProcess(prog, arch.SPARCV9, res.State)
	if err != nil {
		t.Fatal(err)
	}
	dstGraph, err := msr.BuildGraph(q.Space, q.Table)
	if err != nil {
		t.Fatal(err)
	}
	if srcGraph.Canonical() != dstGraph.Canonical() {
		t.Errorf("MSR graphs differ after migration:\n%s\nvs\n%s",
			srcGraph.Canonical(), dstGraph.Canonical())
	}
	q.MaxSteps = 100000
	res2, err := q.Run()
	if err != nil || res2.ExitCode != 2 {
		t.Errorf("resumed result: %+v, %v", res2, err)
	}
}

func TestCaptureStatsPopulated(t *testing.T) {
	src := `
		int main() {
			double xs[1000];
			int i;
			for (i = 0; i < 1000; i++) {
				xs[i] = i;
			}
			return (int)xs[999];
		}
	`
	prog := compileLoops(t, src)
	p, _ := NewProcess(prog, arch.Ultra5)
	p.MaxSteps = 1_000_000
	p.Instrument = true
	polls := 0
	p.PollHook = func(_ *Process, _ *minic.Site) bool { polls++; return polls == 500 }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("%v %v", res, err)
	}
	st := p.CaptureStats()
	if st.Frames != 1 || st.Bytes < 8000 || st.Save.Blocks < 2 {
		t.Errorf("capture stats = %+v", st)
	}
	q, err := RestoreProcess(prog, arch.Ultra5, res.State)
	if err != nil {
		t.Fatal(err)
	}
	if q.RestoreStatsOf().DataBytes < 8000 {
		t.Errorf("restore stats = %+v", q.RestoreStatsOf())
	}
	res2, err := q.Run()
	if err != nil || res2.ExitCode != 999 {
		t.Errorf("resume: %+v %v", res2, err)
	}
}

func TestOverheadBaselineDisablesMachinery(t *testing.T) {
	src := `
		int main() {
			int i, s;
			int *p;
			s = 0;
			for (i = 0; i < 100; i++) {
				p = (int *) malloc(sizeof(int));
				*p = i;
				s += *p;
				free(p);
			}
			return s % 256;
		}
	`
	prog := compileLoops(t, src)

	annotated, _ := NewProcess(prog, arch.Ultra5)
	annotated.MaxSteps = 1_000_000
	resA, err := annotated.Run()
	if err != nil {
		t.Fatal(err)
	}

	baseline, _ := NewProcess(prog, arch.Ultra5)
	baseline.MaxSteps = 1_000_000
	baseline.DisableMigration = true
	resB, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resA.ExitCode != resB.ExitCode {
		t.Errorf("annotated %d != baseline %d", resA.ExitCode, resB.ExitCode)
	}
	if baseline.Stats.PollChecks != 0 {
		t.Errorf("baseline performed %d poll checks", baseline.Stats.PollChecks)
	}
	if baseline.Stats.MSRLTOps != 0 {
		t.Errorf("baseline performed %d MSRLT ops", baseline.Stats.MSRLTOps)
	}
	if annotated.Stats.PollChecks != 100 {
		t.Errorf("annotated poll checks = %d", annotated.Stats.PollChecks)
	}
	if annotated.Stats.MSRLTOps == 0 {
		t.Error("annotated performed no MSRLT ops")
	}
}

func TestMigrateBetweenEveryPollOfComplexProgram(t *testing.T) {
	// Exhaustive: migrate at each successive poll index and verify the
	// final answer every time. The program mixes heap, globals, stack
	// arrays, nested calls, and pointer aliasing.
	src := `
		struct cell { float val; struct cell *next; };
		struct cell *bank;
		int total;

		void push(int v) {
			struct cell *c;
			c = (struct cell *) malloc(sizeof(struct cell));
			c->val = v;
			c->next = bank;
			bank = c;
		}

		int drain(void) {
			int s;
			struct cell *c;
			s = 0;
			while (bank) {
				migrate_here();
				c = bank;
				bank = bank->next;
				s += (int)c->val;
				free(c);
			}
			return s;
		}

		int main() {
			int i, r;
			total = 0;
			for (i = 1; i <= 12; i++) {
				push(i * i);
			}
			r = drain();
			total = r;
			return total % 200; /* 650 % 200 = 50 */
		}
	`
	prog := compileLoops(t, src)
	want, _ := reference(t, prog, arch.Ultra5)
	if want != 50 {
		t.Fatalf("reference = %d", want)
	}
	for n := 1; ; n++ {
		code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARCV9, n)
		if !migrated {
			if n == 1 {
				t.Fatal("never migrated")
			}
			break
		}
		if code != want {
			t.Errorf("migration at poll %d: code = %d, want %d", n, code, want)
		}
		if n > 100 {
			t.Fatal("too many polls")
		}
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	src := `int main() { int i; for (i = 0; i < 5; i++) {} return 0; }`
	prog := compileLoops(t, src)
	p, _ := NewProcess(prog, arch.DEC5000)
	p.MaxSteps = 100000
	p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatal("setup failed")
	}
	// Truncations must be detected.
	for _, cut := range []int{0, 4, 8, len(res.State) - 4} {
		if cut >= len(res.State) {
			continue
		}
		if _, err := RestoreProcess(prog, arch.SPARC20, res.State[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A different program must refuse the stream.
	other, err := minic.Compile(`int main() { return 0; }`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreProcess(other, arch.SPARC20, res.State); err == nil {
		t.Error("state accepted by a different program")
	}
}

func TestMigrationStreamIsMachineIndependent(t *testing.T) {
	// The same logical state captured on two different machines must
	// produce byte-identical streams (the wire format has no machine-
	// specific residue).
	src := `
		struct node { float data; struct node *link; };
		struct node *head;
		int main() {
			int i;
			head = 0;
			for (i = 0; i < 5; i++) {
				struct node *c;
				c = (struct node *) malloc(sizeof(struct node));
				c->data = i;
				c->link = head;
				head = c;
			}
			for (i = 0; i < 1; i++) {
				migrate_here();
			}
			return (int)head->data;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	var states [][]byte
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9, arch.I386} {
		p, _ := NewProcess(prog, m)
		p.MaxSteps = 100000
		p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
		res, err := p.Run()
		if err != nil || !res.Migrated {
			t.Fatalf("%s: %v", m.Name, err)
		}
		states = append(states, res.State)
	}
	for i := 1; i < len(states); i++ {
		if !bytes.Equal(states[0], states[i]) {
			t.Errorf("state stream %d differs from stream 0 (lengths %d vs %d)",
				i, len(states[i]), len(states[0]))
		}
	}
}

func ExampleProcess() {
	prog, err := minic.Compile(`
		int main() {
			printf("hello from MigC\n");
			return 0;
		}
	`, minic.PollPolicy{})
	if err != nil {
		fmt.Println(err)
		return
	}
	p, err := NewProcess(prog, arch.DEC5000)
	if err != nil {
		fmt.Println(err)
		return
	}
	var out bytes.Buffer
	p.Stdout = &out
	if _, err := p.Run(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(out.String())
	// Output: hello from MigC
}

func TestMigratePingPongStability(t *testing.T) {
	// Bounce a process between two heterogeneous machines many times.
	// The state must stay consistent (the final answer correct) and the
	// stream size must stabilize: repeated translation must not distort
	// or grow the state.
	src := `
		struct node { float data; struct node *link; };
		struct node *head;
		int main() {
			int i, sum;
			struct node *c;
			head = 0;
			for (i = 1; i <= 10; i++) {
				c = (struct node *) malloc(sizeof(struct node));
				c->data = i;
				c->link = head;
				head = c;
			}
			sum = 0;
			for (i = 0; i < 40; i++) {
				sum += i;
			}
			c = head;
			while (c) { sum += (int)c->data; c = c->link; }
			return sum; /* 780 + 55 = 835 -> but mod below */
		}
	`
	prog := compileLoops(t, src)
	want, _ := reference(t, prog, arch.Ultra5)

	machines := []*arch.Machine{arch.DEC5000, arch.SPARCV9}
	p, err := NewProcess(prog, machines[0])
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	hops := 0
	var sizes []int
	for {
		polls := 0
		p.PollHook = func(_ *Process, _ *minic.Site) bool {
			polls++
			return polls == 3 // migrate every third poll
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Migrated {
			if res.ExitCode != want {
				t.Errorf("after %d hops: exit = %d, want %d", hops, res.ExitCode, want)
			}
			break
		}
		hops++
		sizes = append(sizes, len(res.State))
		if hops > 50 {
			t.Fatal("did not terminate")
		}
		p, err = RestoreProcess(prog, machines[hops%2], res.State)
		if err != nil {
			t.Fatalf("hop %d: %v", hops, err)
		}
		p.MaxSteps = 1_000_000
	}
	if hops < 5 {
		t.Fatalf("only %d hops", hops)
	}
	// Once the list is fully built, the live state is fixed: identical
	// hop positions must produce identical state sizes (no drift).
	// Compare the tail where the program is inside the summing loop.
	stable := sizes[len(sizes)-3:]
	for _, s := range stable[1:] {
		if s != stable[0] {
			t.Errorf("state size drifts across hops: %v", stable)
		}
	}
}

func TestRecaptureOfRestoredNestedProcess(t *testing.T) {
	// Restore a process whose migration happened frames deep, then
	// immediately re-capture it (without resuming): the re-encoded state
	// must restore again and finish correctly on a third machine.
	src := `
		int inner(int x) {
			int k;
			k = x + 1;
			migrate_here();
			return k * 2;
		}
		int outer(int x) {
			int r;
			r = inner(x + 10);
			return r + 1;
		}
		int main() {
			int v;
			v = outer(5);
			return v;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.Ultra5)

	p, _ := NewProcess(prog, arch.DEC5000)
	p.MaxSteps = 100000
	p.PollHook = func(_ *Process, _ *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: %v", err)
	}
	q, err := RestoreProcess(prog, arch.SPARCV9, res.State)
	if err != nil {
		t.Fatal(err)
	}
	state2, err := q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreProcess(prog, arch.I386, state2)
	if err != nil {
		t.Fatal(err)
	}
	r.MaxSteps = 100000
	final, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if final.ExitCode != want {
		t.Errorf("exit = %d, want %d", final.ExitCode, want)
	}
}

func TestResumeInsideDoWhile(t *testing.T) {
	src := `
		int main() {
			int n, acc;
			n = 8;
			acc = 0;
			do {
				migrate_here();
				acc += n;
				n--;
			} while (n > 0);
			return acc; /* 8+7+...+1 = 36 */
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 8} {
		code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.SPARCV9, n)
		if !migrated || code != 36 {
			t.Errorf("poll %d: code=%d migrated=%v", n, code, migrated)
		}
	}
}

func TestResumeThenBreakAndContinue(t *testing.T) {
	src := `
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 20; i++) {
				migrate_here();
				if (i == 3) continue;
				if (i == 7) break;
				s += i;
			}
			return s; /* 0+1+2+4+5+6 = 18 */
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.Ultra5)
	if want != 18 {
		t.Fatalf("reference = %d", want)
	}
	for n := 1; n <= 8; n++ {
		code, _, migrated := runMigrating(t, prog, arch.I386, arch.SPARC20, n)
		if !migrated || code != want {
			t.Errorf("poll %d: code=%d migrated=%v", n, code, migrated)
		}
	}
}

func TestResumeInsideElseBranch(t *testing.T) {
	src := `
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 6; i++) {
				if (i % 2 == 0) {
					s += i;
				} else {
					migrate_here();
					s += 10 * i;
				}
			}
			return s; /* 0+10+2+30+4+50 = 96 */
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		code, _, migrated := runMigrating(t, prog, arch.AMD64, arch.DEC5000, n)
		if !migrated || code != 96 {
			t.Errorf("poll %d: code=%d migrated=%v", n, code, migrated)
		}
	}
}

func TestResumeAtVoidCallSite(t *testing.T) {
	// A migratory void function called as a bare statement: the call
	// site has no assignment target to re-store on resume.
	src := `
		int total;
		void work(int x) {
			migrate_here();
			total += x;
		}
		int main() {
			int i;
			total = 0;
			for (i = 1; i <= 5; i++) {
				work(i * i);
			}
			return total; /* 1+4+9+16+25 = 55 */
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 5} {
		code, _, migrated := runMigrating(t, prog, arch.SPARC20, arch.AMD64, n)
		if !migrated || code != 55 {
			t.Errorf("poll %d: code=%d migrated=%v", n, code, migrated)
		}
	}
}

func TestResumeWhileLoopMidway(t *testing.T) {
	src := `
		int main() {
			int n, steps;
			n = 100;
			steps = 0;
			while (n > 1) {
				migrate_here();
				if (n % 2) { n = 3 * n + 1; } else { n = n / 2; }
				steps++;
			}
			return steps;
		}
	`
	prog, err := minic.Compile(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := reference(t, prog, arch.Ultra5)
	for _, n := range []int{1, 10, 25} {
		code, _, migrated := runMigrating(t, prog, arch.DEC5000, arch.I386, n)
		if !migrated || code != want {
			t.Errorf("poll %d: code=%d want=%d", n, code, want)
		}
	}
}

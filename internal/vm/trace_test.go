package vm

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
)

// traceSrc holds one of every statement kind: a block, declarations with
// and without an initializer, the empty statement, if with and without
// else, while, do-while, for with each of its three parts omitted in turn
// and all at once, break, continue, return with and without a value, an
// explicit poll, the loop polls the default policy inserts (one into a
// body that is not a block), and migratory call sites as a statement and
// as an assignment, one of them inside a loop.
const traceSrc = `
int total;
void bump(int by) {
	if (by < 0) return;
	total += by;
}
int odd(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i++) {
		if (i % 2 == 0) continue;
		s += i;
	}
	return s;
}
int main() {
	int i = 0;
	int j;
	int k;
	int r;
	;
	{
		j = 2;
		bump(1);
	}
	while (i < 3) {
		if (i == 1) {
			total += 10;
		} else
			total += i;
		i++;
	}
	do {
		j--;
	} while (j > 0);
	for (;;) {
		if (total > 16) break;
		total += 5;
	}
	for (k = 0; ; k++) {
		if (k == 2) break;
	}
	for (; k < 4; ) k++;
	for (k = 0; k < 2; ) {
		r = odd(k + 3);
		k++;
	}
	migrate_here();
	odd(2);
	bump(-1);
	printf("%d %d %d %d\n", total, j, k, r);
	return total + r;
}
`

// traceRun runs p to its end, tracing, and reports its trace, counts and
// outcome. The step limit, far above the program's, stops a runaway.
func traceRun(t *testing.T, b *strings.Builder, p *Process) {
	t.Helper()
	var trace, out bytes.Buffer
	p.TraceTo(&trace)
	p.Stdout = &out
	p.MaxSteps = 100_000
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(trace.String())
	fmt.Fprintf(b, "steps=%d polls=%d calls=%d migrated=%v exit=%d output=%q\n",
		p.Stats.Steps, p.Stats.PollChecks, p.Stats.Calls, res.Migrated, res.ExitCode, out.String())
}

// TestTracePinned holds what the interpreter does statement by statement
// to testdata/trace.golden: the trace and the step, poll and call counts
// of a whole run, the last statement each step limit lets run, and the
// source and destination halves of a DEC5000 -> SPARC20 migration at every
// poll. The golden was written by the statement walker that the compiled
// statements replaced; it is edited by hand, never regenerated.
func TestTracePinned(t *testing.T) {
	prog, err := minic.Compile(traceSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# run on dec5000\n")
	p, err := NewProcess(prog, arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	traceRun(t, &b, p)
	steps, polls := p.Stats.Steps, p.Stats.PollChecks

	b.WriteString("# the last statement each step limit runs\n")
	for n := int64(1); n < steps; n++ {
		q, err := NewProcess(prog, arch.DEC5000)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		q.TraceTo(&trace)
		q.MaxSteps = n
		if _, err := q.Run(); err != ErrStepLimit {
			t.Fatalf("MaxSteps %d: %v, want the step limit", n, err)
		}
		lines := strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n")
		fmt.Fprintf(&b, "%d steps=%d %s\n", n, q.Stats.Steps, strings.TrimSpace(lines[len(lines)-1]))
	}

	for k := int64(1); k <= polls; k++ {
		fmt.Fprintf(&b, "# dec5000 -> sparc20 at poll %d\n", k)
		src, err := NewProcess(prog, arch.DEC5000)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		src.PollHook = func(*Process, *minic.Site) bool { n++; return n == k }
		src.MaxSteps = 100_000
		var out bytes.Buffer
		src.Stdout = &out
		res, err := src.Run()
		if err != nil || !res.Migrated {
			t.Fatalf("poll %d: %+v, %v", k, res, err)
		}
		fmt.Fprintf(&b, "source steps=%d polls=%d calls=%d output=%q\n", src.Stats.Steps, src.Stats.PollChecks, src.Stats.Calls, out.String())
		dst, err := restoreProcess(prog, arch.SPARC20, stopState(t, src))
		if err != nil {
			t.Fatal(err)
		}
		traceRun(t, &b, dst)
	}

	got := b.String()
	want, err := os.ReadFile("testdata/trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) && i < len(wl) && bad < 20; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			bad++
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden has %d", len(gl), len(wl))
	}
}

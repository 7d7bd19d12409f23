package repro

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

const helloSrc = `
	int main() {
		int i, s;
		s = 0;
		for (i = 1; i <= 10; i++) {
			s += i;
		}
		printf("sum=%d\n", s);
		return s;
	}
`

func TestCompileAndRun(t *testing.T) {
	prog, err := Compile(helloSrc, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := prog.Run(Ultra5, &Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 55 || res.Migrated {
		t.Errorf("res = %+v", res)
	}
	if out.String() != "sum=55\n" {
		t.Errorf("out = %q", out.String())
	}
}

func TestCompileError(t *testing.T) {
	_, err := Compile(`int main() { int *p; return (int)p; }`, PollAtLoops)
	if err == nil || !strings.Contains(err.Error(), "migration-unsafe") {
		t.Errorf("err = %v", err)
	}
}

func TestMigrateFacade(t *testing.T) {
	prog, err := Compile(helloSrc, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := prog.Migrate(DEC5000, SPARC20, &Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated || res.ExitCode != 55 {
		t.Errorf("res = %+v", res)
	}
	if res.Timing.Bytes == 0 {
		t.Error("no transfer recorded")
	}
	if out.String() != "sum=55\n" {
		t.Errorf("out = %q", out.String())
	}
	if res.Process.Mach != SPARC20 {
		t.Error("final process on wrong machine")
	}
}

// TestMigrateHomogeneous migrates between two machines of one kind: the
// result carries the exit code, a byte count and a non-zero time.
func TestMigrateHomogeneous(t *testing.T) {
	prog, err := Compile(`
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 50; i++) {
				s += i;
			}
			return s % 97;
		}`, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Migrate(Ultra5, Ultra5, &Options{MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Fatal("no migration")
	}
	if res.ExitCode != (49*50/2)%97 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if res.Timing.Bytes == 0 {
		t.Error("no bytes recorded")
	}
	if res.Timing.Total() <= 0 {
		t.Error("no time recorded")
	}
}

// TestMigrateHeterogeneous moves a float list across the paper's truly
// heterogeneous pair, DEC 5000 (little-endian) to SPARC 20 (big-endian).
func TestMigrateHeterogeneous(t *testing.T) {
	prog, err := Compile(`
		struct node { float data; struct node *link; };
		struct node *head;
		int main() {
			int i, sum;
			struct node *c;
			head = 0;
			for (i = 1; i <= 20; i++) {
				c = (struct node *) malloc(sizeof(struct node));
				c->data = i;
				c->link = head;
				head = c;
			}
			sum = 0;
			c = head;
			while (c) {
				sum += (int)c->data;
				c = c->link;
			}
			return sum % 128; /* 210 % 128 = 82 */
		}`, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Migrate(DEC5000, SPARC20, &Options{MaxSteps: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated || res.ExitCode != 82 {
		t.Errorf("res = %+v", res)
	}
	if res.Process.Mach != SPARC20 {
		t.Error("final process not on destination machine")
	}
}

// TestMigrateNoPolls: a program that reaches no poll-point neither
// migrates nor errors.
func TestMigrateNoPolls(t *testing.T) {
	prog, err := Compile(`int main() { return 9; }`, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Migrate(DEC5000, SPARC20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated {
		t.Error("program without polls migrated")
	}
	if res.ExitCode != 9 || res.Process.Mach != DEC5000 {
		t.Errorf("exit = %d on %s", res.ExitCode, res.Process.Mach.Name)
	}
}

// TestMigrateFailedTransferRollsBack stops a program holding a dangling
// pointer: the handshake succeeds, collection refuses the state, and
// Migrate returns that error — after the session layer rolled the source
// back, so it ran on locally to its end instead of staying paused.
func TestMigrateFailedTransferRollsBack(t *testing.T) {
	prog, err := Compile(`
		int *p;
		int main() {
			p = (int *) malloc(sizeof(int));
			free(p);
			migrate_here();
			printf("ran on\n");
			return 9;
		}`, PollExplicitOnly)
	if err != nil {
		t.Fatal(err)
	}
	rolledBack := obs.Default.Counter("session.rolledback")
	before := rolledBack.Value()
	var out bytes.Buffer
	res, err := prog.Migrate(DEC5000, SPARC20, &Options{Stdout: &out})
	if err == nil || res != nil || !strings.Contains(err.Error(), "unresolvable pointer") {
		t.Fatalf("Migrate = %+v, %v; want the collection error", res, err)
	}
	if n := rolledBack.Value() - before; n != 1 {
		t.Errorf("session.rolledback grew by %d, want 1 (source left paused?)", n)
	}
	if out.String() != "ran on\n" {
		t.Errorf("source output after rollback = %q, want it to have run on", out.String())
	}
}

func TestMachineRegistry(t *testing.T) {
	if len(Machines()) < 7 {
		t.Errorf("machines = %d", len(Machines()))
	}
	if MachineByName("dec5000") != DEC5000 {
		t.Error("lookup failed")
	}
	if MachineByName("vax") != nil {
		t.Error("phantom machine")
	}
}

func TestClusterFacade(t *testing.T) {
	prog, err := Compile(helloSrc, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	c := prog.NewCluster(nil)
	c.AddNode("a", DEC5000)
	c.AddNode("b", SPARCV9)
	h, err := c.Spawn("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Migrate("b")
	o := h.Wait()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.ExitCode != 55 {
		t.Errorf("exit = %d", o.ExitCode)
	}
}

func TestOptionsDefaults(t *testing.T) {
	prog, err := Compile(`int main() { while (1) {} return 0; }`, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	// Default MaxSteps must stop a runaway program eventually; use a
	// small explicit bound to keep the test fast.
	if _, err := prog.Run(Ultra5, &Options{MaxSteps: 1000}); err == nil {
		t.Error("runaway program did not hit the step limit")
	}
}

func TestTraceOption(t *testing.T) {
	prog, err := Compile(helloSrc, PollAtLoops)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if _, err := prog.Run(Ultra5, &Options{Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "[main]") {
		t.Errorf("trace empty or malformed:\n%s", trace.String())
	}
}

func ExampleProgram_Migrate() {
	prog, err := Compile(`
		int main() {
			int i, product;
			product = 1;
			for (i = 1; i <= 5; i++) {
				product *= i;
			}
			printf("5! = %d\n", product);
			return 0;
		}
	`, PollAtLoops)
	if err != nil {
		fmt.Println(err)
		return
	}
	var out bytes.Buffer
	res, err := prog.Migrate(DEC5000, SPARC20, &Options{Stdout: &out})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(out.String())
	fmt.Println("migrated:", res.Migrated, "finished on:", res.Process.Mach.Name)
	// Output:
	// 5! = 120
	// migrated: true finished on: sparc20
}

package vm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
)

// machineSrc computes, in a loop with a poll in its body, values that
// differ between ILP32 and LP64: sizeof(long), an unsigned long that
// wraps at the machine's width, and a struct field's byte offset.
const machineSrc = `
struct rec { char c; long l; double d; };
long widths;
unsigned long wrapped;
long offsets;
long step(long i) {
	struct rec r;
	offsets += (char *)(void *)&r.d - (char *)(void *)&r;
	return i + 1;
}
int main() {
	long i;
	widths = 0;
	wrapped = 0;
	offsets = 0;
	for (i = 0; i < 12; i = step(i)) {
		widths += sizeof(long);
		wrapped = wrapped * 3 + (unsigned long)-1;
	}
	printf("%d %u %d\n", widths, wrapped, offsets);
	return widths;
}
`

// TestCodeIsPerProcessConcurrently runs one program concurrently on an
// ILP32 and an LP64 machine. Each process compiles its own code for its
// own machine, so under -race nothing is shared, and every run prints
// what a lone run on its machine prints.
func TestCodeIsPerProcessConcurrently(t *testing.T) {
	prog, err := minic.Compile(machineSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	machines := []*arch.Machine{arch.DEC5000, arch.SPARCV9}
	want := map[*arch.Machine]string{}
	for _, m := range machines {
		_, want[m] = reference(t, prog, m)
	}
	if want[arch.DEC5000] == want[arch.SPARCV9] {
		t.Fatalf("both machines print %q; the program must tell them apart", want[arch.DEC5000])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		m := machines[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewProcess(prog, m)
			if err != nil {
				errs <- err
				return
			}
			var out bytes.Buffer
			p.Stdout = &out
			if _, err := p.Run(); err != nil {
				errs <- err
				return
			}
			if out.String() != want[m] {
				errs <- fmt.Errorf("%s printed %q, want %q", m.Name, out.String(), want[m])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMigratedCodeIsPerMachine stops the loop on a little-endian ILP32
// machine at each poll in turn and resumes it on a big-endian LP64 one.
// The restored process has compiled nothing; it compiles the code of the
// frames it resumes for its own machine, so every iteration after the
// migration point adds 8, not 4, wraps at 64 bits, and finds r.d at
// offset 16, not 8.
func TestMigratedCodeIsPerMachine(t *testing.T) {
	prog, err := minic.Compile(machineSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 12; k++ {
		p, err := NewProcess(prog, arch.DEC5000)
		if err != nil {
			t.Fatal(err)
		}
		polls := 0
		p.PollHook = func(*Process, *minic.Site) bool { polls++; return polls == k }
		res, err := p.Run()
		if err != nil || !res.Migrated {
			t.Fatalf("poll %d: %+v, %v", k, res, err)
		}
		q, err := restoreProcess(prog, arch.SPARCV9, stopState(t, p))
		if err != nil {
			t.Fatal(err)
		}
		if n := q.CompiledFuncs(); n != 0 {
			t.Fatalf("poll %d: the restored process compiled %d functions before it ran", k, n)
		}
		var out bytes.Buffer
		q.Stdout = &out
		got, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Polls sit at loop heads: k-1 iterations ran on the source.
		done := int64(k - 1)
		widths := 4*done + 8*(12-done)
		if int64(got.ExitCode) != widths {
			t.Errorf("poll %d: widths %d, want %d (%s)", k, got.ExitCode, widths, out.String())
		}
		var w uint64
		for i := int64(0); i < 12; i++ {
			if i < done {
				w = uint64(uint32(w)*3 + 0xffffffff)
			} else {
				w = w*3 + ^uint64(0)
			}
		}
		offsets := 8*done + 16*(12-done) // r.d follows a 4-byte long on ILP32, an 8-byte one on LP64
		if want := fmt.Sprintf("%d %d %d\n", widths, w, offsets); out.String() != want {
			t.Errorf("poll %d: printed %q, want %q", k, out.String(), want)
		}
		if q.CompiledFuncs() != 2 {
			t.Errorf("poll %d: the resumed process compiled %d functions, want main and step", k, q.CompiledFuncs())
		}
	}
}

// TestRestoredShellCompilesNothing: a process compiles a function's code
// the first time it runs the function, so a restored process, and the
// fork a warm responder keeps of one, compile nothing until they run.
func TestRestoredShellCompilesNothing(t *testing.T) {
	p := stopPaused(t, cellSrc, arch.DEC5000)
	if p.CompiledFuncs() == 0 {
		t.Fatal("the source ran, but compiled nothing")
	}
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := restoreProcess(p.Prog, arch.SPARC20, snap)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewProcess(p.Prog, arch.SPARC20)
	if err != nil {
		t.Fatal(err)
	}
	shell := q.NewRestore()
	lr, err := p.Round(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := shell.Apply(lr.Sections, nil); err != nil {
		t.Fatal(err)
	}
	if err := shell.Finish(); err != nil {
		t.Fatal(err)
	}
	fork, err := shell.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Process{"cold restore": cold, "warm shell": q, "kept fork": fork} {
		if n := r.CompiledFuncs(); n != 0 {
			t.Errorf("%s compiled %d functions without running", name, n)
		}
	}
	q.MaxSteps = 1_000_000
	if res, err := q.Run(); err != nil || res.Migrated {
		t.Fatalf("warm shell run: %+v, %v", res, err)
	}
	if q.CompiledFuncs() == 0 || fork.CompiledFuncs() != 0 {
		t.Errorf("after the shell ran: shell %d, fork %d compiled functions", q.CompiledFuncs(), fork.CompiledFuncs())
	}
}

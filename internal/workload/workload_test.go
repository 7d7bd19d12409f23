package workload

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/vm"
)

func engine(t *testing.T, src string) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(src, minic.PollPolicy{}) // explicit polls only
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return e
}

func runPlain(t *testing.T, e *core.Engine, m *arch.Machine) int {
	t.Helper()
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 200_000_000
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated {
		t.Fatal("unexpected migration in plain run")
	}
	return res.ExitCode
}

// migrate runs the program on src to its first poll, moves it to dst over
// the session protocol, and runs it out there.
func migrate(t *testing.T, e *core.Engine, src, dst *arch.Machine) (*vm.Process, int) {
	t.Helper()
	p, err := e.NewProcess(src)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 200_000_000
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Fatal("workload did not migrate")
	}
	q, _, _, err := session.Transfer(e, "workload", p, dst, session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q.MaxSteps = 200_000_000
	if res, err = q.Run(); err != nil {
		t.Fatal(err)
	}
	return q, res.ExitCode
}

func runMigrated(t *testing.T, e *core.Engine, src, dst *arch.Machine) int {
	t.Helper()
	_, code := migrate(t, e, src, dst)
	return code
}

func TestTestPointerPlain(t *testing.T) {
	e := engine(t, TestPointerSource(5))
	for _, m := range arch.Machines() {
		if code := runPlain(t, e, m); code != 0 {
			t.Errorf("%s: test_pointer failed with code %d", m.Name, code)
		}
	}
}

func TestTestPointerHeterogeneousMigration(t *testing.T) {
	e := engine(t, TestPointerSource(6))
	// The paper's pair, both directions, plus 32<->64-bit pairs.
	pairs := [][2]*arch.Machine{
		{arch.DEC5000, arch.SPARC20},
		{arch.SPARC20, arch.DEC5000},
		{arch.I386, arch.SPARCV9},
		{arch.AMD64, arch.Ultra5},
	}
	for _, pr := range pairs {
		if code := runMigrated(t, e, pr[0], pr[1]); code != 0 {
			t.Errorf("%s -> %s: test_pointer failed with code %d", pr[0].Name, pr[1].Name, code)
		}
	}
}

func TestLinpackSolvesPlain(t *testing.T) {
	e := engine(t, LinpackSource(30, true))
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9} {
		if code := runPlain(t, e, m); code != 0 {
			t.Errorf("%s: linpack failed with code %d", m.Name, code)
		}
	}
}

func TestLinpackMigratedMidSolve(t *testing.T) {
	// Migrate right after matgen (the experiment snapshot), then factor
	// and solve on the destination: the answer must still verify, which
	// demonstrates that the high-order floating point accuracy survives
	// the transfer (Section 4.1).
	e := engine(t, LinpackSource(40, true))
	if code := runMigrated(t, e, arch.DEC5000, arch.SPARC20); code != 0 {
		t.Errorf("linpack after migration failed with code %d", code)
	}
	if code := runMigrated(t, e, arch.SPARCV9, arch.I386); code != 0 {
		t.Errorf("linpack 64->32 after migration failed with code %d", code)
	}
}

func TestLinpackNoSolveStopsAtMigration(t *testing.T) {
	e := engine(t, LinpackSource(20, false))
	if code := runPlain(t, e, arch.Ultra5); code != 0 {
		t.Errorf("code = %d", code)
	}
}

func TestBitonicPlain(t *testing.T) {
	e := engine(t, BitonicSource(500, 42))
	for _, m := range []*arch.Machine{arch.Ultra5, arch.I386} {
		if code := runPlain(t, e, m); code != 0 {
			t.Errorf("%s: bitonic failed with code %d", m.Name, code)
		}
	}
}

func TestBitonicMigrated(t *testing.T) {
	e := engine(t, BitonicSource(800, 7))
	if code := runMigrated(t, e, arch.DEC5000, arch.SPARC20); code != 0 {
		t.Errorf("bitonic after migration failed with code %d", code)
	}
}

func TestBitonicTreeShapeSurvives(t *testing.T) {
	// The tree block count on the destination must equal the node count.
	e := engine(t, BitonicSource(300, 3))
	q, code := migrate(t, e, arch.DEC5000, arch.SPARCV9)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if q.Space.HeapLive() != 300 {
		t.Errorf("heap blocks on destination = %d, want 300", q.Space.HeapLive())
	}
}

func TestKernelOverheadSource(t *testing.T) {
	src := KernelOverheadSource(100, 50)
	// Annotated at loop heads everywhere.
	eAll, err := core.NewEngine(src, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	pAll, _ := eAll.NewProcess(arch.Ultra5)
	pAll.MaxSteps = 10_000_000
	resAll, err := pAll.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Poll checks: 100 outer + 100*50 inner.
	if pAll.Stats.PollChecks != 100+100*50 {
		t.Errorf("inner-annotated poll checks = %d", pAll.Stats.PollChecks)
	}

	// Annotated only in main.
	eMain, err := core.NewEngine(src, minic.PollPolicy{Loops: true, Funcs: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	pMain, _ := eMain.NewProcess(arch.Ultra5)
	pMain.MaxSteps = 10_000_000
	resMain, err := pMain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pMain.Stats.PollChecks != 100 {
		t.Errorf("outer-annotated poll checks = %d", pMain.Stats.PollChecks)
	}
	if resAll.ExitCode != resMain.ExitCode {
		t.Errorf("results differ: %d vs %d", resAll.ExitCode, resMain.ExitCode)
	}
}

func TestAllocOverheadSources(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		e, err := core.NewEngine(AllocOverheadSource(500, pooled), minic.DefaultPolicy)
		if err != nil {
			t.Fatalf("pooled=%v: %v", pooled, err)
		}
		p, _ := e.NewProcess(arch.Ultra5)
		p.MaxSteps = 10_000_000
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := (499 * 500 / 2) % 1000
		if res.ExitCode != want {
			t.Errorf("pooled=%v: exit = %d, want %d", pooled, res.ExitCode, want)
		}
		if pooled && p.Stats.MSRLTOps > 100 {
			t.Errorf("pooled variant performed %d MSRLT ops", p.Stats.MSRLTOps)
		}
		if !pooled && p.Stats.MSRLTOps < 1000 {
			t.Errorf("per-block variant performed only %d MSRLT ops", p.Stats.MSRLTOps)
		}
	}
}

// TestRandomProgramDifferential is the system-level property test: for
// each random program, the plain run and every migrate-at-poll-k run on
// heterogeneous machine pairs must agree on the exit code.
func TestRandomProgramDifferential(t *testing.T) {
	machines := []*arch.Machine{arch.DEC5000, arch.SPARC20, arch.AMD64, arch.I386, arch.SPARCV9}
	for seed := int64(0); seed < 12; seed++ {
		src := RandomProgram(seed)
		e, err := core.NewEngine(src, minic.DefaultPolicy)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		// Reference run.
		ref, err := e.NewProcess(arch.Ultra5)
		if err != nil {
			t.Fatal(err)
		}
		ref.MaxSteps = 20_000_000
		refRes, err := ref.Run()
		if err != nil {
			t.Fatalf("seed %d: reference: %v\n%s", seed, err, src)
		}
		// Count the polls so migration points cover the whole run.
		totalPolls := ref.Stats.PollChecks
		if totalPolls == 0 {
			continue
		}
		// Probe a handful of migration points across the run.
		probes := []int64{1, totalPolls / 2, totalPolls}
		for pi, probe := range probes {
			if probe < 1 {
				continue
			}
			srcM := machines[(int(seed)+pi)%len(machines)]
			dstM := machines[(int(seed)+pi+2)%len(machines)]
			p, err := e.NewProcess(srcM)
			if err != nil {
				t.Fatal(err)
			}
			p.MaxSteps = 20_000_000
			count := int64(0)
			p.PollHook = func(*vm.Process, *minic.Site) bool {
				count++
				return count == probe
			}
			res, err := p.Run()
			if err != nil {
				t.Fatalf("seed %d probe %d: %v\n%s", seed, probe, err, src)
			}
			code := res.ExitCode
			if res.Migrated {
				q, _, _, err := session.Transfer(e, "random", p, dstM, session.Config{})
				if err != nil {
					t.Fatalf("seed %d probe %d restore: %v", seed, probe, err)
				}
				q.MaxSteps = 20_000_000
				res2, err := q.Run()
				if err != nil {
					t.Fatalf("seed %d probe %d resume: %v", seed, probe, err)
				}
				code = res2.ExitCode
			}
			if code != refRes.ExitCode {
				t.Errorf("seed %d: migrated at poll %d (%s->%s) = %d, reference = %d\n%s",
					seed, probe, srcM.Name, dstM.Name, code, refRes.ExitCode, src)
			}
		}
	}
}

func TestJacobiMigratesMidConvergence(t *testing.T) {
	src := JacobiSource(24, 30)
	e, err := core.NewEngine(src, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference without migration.
	want := runPlain(t, e, arch.Ultra5)

	// Migrate at several different sweep boundaries across machine
	// pairs; the converged checksum must match the unmigrated run.
	pairs := [][2]*arch.Machine{
		{arch.DEC5000, arch.SPARC20},
		{arch.SPARCV9, arch.I386},
		{arch.AMD64, arch.Ultra5},
	}
	for pi, pr := range pairs {
		probe := int64(1 + pi*10)
		p, err := e.NewProcess(pr[0])
		if err != nil {
			t.Fatal(err)
		}
		p.MaxSteps = 200_000_000
		count := int64(0)
		p.PollHook = func(*vm.Process, *minic.Site) bool {
			count++
			return count == probe
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Migrated {
			t.Fatalf("pair %d: no migration at sweep %d", pi, probe)
		}
		q, _, _, err := session.Transfer(e, "jacobi", p, pr[1], session.Config{})
		if err != nil {
			t.Fatal(err)
		}
		q.MaxSteps = 200_000_000
		res2, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res2.ExitCode != want {
			t.Errorf("pair %d (%s->%s at sweep %d): checksum code %d, want %d",
				pi, pr[0].Name, pr[1].Name, probe, res2.ExitCode, want)
		}
	}
}

// TestWriteRateSource checks the tunable-write-rate workload at both ends
// of the knob: it compiles, polls once per round, and the checksum
// invariant holds through an uninterrupted run.
func TestWriteRateSource(t *testing.T) {
	for _, k := range []int{1, 4} {
		prog, err := minic.Compile(WriteRateSource(4, 10, k, 3), minic.PollPolicy{})
		if err != nil {
			t.Fatalf("k=%d compile: %v", k, err)
		}
		p, err := vm.NewProcess(prog, arch.Ultra5)
		if err != nil {
			t.Fatal(err)
		}
		p.MaxSteps = 10_000_000
		polls := 0
		p.PollHook = func(_ *vm.Process, _ *minic.Site) bool { polls++; return false }
		res, err := p.Run()
		if err != nil {
			t.Fatalf("k=%d run: %v", k, err)
		}
		if res.ExitCode != 0 {
			t.Errorf("k=%d exit %d, want 0 (checksum invariant)", k, res.ExitCode)
		}
		if polls != 3 {
			t.Errorf("k=%d polled %d times, want one per round (3)", k, polls)
		}
	}
}

package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vm"
)

// slowLoop polls at the head of each of its 2000 iterations. The tests
// never race it: a process that is to be migrated is spawned held at its
// first poll (Cluster.HoldAt), given its requests by poll number, and only
// then released.
const slowLoop = `
	int main() {
		int i, s;
		s = 0;
		for (i = 0; i < 2000; i++) {
			s = (s + i) % 9973;
		}
		return s;
	}
`

func testCluster(t *testing.T, src string) *Cluster {
	t.Helper()
	e, err := core.NewEngine(src, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(e)
	c.Configure = func(p *vm.Process) { p.MaxSteps = 50_000_000 }
	c.AddNode("dec", arch.DEC5000)
	c.AddNode("sparc", arch.SPARC20)
	c.AddNode("ultra", arch.Ultra5)
	return c
}

// spawnHeld spawns a process on node and returns once it is parked at its
// first poll: it has run nothing the scheduler could have missed.
func spawnHeld(t *testing.T, c *Cluster, node string) *Handle {
	t.Helper()
	c.HoldAt = 1
	h, err := c.Spawn(node)
	if err != nil {
		t.Fatal(err)
	}
	h.AwaitHold()
	return h
}

func TestSpawnAndComplete(t *testing.T) {
	c := testCluster(t, slowLoop)
	h, err := c.Spawn("dec")
	if err != nil {
		t.Fatal(err)
	}
	o := h.Wait()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Node != "dec" || len(o.Migrations) != 0 {
		t.Errorf("outcome = %+v", o)
	}
	if c.Node("dec").Active() != 0 {
		t.Error("node load not released")
	}
}

func TestSpawnUnknownNode(t *testing.T) {
	c := testCluster(t, slowLoop)
	if _, err := c.Spawn("nebula"); err == nil {
		t.Error("spawn on unknown node succeeded")
	}
}

// TestScheduledMigration: the process finishes on the destination, and the
// migration encodes its state once, in the session's send. The poll that
// grants it stops the process without capturing.
func TestScheduledMigration(t *testing.T) {
	c := testCluster(t, slowLoop)
	captures := obs.Default.Counter("vm.captures")
	before := captures.Value()
	h := spawnHeld(t, c, "dec")
	h.Migrate("sparc")
	h.Release()
	o := h.Wait()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Node != "sparc" {
		t.Errorf("finished on %s, want sparc", o.Node)
	}
	if len(o.Migrations) != 1 || o.Migrations[0].From != "dec" || o.Migrations[0].To != "sparc" {
		t.Fatalf("migrations = %+v", o.Migrations)
	}
	if o.Migrations[0].Timing.Bytes == 0 {
		t.Error("no transfer bytes recorded")
	}
	if got := captures.Value() - before; got != 1 {
		t.Errorf("vm.captures rose by %d over one scheduled migration, want 1", got)
	}
}

func TestMigrationChainAcrossThreeNodes(t *testing.T) {
	// A chain by logical time: dec -> sparc at poll 1, sparc -> ultra at
	// poll 40, both filed before the process runs.
	c := testCluster(t, slowLoop)
	h := spawnHeld(t, c, "dec")
	h.MigrateAt(1, "sparc")
	h.MigrateAt(40, "ultra")
	h.Release()
	o := h.Wait()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if len(o.Migrations) != 2 || o.Node != "ultra" {
		t.Fatalf("finished on %s after %+v, want dec -> sparc -> ultra", o.Node, o.Migrations)
	}
	if o.Migrations[0].From != "dec" || o.Migrations[0].To != "sparc" {
		t.Errorf("first hop = %+v", o.Migrations[0])
	}
	if o.Migrations[1].From != "sparc" || o.Migrations[1].To != "ultra" {
		t.Errorf("second hop = %+v", o.Migrations[1])
	}
}

func TestMigrateAtPassedPollIsNeverServed(t *testing.T) {
	c := testCluster(t, slowLoop)
	c.HoldAt = 5
	h, err := c.Spawn("dec")
	if err != nil {
		t.Fatal(err)
	}
	h.AwaitHold()
	h.MigrateAt(3, "sparc") // poll 3 is behind the process
	h.Release()
	if o := h.Wait(); o.Err != nil || o.Node != "dec" || len(o.Migrations) != 0 {
		t.Errorf("outcome = %+v, want an unmigrated run on dec", o)
	}
}

func TestMigrationToUnknownNodeFails(t *testing.T) {
	c := testCluster(t, slowLoop)
	h := spawnHeld(t, c, "dec")
	h.Migrate("atlantis")
	h.Release()
	o := h.Wait()
	if o.Err == nil {
		t.Error("migration to unknown node did not error")
	}
}

func TestResultCorrectAcrossMigration(t *testing.T) {
	// Compare against a run without migration.
	e, err := core.NewEngine(slowLoop, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := e.NewProcess(arch.Ultra5)
	p.MaxSteps = 50_000_000
	ref, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}

	c := testCluster(t, slowLoop)
	h := spawnHeld(t, c, "dec")
	h.MigrateAt(1000, "ultra") // mid-run: half the loop on each machine
	h.Release()
	o := h.Wait()
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if len(o.Migrations) != 1 || o.Node != "ultra" {
		t.Fatalf("finished on %s after %+v, want one hop to ultra", o.Node, o.Migrations)
	}
	if o.ExitCode != ref.ExitCode {
		t.Errorf("migrated exit = %d, reference = %d", o.ExitCode, ref.ExitCode)
	}
}

func TestRebalance(t *testing.T) {
	c := testCluster(t, slowLoop)
	var handles []*Handle
	for i := 0; i < 6; i++ {
		handles = append(handles, spawnHeld(t, c, "dec"))
	}
	if c.Node("dec").Active() != 6 {
		t.Fatalf("dec load = %d", c.Node("dec").Active())
	}
	moved := c.Rebalance(handles)
	if len(moved) != 4 { // 6,0,0 -> 2,2,2
		t.Errorf("rebalance moved %d processes, want 4", len(moved))
	}
	for _, h := range handles {
		h.Release()
	}
	finishedOn := map[string]int{}
	for _, h := range handles {
		o := h.Wait()
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		finishedOn[o.Node]++
	}
	if finishedOn["dec"] != 2 || finishedOn["sparc"] != 2 || finishedOn["ultra"] != 2 {
		t.Errorf("processes finished on %v, want two per node", finishedOn)
	}
	// After everything finishes, all loads return to zero.
	for _, n := range c.Nodes() {
		if c.Node(n).Active() != 0 {
			t.Errorf("node %s load = %d after completion", n, c.Node(n).Active())
		}
	}
}

func TestManyConcurrentProcesses(t *testing.T) {
	c := testCluster(t, slowLoop)
	var handles []*Handle
	targets := []string{"sparc", "ultra", "dec"}
	for i := 0; i < 12; i++ {
		h := spawnHeld(t, c, c.Nodes()[i%3])
		h.MigrateAt(1+100*i, targets[i%3])
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.Release()
	}
	for i, h := range handles {
		o := h.Wait()
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if len(o.Migrations) != 1 || o.Node != targets[i%3] {
			t.Errorf("process %d finished on %s after %+v, want one hop to %s", i, o.Node, o.Migrations, targets[i%3])
		}
	}
}

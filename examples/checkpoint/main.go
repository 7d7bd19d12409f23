// Checkpoint/restart: the same data collection and restoration machinery
// that migrates a process also checkpoints it. This example runs a long
// computation and checkpoints it periodically into a content-addressed
// store (internal/store) — each checkpoint a small manifest chaining to
// its parent, with unchanged section bodies stored once. The process then
// "crashes", and the chain head is restored — on a machine with a
// different architecture than the one that wrote the checkpoints.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
)

const job = `
	/* accumulate a slowly converging series */
	double partial;
	int done_iterations = 0;
	int main() {
		int i, target;
		target = 200000;
		partial = 0.0;
		for (i = 1; i <= target; i++) {
			partial += 1.0 / (1.0 * i * i);
			done_iterations = i;
		}
		printf("sum of 1/n^2 over %d terms = %.6f\n", target, partial);
		return 0;
	}
`

func main() {
	engine, err := core.NewEngine(job, minic.DefaultPolicy)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, obs.NewRegistry())
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: run on a little-endian machine, checkpointing into the
	// store every 50000 iterations. Each hop restores from the captured
	// state, exactly as a real checkpoint-resume cycle would.
	p, err := engine.NewProcess(arch.AMD64)
	if err != nil {
		log.Fatal(err)
	}
	iterations := 0
	for hops := 0; hops < 3; hops++ {
		p.Stdout = os.Stdout
		p.MaxSteps = 100_000_000
		polls := 0
		p.PollHook = func(*vm.Process, *minic.Site) bool {
			polls++
			return polls == 50_000
		}
		res, err := p.Run()
		if err != nil {
			log.Fatal(err)
		}
		if !res.Migrated {
			log.Fatal("job finished before its checkpoints were done")
		}
		iterations += polls
		m, h, cst, err := engine.CheckpointProcess(st, p, p.Mach, "job")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpointed on %s after %d iterations: seq %d %s (%s)\n",
			p.Mach.Name, iterations, m.Seq, h.Short(), cst)
		if p, err = vm.RestoreProcess(engine.Prog, p.Mach, res.State); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("... simulated crash; process gone ...")

	// Phase 2: restart the chain head from the store on a big-endian
	// machine. Every section body is re-verified against its content hash
	// and CRC on the way back in.
	head, ok, err := st.Ref("job")
	if err != nil || !ok {
		log.Fatalf("chain head: ok=%v err=%v", ok, err)
	}
	chain, err := st.Chain(head)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store holds a chain of %d checkpoints; restarting from seq %d\n",
		len(chain), chain[0].Seq)
	q, _, err := engine.RestoreFromStore(st, head, arch.SPARCV9)
	if err != nil {
		log.Fatal(err)
	}
	q.Stdout = os.Stdout
	q.MaxSteps = 100_000_000
	final, err := q.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted on %s, completed with exit code %d\n", q.Mach.Name, final.ExitCode)
}

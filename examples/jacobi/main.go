// Jacobi relay: an iterative heat-diffusion solve that hops to a different
// machine every few sweeps — the "reconfigurable computing" scenario from
// the paper's introduction, where a long-running computation follows
// whatever capacity is available. The final checksum is compared against
// an unmigrated run to show the numerics are unaffected by eight
// migrations across four architectures, each one a migration session over
// an in-memory pipe.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	const grid, sweeps = 32, 40
	engine, err := core.NewEngine(workload.JacobiSource(grid, sweeps), minic.PollPolicy{})
	if err != nil {
		log.Fatal(err)
	}

	// Reference run, no migration.
	ref, err := engine.NewProcess(arch.Ultra5)
	if err != nil {
		log.Fatal(err)
	}
	ref.MaxSteps = 500_000_000
	refRes, err := ref.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Relay run: migrate every 5 sweeps, rotating through machines.
	route := []*arch.Machine{arch.DEC5000, arch.SPARC20, arch.I386, arch.SPARCV9}
	p, err := engine.NewProcess(route[0])
	if err != nil {
		log.Fatal(err)
	}
	hops := 0
	for {
		p.MaxSteps = 500_000_000
		sweepsHere := 0
		p.PollHook = func(*vm.Process, *minic.Site) bool {
			sweepsHere++
			return sweepsHere == 5
		}
		res, err := p.Run()
		if err != nil {
			log.Fatal(err)
		}
		if !res.Migrated {
			fmt.Printf("converged on %s after %d migrations\n", p.Mach.Name, hops)
			if res.ExitCode != refRes.ExitCode {
				log.Fatalf("checksum diverged: relay %d vs reference %d",
					res.ExitCode, refRes.ExitCode)
			}
			fmt.Printf("checksum matches the unmigrated reference (code %d)\n", res.ExitCode)
			return
		}
		hops++
		next := route[hops%len(route)]
		q, _, timing, err := session.Transfer(engine, "jacobi", p, next, session.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hop %d: %s -> %s, %s\n", hops, p.Mach.Name, next.Name, timing)
		p = q
	}
}

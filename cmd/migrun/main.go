// migrun executes a MigC program on a simulated machine, optionally
// migrating it through a sequence of machines while it runs.
//
// Usage:
//
//	migrun [flags] program.mc
//
// Flags:
//
//	-machine NAME       machine to run on (default ultra5)
//	-hops a,b,c         migrate through these machines at successive
//	                    poll-points, each hop a session over an
//	                    in-memory pipe, finishing on the last
//	-max-steps N        statement budget (default 4e9)
//	-timing             print migration timing decomposition
//	-stats              print run-time statistics
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/vm"
)

func main() {
	machineName := flag.String("machine", "ultra5", "machine to run on")
	hops := flag.String("hops", "", "comma-separated machines to migrate through")
	maxSteps := flag.Int64("max-steps", 4_000_000_000, "statement budget")
	timing := flag.Bool("timing", false, "print migration timing")
	showStats := flag.Bool("stats", false, "print run-time statistics")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: migrun [flags] program.mc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "migrun:", err)
		os.Exit(1)
	}
	start := arch.Lookup(*machineName)
	if start == nil {
		fmt.Fprintf(os.Stderr, "migrun: unknown machine %q\n", *machineName)
		os.Exit(2)
	}
	var route []*arch.Machine
	if *hops != "" {
		for _, name := range strings.Split(*hops, ",") {
			m := arch.Lookup(strings.TrimSpace(name))
			if m == nil {
				fmt.Fprintf(os.Stderr, "migrun: unknown machine %q\n", name)
				os.Exit(2)
			}
			route = append(route, m)
		}
	}

	e, err := core.NewEngine(string(src), minic.DefaultPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}

	p, err := e.NewProcess(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migrun:", err)
		os.Exit(1)
	}
	cur := start
	configure := func(q *vm.Process) {
		q.Stdout = os.Stdout
		q.MaxSteps = *maxSteps
	}
	configure(p)

	for {
		if len(route) > 0 {
			var req core.Request
			req.Raise()
			p.PollHook = req.Hook()
		} else {
			p.PollHook = nil
		}
		res, err := p.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "migrun:", err)
			os.Exit(1)
		}
		if !res.Migrated {
			if *showStats {
				fmt.Fprintf(os.Stderr, "[%s] steps=%d polls=%d calls=%d msrlt-ops=%d heap-live=%d\n",
					cur.Name, p.Stats.Steps, p.Stats.PollChecks, p.Stats.Calls,
					p.Stats.MSRLTOps, p.Space.HeapLive())
			}
			os.Exit(res.ExitCode)
		}
		dst := route[0]
		route = route[1:]
		q, mig, err := session.Transfer(e, flag.Arg(0), p, dst, session.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "migrun: migrate:", err)
			os.Exit(1)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "[migrated %s -> %s: %s]\n", cur.Name, dst.Name, mig.Timing)
		}
		configure(q)
		p = q
		cur = dst
	}
}

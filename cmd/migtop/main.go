// migtop renders a fleet roll-up from N migd telemetry endpoints: one
// row per node (readiness, pool occupancy, session counts, windowed
// accept/fail rates, latency quantiles, SLO burn) plus fleet-wide totals
// with exact bucket-wise merged histograms.
//
// One-shot table (CI smoke, scripts):
//
//	migtop -once -nodes 127.0.0.1:9102,127.0.0.1:9103
//
// Watch mode (the default) repaints every -interval, computing per-window
// rates from consecutive scrapes:
//
//	migtop -nodes 127.0.0.1:9102,127.0.0.1:9103 -interval 2s
//
// The node addresses are migd -pprof listeners; any server exposing the
// obs /metrics JSON report (schema repro-obs/2) works, with migd nodes
// also contributing their identity header and readiness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated node telemetry addresses (host:port or URL)")
	once := flag.Bool("once", false, "scrape once, print the roll-up, and exit")
	interval := flag.Duration("interval", 2*time.Second, "watch mode: scrape interval")
	jsonOut := flag.Bool("json", false, "with -once: emit the roll-up as JSON instead of the table")
	flag.Parse()

	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "migtop: -nodes is required (e.g. -nodes 127.0.0.1:9102,127.0.0.1:9103)")
		os.Exit(2)
	}
	var targets []fleet.Target
	for _, addr := range strings.Split(*nodes, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			targets = append(targets, fleet.NormalizeTarget(addr))
		}
	}
	sc := &fleet.Scraper{Targets: targets}

	render := func() *fleet.Rollup {
		sc.Scrape(context.Background())
		return sc.Rollup()
	}

	if *once {
		r := render()
		if *jsonOut {
			b, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "migtop:", err)
				os.Exit(1)
			}
			os.Stdout.Write(append(b, '\n'))
		} else {
			r.WriteTable(os.Stdout)
		}
		// Exit nonzero only when no node answered at all: a partial fleet
		// is a roll-up with visible down rows, not a scrape failure.
		if r.Nodes > 0 && len(r.Rows) == reachable(r) {
			return
		}
		if reachable(r) == 0 {
			os.Exit(1)
		}
		return
	}

	for {
		r := render()
		// ANSI home+clear: repaint in place like top.
		fmt.Print("\033[H\033[2J")
		fmt.Printf("migtop  %s  (%d nodes, every %s)\n\n",
			time.Now().Format("15:04:05"), len(targets), *interval)
		r.WriteTable(os.Stdout)
		time.Sleep(*interval)
	}
}

// reachable counts rows that answered the scrape.
func reachable(r *fleet.Rollup) int {
	n := 0
	for _, row := range r.Rows {
		if row.Err == "" {
			n++
		}
	}
	return n
}

// migbench regenerates the tables and figures of the paper's evaluation
// (Section 4) and prints them in the paper's format. It is a loop over
// the registry in internal/exper: each entry runs, prints, and is judged
// by its own gate. Wall-clock claims about a migration belong to the
// benchmark (`go run -C bench repro/bench`), not here. The experiment
// index is in DESIGN.md §4; EXPERIMENTS.md records the comparison against
// the published numbers.
//
// `migbench -h` lists the flags and every -exp value. Exit status: 0 when
// every selected gate passes, 1 when one fails or an experiment errors,
// 2 on a bad command line (including an unknown -exp name).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exper"
	"repro/internal/obs"
)

func main() {
	expName := flag.String("exp", "all", "experiment: all, "+strings.Join(exper.Names(), ", "))
	quick := flag.Bool("quick", false, "reduced problem sizes")
	repeats := flag.Int("repeats", 3, "E6b repetitions; raises the migration and search timings' 30-call floor")
	tsvDir := flag.String("tsv", "", "also write figure data as TSV files into this directory")
	jsonOut := flag.Bool("json", false, "also write each experiment's rows as BENCH_<exp>.json (obs report schema)")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: migbench [flags]")
		flag.PrintDefaults()
		fmt.Fprintln(w, "experiments:")
		for _, x := range exper.Experiments {
			fmt.Fprintf(w, "  %-11s %s\n", x.Name, x.Title)
		}
	}
	flag.Parse()

	selected, err := exper.Select(*expName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migbench:", err)
		os.Exit(2)
	}
	cfg := exper.Config{Quick: *quick, Repeats: *repeats}
	failed := false
	for _, x := range selected {
		res, err := x.Run(cfg)
		if err != nil {
			fail(fmt.Errorf("%s: %w", x.Name, err))
		}
		x.Print(os.Stdout, res)
		// The TSV writer keys on what the experiment returned, not on
		// which experiment it was: a sweep has figure data.
		if r, ok := res.(*exper.ScalingResult); ok && *tsvDir != "" {
			writeTSV(*tsvDir, x.Name+".tsv", r)
		}
		if *jsonOut {
			writeReport(fmt.Sprintf("BENCH_%s.json", x.Name), x.Name, res)
		}
		if err := x.Gate(res); err != nil {
			fmt.Printf("FAIL: %s: %v\n\n", x.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeReport saves rows as an obs.Report: the experiment's rows and the
// process-wide metrics snapshot — one schema for BENCH_*.json and migd's
// /metrics.
func writeReport(name, exp string, rows any) {
	rep := obs.NewReport(exp, rows).WithMetrics(obs.Default)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n\n", name)
}

func writeTSV(dir, name string, res *exper.ScalingResult) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	res.WriteTSV(f)
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n\n", filepath.Join(dir, name))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "migbench:", err)
	os.Exit(1)
}

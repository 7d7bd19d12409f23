package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict of one workload x end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of the change against the parent: how far the
// change's value is worse than the parent's, as a share of the parent's,
// against noise, the larger of the two runs' interquartile spreads over their
// rounds. Beyond the bound and beyond the noise is a regression; a spread
// wider than the bound resolves nothing either way.
func judge(better string, bound, parent, change float64, parentRounds, changeRounds []float64) (noise float64, verdict string) {
	worse := 0.0
	if parent != 0 {
		worse = (change - parent) / parent
		if better == "higher" {
			worse = -worse
		}
	}
	noise = spread(parentRounds)
	if s := spread(changeRounds); s > noise {
		noise = s
	}
	switch {
	case worse > bound && worse > noise:
		return noise, verdictRegressed
	case noise > bound:
		return noise, verdictUnresolved
	}
	return noise, verdictOK
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, for every workload x end-to-end metric, parent (the
// base of the ratio), change, ratio and the verdict against BENCHMARK.json's
// bound. It returns 1 on any regression or on a higher failed_ops_pct.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare needs BENCHMARK.json:", err)
		return 2
	}
	parent, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, cat, parent, change)
}

func compareResults(w io.Writer, cat *catalog, parent, change *result) int {
	names := make([]string, 0, len(parent.Workloads))
	for name := range parent.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(w, "%-13s %-25s %-6s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "parent", "change", "ratio", "spread", "bound", "verdict")
	for _, name := range names {
		p := parent.Workloads[name]
		c, ok := change.Workloads[name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the change\n", name)
			bad++
			continue
		}
		for _, d := range cat.EndToEnd {
			pv, cv := p.EndToEnd[d.Name], c.EndToEnd[d.Name]
			noise, verdict := judge(d.Better, d.Bound, pv.Value, cv.Value, pv.Rounds, cv.Rounds)
			ratio := 0.0
			if pv.Value != 0 {
				ratio = cv.Value / pv.Value
			}
			fmt.Fprintf(w, "%-13s %-25s %-6s %14.4f %14.4f %7.3fx %6.1f%% %5.1f%%  %s\n",
				name, d.Name, d.Unit, pv.Value, cv.Value, ratio, 100*noise, 100*d.Bound, verdict)
			if verdict == verdictRegressed {
				bad++
			}
		}
		verdict := verdictOK
		if c.FailedOpsPct > p.FailedOpsPct {
			verdict = verdictRegressed
			bad++
		}
		fmt.Fprintf(w, "%-13s %-25s %-6s %14.4f %14.4f %24s  %s\n", name, "failed_ops_pct", "%", p.FailedOpsPct, c.FailedOpsPct, "", verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

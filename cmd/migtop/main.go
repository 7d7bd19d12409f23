// migtop reads what the migd daemons already write: their session
// journals (migd serve -journal-dir). One journal line is one session's
// record, and a failed session's record carries its span tree.
//
// The fleet table — one row per node (sessions restored and failed,
// bytes, p50 and p99 of the sessions' wall times), failures by class,
// and every failed session with its trace ID:
//
//	migtop -journals DIR[,DIR...] [-json]
//
// One failed session's story — its journal record, then its span tree,
// each phase with its duration and its events:
//
//	migtop explain -journals DIR[,DIR...] TRACE-ID
//
// explain exits 1 when no record has the trace ID.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/stats"
)

func main() {
	explain := len(os.Args) > 1 && os.Args[1] == "explain"
	args := os.Args[1:]
	name := "migtop"
	if explain {
		args, name = os.Args[2:], "migtop explain"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	journals := fs.String("journals", "", "comma-separated directories holding journal-*.jsonl files (migd serve -journal-dir)")
	jsonOut := new(bool)
	if !explain {
		jsonOut = fs.Bool("json", false, "emit the table's data as JSON")
	}
	fs.Parse(args)
	var dirs []string
	for _, d := range strings.Split(*journals, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 || explain && fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: migtop -journals DIR[,DIR...] [-json]\n       migtop explain -journals DIR[,DIR...] TRACE-ID")
		os.Exit(2)
	}
	if explain {
		if err := printStory(dirs, fs.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "migtop:", err)
			os.Exit(1)
		}
		return
	}
	recs, torn, err := fleet.ReadJournals(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migtop:", err)
		os.Exit(1)
	}
	s := fleet.Summarize(recs, torn)
	if *jsonOut {
		b, _ := json.MarshalIndent(s, "", "  ")
		os.Stdout.Write(append(b, '\n'))
		return
	}
	printSummary(s)
}

func printSummary(s fleet.Summary) {
	tbl := &stats.Table{Headers: []string{"NODE", "RESTORED", "FAILED", "BYTES", "P50", "P99"}}
	for _, n := range s.Nodes {
		tbl.AddRow(n.Node, n.Restored, n.Failed, n.Bytes, durUS(n.P50US).String(), durUS(n.P99US).String())
	}
	fmt.Print(tbl.String())
	if len(s.FailClasses) > 0 {
		var classes []string
		for c, n := range s.FailClasses {
			classes = append(classes, fmt.Sprintf("%s=%d", c, n))
		}
		sort.Strings(classes)
		fmt.Println("failures:", strings.Join(classes, "  "))
	}
	for _, r := range s.Failures {
		fmt.Printf("failed: trace=%s node=%s session=%d class=%s\n", orDash(r.Trace), r.Node, r.Session, r.FailClass)
	}
	if s.Torn > 0 {
		fmt.Printf("torn: %d journal line(s) cut off mid-append, skipped\n", s.Torn)
	}
}

// printStory prints one session's journal record and, for a failed
// session, the span tree it carries.
func printStory(dirs []string, trace string) error {
	r, err := fleet.Explain(dirs, trace)
	if err != nil {
		return err
	}
	fmt.Printf("trace    %s\n", r.Trace)
	fmt.Printf("session  %d on node %s at %s: %s\n", r.Session, r.Node, r.Time.Format(time.RFC3339Nano), r.Msg)
	fmt.Printf("program  %s from %s, %s\n", r.Program, r.Peer, r.How)
	fmt.Printf("elapsed  %s (restore %s), %d bytes\n", durUS(r.ElapsedUS), durUS(r.RestoreUS), r.Bytes)
	if r.Failed() {
		fmt.Printf("class    %s\nerror    %s\n", r.FailClass, r.Error)
	}
	if r.Tree != nil {
		fmt.Print(r.Tree.Tree())
	}
	return nil
}

func durUS(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

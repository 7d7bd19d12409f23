package exper

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ChainHop documents one hop of a migration chain.
type ChainHop struct {
	From, To   string
	StateBytes int
}

// ChainResult is the outcome of the E7 extension experiment.
type ChainResult struct {
	Program  string
	Hops     []ChainHop
	ExitCode int
	OK       bool
}

// Chain is the generality extension (E7): a single process migrates
// through every registered platform in turn — seven machines spanning
// both endiannesses and both data models — and then verifies its own data
// structures. The paper claims the method is general; one process
// surviving LE32 -> BE32 -> BE32 -> LE32 -> LE64 -> BE64 -> LE64 with all
// pointers intact is a stronger version of the Section 4.1 experiment.
func Chain(cfg Config) (*ChainResult, error) {
	treeDepth := 9
	if cfg.Quick {
		treeDepth = 5
	}
	// test_pointer has a single migration point, so the process stops
	// there once and hops through every machine over a session: each hop's
	// source is the process the previous hop restored, not yet resumed,
	// whose state is re-encoded from its own layout. It resumes on the
	// last.
	machines := arch.Machines()
	e, q, err := stopAtMigration(workload.TestPointerSource(treeDepth), machines[0])
	if err != nil {
		return nil, err
	}
	result := &ChainResult{Program: fmt.Sprintf("test_pointer depth %d", treeDepth)}
	for _, m := range machines[1:] {
		next, mig, err := session.Transfer(e, "chain", q, m, session.Config{})
		if err != nil {
			return nil, fmt.Errorf("exper: hop %s -> %s: %w", q.Mach.Name, m.Name, err)
		}
		result.Hops = append(result.Hops, ChainHop{From: q.Mach.Name, To: m.Name, StateBytes: mig.Timing.Bytes})
		q = next
	}
	if result.ExitCode, err = runOut(q); err != nil {
		return nil, err
	}
	result.OK = result.ExitCode == 0
	return result, nil
}

// gateChain is the E7 gate: the self-check passes after the last hop.
func gateChain(r *ChainResult) error {
	if !r.OK {
		return fmt.Errorf("%s: self-check exit %d after %d hops, want 0", r.Program, r.ExitCode, len(r.Hops))
	}
	return nil
}

// PrintChain renders E7.
func PrintChain(w io.Writer, r *ChainResult) {
	t := stats.Table{
		Title:   "E7 (extension): one process migrated through every platform, then self-verified",
		Headers: []string{"Hop", "From", "To", "State bytes"},
	}
	for i, h := range r.Hops {
		t.AddRow(i+1, h.From, h.To, h.StateBytes)
	}
	fmt.Fprintln(w, t.String())
	verdict := "PASS"
	if !r.OK {
		verdict = fmt.Sprintf("FAIL (exit %d)", r.ExitCode)
	}
	fmt.Fprintf(w, "%s after %d hops: %s\n\n", r.Program, len(r.Hops), verdict)
}

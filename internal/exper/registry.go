package exper

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one entry of the registry cmd/migbench loops over.
type Experiment struct {
	// Name is the -exp value; Title is one line for the help text.
	Name  string
	Title string
	// Run executes the experiment; Print renders what Run returned as
	// the paper-format tables.
	Run   func(Config) (any, error)
	Print func(io.Writer, any)
	// Gate judges what Run returned: nil passes. Gates compare counts,
	// byte totals, booleans and exit codes — never a clock or a model.
	// An experiment that only reports (Table 1, Figure 2, …) passes.
	Gate func(any) error
}

// define builds an Experiment from typed functions, so each experiment's
// Run, Print and Gate agree on the result type at compile time.
func define[R any](name, title string, run func(Config) (R, error),
	render func(io.Writer, R), gate func(R) error) Experiment {
	return Experiment{
		Name:  name,
		Title: title,
		Run:   func(cfg Config) (any, error) { return run(cfg) },
		Print: func(w io.Writer, r any) { render(w, r.(R)) },
		Gate: func(r any) error {
			if gate == nil {
				return nil
			}
			return gate(r.(R))
		},
	}
}

// Experiments is every experiment migbench can run, in the order a full
// run prints them. DESIGN.md §4 and README's -exp line list the same
// names; TestRegistryMatchesDocs holds them to this slice.
var Experiments = []Experiment{
	define("hetero", "E1 (Section 4.1): heterogeneous migration, self-checked on the destination",
		Heterogeneity, PrintHeterogeneity, gateHeterogeneity),
	define("table1", "E2 (Table 1): Collect / Tx / Restore, Ultra 5 pair, modeled 100 Mb/s Ethernet",
		Table1, PrintTable1, nil),
	define("fig2a", "E3 (Figure 2a): linpack collection and restoration vs data size",
		Fig2aLinpack, printFig2a, nil),
	define("fig2b", "E4 (Figure 2b): bitonic collection and restoration vs numbers sorted",
		Fig2bBitonic, printFig2b, nil),
	define("complexity", "E5 (Section 4.2): cost decomposition of collection and restoration",
		Breakdown, PrintBreakdown, nil),
	define("chain", "E7: one process migrated through every platform, then self-verified",
		Chain, PrintChain, gateChain),
	define("ablations", "D1-D3: visit marking, pointer encoding, MSRLT search structure",
		Ablations, printAblations, nil),
	define("overhead", "E6 (Section 4.3): poll-point placement and allocation overhead",
		Overhead, printOverheadReport, nil),
	define("obs", "E11a: one stitched cross-machine trace and per-phase latency quantiles",
		ObsStitched, PrintObsStitched, gateObsStitched),
	define("store", "E12: checkpoint-store dedup ratio and cold vs warm bytes on the wire",
		Store, printStore, gateStore),
	define("live", "E14: live pre-copy, bytes shipped while paused across write rates",
		Live, PrintLive, gateLive),
	define("chaos", "E15: survivor accounting under a sampled fault matrix",
		Chaos, PrintChaos, gateChaos),
	define("fleet", "E16: three-daemon telemetry roll-up against ground truth",
		Fleet, PrintFleet, gateFleet),
}

// Names lists the registered experiment names in run order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, x := range Experiments {
		names[i] = x.Name
	}
	return names
}

// Select resolves an -exp value: "all" is the whole registry, a registered
// name is that one experiment, and anything else is an error naming the
// valid values — a misspelt name must not run nothing and pass.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Experiments, nil
	}
	for _, x := range Experiments {
		if x.Name == name {
			return []Experiment{x}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, strings.Join(Names(), ", "))
}

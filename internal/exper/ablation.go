package exper

import (
	"fmt"
	"io"
	"time"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// This file measures the design-choice ablations listed in DESIGN.md
// (D1–D3, D5): they are not paper experiments, but quantify why the
// paper's design decisions matter.

// AblationRow is one measured configuration.
type AblationRow struct {
	Name    string
	Detail  string
	Value   float64
	Unit    string
	Elapsed time.Duration
}

// AblationReport carries all three ablation groups.
type AblationReport struct {
	D1 []AblationRow `json:"d1"`
	D2 []AblationRow `json:"d2"`
	D3 []AblationRow `json:"d3"`
}

// Ablations runs D1, D3 and D2 in the order they are printed.
func Ablations(cfg Config) (*AblationReport, error) {
	d1, err := DedupAblation(cfg)
	if err != nil {
		return nil, err
	}
	d3, err := MSRLTIndexAblation(cfg)
	if err != nil {
		return nil, err
	}
	d2, err := PointerEncodingCost(cfg)
	if err != nil {
		return nil, err
	}
	return &AblationReport{D1: d1, D2: d2, D3: d3}, nil
}

func printAblations(w io.Writer, r *AblationReport) {
	PrintAblation(w, "D1 ablation: depth-first visit marking (dedup) on a sharing-heavy DAG", r.D1)
	PrintAblation(w, "D3 ablation: MSRLT ordered-table search vs base-address hash index (bitonic)", r.D3)
	PrintAblation(w, "D2 analysis: stream composition under (header, offset) pointer encoding (bitonic)", r.D2)
}

// DedupAblation (D1) compares collection with and without visit marking
// on a sharing-heavy structure (a diamond DAG): marking keeps the stream
// proportional to the number of blocks; without it, every path through
// the sharing is re-collected.
func DedupAblation(cfg Config) ([]AblationRow, error) {
	// A DAG program: levels nodes, each pointing twice at the next.
	depth := 16
	if cfg.Quick {
		depth = 10
	}
	src := fmt.Sprintf(`
		struct d { double v; struct d *l; struct d *r; };
		struct d *root;
		int main() {
			struct d *prev, *cur;
			int i;
			prev = 0;
			for (i = 0; i < %d; i++) {
				cur = (struct d *) malloc(sizeof(struct d));
				cur->v = i;
				cur->l = prev;
				cur->r = prev;
				prev = cur;
			}
			root = prev;
			migrate_here();
			return 0;
		}
	`, depth)
	e, err := core.NewEngine(src, minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	p, state, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	elapsed, size, err := timeCollect(p, cfg.repeats())
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:    "visit marking on (paper design)",
		Detail:  fmt.Sprintf("depth-%d diamond DAG", depth),
		Value:   float64(size),
		Unit:    "stream bytes",
		Elapsed: elapsed,
	})
	_ = state

	// Without marking: collect by hand through the MSRM library.
	var noSize int
	var failure error
	elapsed2 := stats.Repeat(cfg.repeats(), func() {
		enc := xdr.NewEncoder(1 << 16)
		s := collect.NewSaver(p.Space, p.Table, p.TI, enc)
		s.NoDedup = true
		s.DedupDepthLimit = depth + 8
		addr, _, ok := p.GlobalByName("root")
		if !ok {
			failure = fmt.Errorf("no root global")
			return
		}
		if err := s.SaveVariable(addr); err != nil {
			failure = err
			return
		}
		noSize = enc.Len()
	})
	if failure != nil {
		return nil, failure
	}
	rows = append(rows, AblationRow{
		Name:    "visit marking off (ablated)",
		Detail:  fmt.Sprintf("2^%d path re-collections", depth),
		Value:   float64(noSize),
		Unit:    "stream bytes",
		Elapsed: elapsed2,
	})
	return rows, nil
}

// MSRLTIndexAblation (D3) compares the paper's ordered-table MSRLT
// (binary search, the O(n log n) collection term) against a base-address
// hash index on the bitonic workload, whose pointers all target block
// bases.
func MSRLTIndexAblation(cfg Config) ([]AblationRow, error) {
	n := 50000
	if cfg.Quick {
		n = 4000
	}
	var rows []AblationRow
	for _, idx := range []bool{false, true} {
		e, err := core.NewEngine(workload.BitonicSource(n, 61803), minic.PollPolicy{})
		if err != nil {
			return nil, err
		}
		p, _, err := stopAtMigration(e, arch.Ultra5)
		if err != nil {
			return nil, err
		}
		p.Table.UseBaseIndex = idx
		// The counts are one capture's; the timing repeats the capture as
		// often as the clock decides.
		p.Table.ResetStats()
		_, _ = p.Recapture() // a failure recurs in timeCollect, which reports it
		counts := p.Table.Stats
		elapsed, _, err := timeCollect(p, cfg.repeats())
		if err != nil {
			return nil, err
		}
		name := "ordered table, binary search (paper design)"
		detail := fmt.Sprintf("%d search steps", counts.SearchSteps)
		if idx {
			name = "base-address hash index (modern alternative)"
			detail = fmt.Sprintf("%d hash hits, %d residual steps", counts.BaseHits, counts.SearchSteps)
		}
		rows = append(rows, AblationRow{Name: name, Detail: detail, Value: float64(counts.SearchSteps), Unit: "search steps", Elapsed: elapsed})
	}
	return rows, nil
}

// PointerEncodingCost (D2) analyzes the stream composition of the
// bitonic image: how many bytes the machine-independent (header, offset)
// pointer encoding adds over the raw data bytes. The paper's encoding
// spends 16 bytes per non-null pointer and 4 per null; a raw-address
// scheme would spend the pointer width but could not be translated.
func PointerEncodingCost(cfg Config) ([]AblationRow, error) {
	n := 50000
	if cfg.Quick {
		n = 4000
	}
	e, err := core.NewEngine(workload.BitonicSource(n, 141421), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	p, state, err := stopAtMigration(e, arch.Ultra5)
	if err != nil {
		return nil, err
	}
	st := p.CaptureStats()
	ptrBytes := 16*(st.Save.Pointers-st.Save.NullPointers) + 4*st.Save.NullPointers
	rows := []AblationRow{
		{Name: "total stream", Detail: fmt.Sprintf("%d blocks", st.Save.Blocks),
			Value: float64(len(state)), Unit: "bytes"},
		{Name: "scalar data (canonical XDR-style)", Detail: fmt.Sprintf("%d pointers among scalars", st.Save.Pointers),
			Value: float64(st.Save.DataBytes), Unit: "bytes"},
		{Name: "pointer refs (header+offset form)", Detail: "16 B non-null, 4 B null",
			Value: float64(ptrBytes), Unit: "bytes"},
		{Name: "raw-address alternative (not translatable)", Detail: "pointer width only",
			Value: float64(8 * st.Save.Pointers), Unit: "bytes"},
	}
	return rows, nil
}

// PrintAblation renders an ablation group.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	t := stats.Table{
		Title:   title,
		Headers: []string{"Configuration", "Detail", "Value", "Unit", "Time (s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Detail, fmt.Sprintf("%.0f", r.Value), r.Unit, r.Elapsed)
	}
	fmt.Fprintln(w, t.String())
}

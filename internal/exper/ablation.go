package exper

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/vm"
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
// on a sharing-heavy structure (a diamond DAG): marking keeps the snapshot
// proportional to the number of blocks; without it, every path through
// the sharing is re-collected. The unmarked size is computed exactly from
// the MSR graph (unmarkedBytes) rather than by running a collector that
// could not be restored from anyway.
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
	e, p, err := stopAtMigration(src, arch.Ultra5)
	if err != nil {
		return nil, err
	}
	tm, _, err := migrateBest(e, p, arch.Ultra5, cfg.repeats())
	if err != nil {
		return nil, err
	}
	addr, _, _ := p.GlobalByName("root")
	off, err := unmarkedBytes(p, addr)
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Name: "visit marking on (paper design)", Detail: fmt.Sprintf("depth-%d diamond DAG", depth),
			Value: float64(tm.Bytes), Unit: "snapshot bytes", Elapsed: tm.Collect},
		{Name: "visit marking off (ablated)", Detail: fmt.Sprintf("2^%d path re-collections, counted on the graph", depth),
			Value: float64(off), Unit: "stream bytes"},
	}, nil
}

// unmarkedBytes is what the paper's collection writes for the variable at
// addr when it marks nothing visited: every root path to a block
// re-collects the block's record — type and count, its scalars at their
// wire widths, four bytes per pointer and twelve more per non-null one —
// and arrives through a 16-byte reference. So each record counts once per
// root path that reaches it, which a pass over the graph in topological
// order counts. A cycle has unboundedly many paths and is an error.
func unmarkedBytes(p *vm.Process, addr memory.Address) (int64, error) {
	g, err := msr.BuildGraph(p.Space, p.Table)
	if err != nil {
		return 0, err
	}
	b, _, _, err := p.Table.Lookup(p.Mach, addr)
	if err != nil {
		return 0, err
	}
	root := b.ID
	out := map[msr.BlockID][]msr.BlockID{}
	for _, e := range g.Edges {
		out[e.From] = append(out[e.From], e.To)
	}
	seen, order := map[msr.BlockID]int{}, []msr.BlockID{} // 1 on the walk's path, 2 done; done in post-order
	var walk func(msr.BlockID) error
	walk = func(id msr.BlockID) error {
		seen[id] = 1
		for _, to := range out[id] {
			switch seen[to] {
			case 1:
				return fmt.Errorf("exper: block %s is on a cycle: collection without visit marking does not terminate", to)
			case 0:
				if err := walk(to); err != nil {
					return err
				}
			}
		}
		seen[id] = 2
		order = append(order, id)
		return nil
	}
	if err := walk(root); err != nil {
		return 0, err
	}
	slices.Reverse(order)
	paths, total := map[msr.BlockID]int64{root: 1}, int64(16)
	for _, id := range order {
		b, _ := p.Table.ByID(id)
		rec := int64(8 + 12*len(out[id]))
		for ord := range b.Type.ScalarCount() {
			w := 4
			if st := b.Type.ScalarType(ord); !st.IsPointer() {
				w = types.WireSize(st.Prim)
			}
			rec += int64(b.Count * w)
		}
		total += paths[id] * rec
		for _, to := range out[id] {
			paths[to] += paths[id]
		}
	}
	return total, nil
}

// bisection runs the paper's counted MSRLT search over the stopped
// process's state, with the base-address index off or on: one
// msr.BuildGraph pass resolves every non-null pointer scalar through
// Table.Lookup. A capture resolves through its page index instead, which
// takes no steps.
func bisection(p *vm.Process, baseIndex bool) (msr.Stats, error) {
	p.Table.UseBaseIndex = baseIndex
	p.Table.ResetStats()
	_, err := msr.BuildGraph(p.Space, p.Table)
	return p.Table.Stats, err
}

// MSRLTIndexAblation (D3) compares the paper's ordered-table MSRLT
// (binary search, the O(n log n) collection term) against a base-address
// hash index on the bitonic workload, whose pointers all target block
// bases: the counts and the time of one bisection pass each.
func MSRLTIndexAblation(cfg Config) ([]AblationRow, error) {
	n := 50000
	if cfg.Quick {
		n = 4000
	}
	_, p, err := stopAtMigration(workload.BitonicSource(n, 61803), arch.Ultra5)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, idx := range []bool{false, true} {
		counts, err := bisection(p, idx)
		if err != nil {
			return nil, err
		}
		elapsed := timeBest(cfg.repeats(), func() { _, _ = bisection(p, idx) })
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
// pointer encoding adds over the raw data bytes. A reference to a block of
// its own section is one word, its index there (two with an ordinal); any
// other is the paper's 16 bytes, as is every live variable's, and a null
// is 4. Each section's directory names its blocks in run-length entries of
// 16 bytes. The rows from scalar data to the live-reference lists sum to
// the heap, frame and globals bodies. A raw-address scheme would spend the
// pointer width but could not be translated.
func PointerEncodingCost(cfg Config) ([]AblationRow, error) {
	n := 50000
	if cfg.Quick {
		n = 4000
	}
	_, p, err := stopAtMigration(workload.BitonicSource(n, 141421), arch.Ultra5)
	if err != nil {
		return nil, err
	}
	snap, err := p.Recapture()
	if err != nil {
		return nil, err
	}
	rd, err := snapshot.NewReader(xdr.NewDecoder(snap))
	if err != nil {
		return nil, err
	}
	secs, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	var bodies, live, runs, heads int64 // the directories and live lists, read off the bodies
	for _, sec := range secs[1:] {
		dec := xdr.NewDecoder(sec.Body)
		if sec.Kind != snapshot.KindHeap {
			n, _ := dec.Uint32()
			dec.FixedOpaque(16 * int(n))
			live, heads = live+int64(n), heads+4+16*int64(n)
		}
		n, _ := dec.Uint32()
		runs, bodies = runs+int64(n), bodies+int64(len(sec.Body))
	}
	st := p.CaptureStats().Save
	cross := st.Pointers - st.NullPointers - st.SameSection - live
	return []AblationRow{
		{Name: "total stream", Detail: fmt.Sprintf("%d blocks", st.Blocks),
			Value: float64(len(snap)), Unit: "bytes"},
		{Name: "heap, frame and globals bodies", Detail: fmt.Sprintf("%d sections", len(secs)-1),
			Value: float64(bodies), Unit: "bytes"},
		{Name: "scalar data (canonical XDR-style)", Detail: fmt.Sprintf("%d pointers among scalars", st.Pointers),
			Value: float64(st.DataBytes), Unit: "bytes"},
		{Name: "same-section refs (index form)", Detail: fmt.Sprintf("%d of 4 B, %d ordinals of 4 B", st.SameSection, st.Ordinals),
			Value: float64(4 * (st.SameSection + st.Ordinals)), Unit: "bytes"},
		{Name: "cross-section refs (header+offset form)", Detail: fmt.Sprintf("%d of 16 B", cross),
			Value: float64(16 * cross), Unit: "bytes"},
		{Name: "null refs", Detail: fmt.Sprintf("%d of 4 B", st.NullPointers),
			Value: float64(4 * st.NullPointers), Unit: "bytes"},
		{Name: "section directories (run-length)", Detail: fmt.Sprintf("%d entries of 16 B", runs),
			Value: float64(4*int64(len(secs)-1) + 16*runs), Unit: "bytes"},
		{Name: "live-reference lists", Detail: fmt.Sprintf("%d refs of 16 B", live),
			Value: float64(heads), Unit: "bytes"},
		{Name: "raw-address alternative (not translatable)", Detail: "pointer width only",
			Value: float64(8 * st.Pointers), Unit: "bytes"},
	}, nil
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

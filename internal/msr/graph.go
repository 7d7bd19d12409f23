package msr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// This file materializes the MSR graph G = (V, E) from a memory snapshot.
// The collection algorithm itself never builds the explicit graph — it
// traverses implicitly — but the explicit form supports verification
// (comparing graphs before and after migration), analysis, and the
// illustrative traces of the paper's Section 3.2.

// Edge is a pointer relationship: the scalar at ordinal FromOrdinal of
// block From holds a pointer to ordinal ToOrdinal of block To.
type Edge struct {
	From        BlockID
	FromOrdinal int
	To          BlockID
	ToOrdinal   int
}

// Graph is an explicit MSR snapshot.
type Graph struct {
	Vertices []*Block
	Edges    []Edge
}

// Space is the subset of the memory space the graph builder needs.
// *memory.Space satisfies it.
type Space interface {
	Machine() *arch.Machine
	Bytes(addr memory.Address, n int) ([]byte, error)
}

// BuildGraph scans every registered block for pointer scalars and resolves
// them into edges. Dangling pointers (values that resolve to no block) are
// reported as errors: the MSR model requires every edge to land in V.
func BuildGraph(sp Space, t *Table) (*Graph, error) {
	m := sp.Machine()
	g := &Graph{Vertices: t.Blocks()}
	for _, b := range g.Vertices {
		plan := b.Plan(m)
		if !plan.HasPtr {
			continue
		}
		// ord runs over the block's scalars as the plan yields them.
		ord := 0
		scan := func(op *types.PlanOp, base memory.Address) error {
			if op.Kind != arch.Ptr {
				ord += op.Count
				return nil
			}
			for i := 0; i < op.Count; i, ord = i+1, ord+1 {
				raw, err := sp.Bytes(base+memory.Address(op.Off+i*op.Stride), m.PtrSize())
				if err != nil {
					return err
				}
				val := memory.Address(m.Load(arch.Ptr)(raw))
				if val == 0 {
					continue
				}
				ref, err := Resolve(t, m, val)
				if err != nil {
					return fmt.Errorf("msr: dangling pointer %#x in %s scalar %d: %w",
						uint64(val), b.ID, ord, err)
				}
				g.Edges = append(g.Edges, Edge{
					From: b.ID, FromOrdinal: ord,
					To: ref.ID, ToOrdinal: ref.Ordinal,
				})
			}
			return nil
		}
		for elem := 0; elem < b.Count; elem++ {
			if err := types.EachRun(plan.Ops, b.Addr+memory.Address(elem*plan.ElemSize), scan); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// GraphStats summarizes a snapshot, the n and ΣDᵢ of the complexity model.
type GraphStats struct {
	Blocks     int
	Edges      int
	Bytes      int // ΣDᵢ on the snapshot machine
	PerSegment map[memory.Segment]int
}

// Stats computes summary statistics for the graph on machine m.
func (g *Graph) Stats(m *arch.Machine) GraphStats {
	s := GraphStats{
		Blocks:     len(g.Vertices),
		Edges:      len(g.Edges),
		PerSegment: map[memory.Segment]int{},
	}
	for _, b := range g.Vertices {
		s.Bytes += b.Count * b.Type.SizeOf(m)
		s.PerSegment[b.ID.Seg]++
	}
	return s
}

// Dot renders the graph in Graphviz format, labelling vertices with their
// variable names (as in the paper's Figure 1(b)).
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph msr {\n  rankdir=LR;\n")
	for _, v := range g.Vertices {
		label := v.ID.String()
		if v.Name != "" {
			label += " (" + v.Name + ")"
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", v.ID.String(), label)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d->%d\"];\n",
			e.From.String(), e.To.String(), e.FromOrdinal, e.ToOrdinal)
	}
	b.WriteString("}\n")
	return b.String()
}

// Canonical returns a deterministic textual form of the graph with
// machine-independent vertex and edge descriptions. Two snapshots of the
// same logical state on different machines must canonicalize identically;
// the heterogeneity tests rely on this.
func (g *Graph) Canonical() string {
	verts := make([]string, 0, len(g.Vertices))
	for _, v := range g.Vertices {
		verts = append(verts, fmt.Sprintf("v %s type=%s count=%d name=%s",
			v.ID, v.Type.Signature(), v.Count, v.Name))
	}
	sort.Strings(verts)
	edges := make([]string, 0, len(g.Edges))
	for _, e := range g.Edges {
		edges = append(edges, fmt.Sprintf("e %s+%d -> %s+%d",
			e.From, e.FromOrdinal, e.To, e.ToOrdinal))
	}
	sort.Strings(edges)
	return strings.Join(verts, "\n") + "\n" + strings.Join(edges, "\n") + "\n"
}

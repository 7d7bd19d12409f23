package collect

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
)

// The base-address index is the D3 design ablation of the MSRLT search. A
// capture resolves through its page index, which consults neither the index
// nor the bisection; the paper's counted search is Table.Lookup, which
// msr.BuildGraph runs once per non-null pointer scalar.

// listImage builds root -> 200 nodes -> null.
func listImage(t *testing.T, ti *types.TI, n *types.Type) (*proc, *msr.Block) {
	p := newProc(arch.Ultra5, ti)
	root := p.global(t, types.PointerTo(n), "root")
	var blocks []*msr.Block
	for i := 0; i < 200; i++ {
		blocks = append(blocks, p.heap(t, n, 1))
	}
	lo := memory.Address(n.OffsetOf(p.m, 1))
	for i := 0; i+1 < len(blocks); i++ {
		p.space.StorePtr(blocks[i].Addr+lo, blocks[i+1].Addr)
	}
	p.space.StorePtr(root.Addr, blocks[0].Addr)
	return p, root
}

func TestBaseIndexLookups(t *testing.T) {
	n := nodeType("bidx")
	ti := types.NewTI()
	ti.Add(types.PointerTo(n))
	p, root := listImage(t, ti, n)
	p.table.UseBaseIndex = true
	if _, err := msr.BuildGraph(p.space, p.table); err != nil {
		t.Fatal(err)
	}
	// The root and every list link point at block bases: the index should
	// serve them.
	if p.table.Stats.BaseHits < 200 {
		t.Errorf("base index hits = %d, want >= 200", p.table.Stats.BaseHits)
	}
	// And the capture must be identical to the one of a table without it.
	p2, root2 := listImage(t, ti, n)
	capture := func(p *proc, root *msr.Block) []encodedBody {
		st, err := streamed(p.space, p.table, p.ti, Roots{Globals: []memory.Address{root.Addr}})
		if err != nil {
			t.Fatal(err)
		}
		return st.Bodies
	}
	with, without := capture(p, root), capture(p2, root2)
	if len(with) != len(without) {
		t.Fatalf("%d sections with the base index, %d without", len(with), len(without))
	}
	for i := range with {
		if string(with[i].Body) != string(without[i].Body) {
			t.Errorf("section %d differs with the base index", i)
		}
	}
}

func TestBaseIndexInteriorPointerFallsBack(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.PointerTo(types.Double))
	p := newProc(arch.Ultra5, ti)
	p.table.UseBaseIndex = true
	blk := p.heap(t, types.Double, 10)
	pv := p.global(t, types.PointerTo(types.Double), "p")
	p.space.StorePtr(pv.Addr, blk.Addr+24) // interior

	if _, err := msr.BuildGraph(p.space, p.table); err != nil {
		t.Fatal(err)
	}
	// Interior pointers cannot hit the base index; the binary search
	// must still resolve them.
	if p.table.Stats.SearchSteps == 0 {
		t.Error("interior pointer did not fall back to the search")
	}
}

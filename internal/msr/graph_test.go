package msr

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// buildExample reconstructs (a simplified form of) the paper's Figure 1
// snapshot on machine m: two global node pointers, a local array of node
// pointers, and heap nodes linked into a chain.
func buildExample(t *testing.T, m *arch.Machine) (*memory.Space, *Table, *types.Type) {
	t.Helper()
	n := nodeType("fig1node")

	sp := memory.NewSpace(m)
	tbl := NewTable()

	// Globals: struct node *first, *last;
	pfirst, _ := sp.GlobalAlloc(m.PtrSize(), m.PtrSize())
	plast, _ := sp.GlobalAlloc(m.PtrSize(), m.PtrSize())
	reg := func(id BlockID, addr memory.Address, ty *types.Type, count int, name string) *Block {
		b := &Block{ID: id, Addr: addr, Type: ty, Count: count, Name: name}
		if err := tbl.Register(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	reg(globalID(0), pfirst, types.PointerTo(n), 1, "first")
	reg(globalID(1), plast, types.PointerTo(n), 1, "last")

	// Stack: struct node *parray[10] in main (frame 1).
	arrT := types.ArrayOf(types.PointerTo(n), 10)
	fb, _ := sp.PushFrame(arrT.SizeOf(m))
	parray := reg(stackID(1, 0), fb, arrT, 1, "parray")

	// Heap: four nodes, as after four loop iterations.
	var nodes []*Block
	for i := 0; i < 4; i++ {
		a, _ := sp.Malloc(n.SizeOf(m))
		nb := reg(tbl.NextHeapID(), a, n, 1, "")
		nodes = append(nodes, nb)
		// parray[i] = node
		sp.StorePtr(parray.Addr+memory.Address(i*m.PtrSize()), a)
	}
	// first = parray[0]; last = parray[3]; first->link = last;
	sp.StorePtr(pfirst, nodes[0].Addr)
	sp.StorePtr(plast, nodes[3].Addr)
	linkOff := memory.Address(n.OffsetOf(m, 1))
	sp.StorePtr(nodes[0].Addr+linkOff, nodes[3].Addr)
	// parray[i]->link = parray[i-1] for i > 0.
	for i := 1; i < 4; i++ {
		sp.StorePtr(nodes[i].Addr+linkOff, nodes[i-1].Addr)
	}
	return sp, tbl, n
}

func TestBuildGraphExample(t *testing.T) {
	sp, tbl, _ := buildExample(t, arch.DEC5000)
	g, err := BuildGraph(sp, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices: first, last, parray, 4 nodes = 7.
	if len(g.Vertices) != 7 {
		t.Errorf("vertices = %d, want 7", len(g.Vertices))
	}
	// Edges: first, last (2), parray[0..3] (4), first->link plus the
	// three back links (4) = 10.
	if len(g.Edges) != 10 {
		t.Errorf("edges = %d, want 10", len(g.Edges))
	}
	// Everything is one connected component.
	comps := g.Components()
	if len(comps) != 1 {
		t.Errorf("components = %d, want 1", len(comps))
	}
	// All nodes reachable from parray.
	reach := g.Reachable([]BlockID{stackID(1, 0)})
	if len(reach) != 5 { // parray + 4 nodes
		t.Errorf("reachable from parray = %d blocks, want 5", len(reach))
	}
}

func TestGraphCanonicalMachineIndependent(t *testing.T) {
	// The same logical state built on a little-endian 32-bit machine and
	// a big-endian 64-bit machine must canonicalize identically — this is
	// the property that makes graph comparison a valid post-migration
	// correctness check.
	sp1, tbl1, _ := buildExample(t, arch.DEC5000)
	g1, err := BuildGraph(sp1, tbl1)
	if err != nil {
		t.Fatal(err)
	}
	sp2, tbl2, _ := buildExample(t, arch.SPARCV9)
	g2, err := BuildGraph(sp2, tbl2)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := g1.Canonical(), g2.Canonical()
	if c1 != c2 {
		t.Errorf("canonical forms differ:\n--- dec5000 ---\n%s\n--- sparcv9 ---\n%s", c1, c2)
	}
}

func TestGraphDanglingPointerDetected(t *testing.T) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	pt := types.PointerTo(types.Int)
	a, _ := sp.GlobalAlloc(m.PtrSize(), m.PtrSize())
	b := &Block{ID: globalID(0), Addr: a, Type: pt, Count: 1, Name: "p"}
	tbl.Register(b)
	// Store a pointer to unregistered memory.
	other, _ := sp.Malloc(8)
	sp.StorePtr(a, other)
	if _, err := BuildGraph(sp, tbl); err == nil {
		t.Error("dangling pointer not detected")
	}
}

func TestGraphInteriorPointerOrdinal(t *testing.T) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	pt := types.PointerTo(types.Double)

	arr, _ := sp.Malloc(10 * 8)
	ab := &Block{ID: tbl.NextHeapID(), Addr: arr, Type: types.Double, Count: 10}
	tbl.Register(ab)
	p, _ := sp.GlobalAlloc(m.PtrSize(), m.PtrSize())
	pb := &Block{ID: globalID(0), Addr: p, Type: pt, Count: 1, Name: "p"}
	tbl.Register(pb)
	sp.StorePtr(p, arr+7*8) // &arr[7]

	g, err := BuildGraph(sp, tbl)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.OutEdges(pb.ID)
	if len(edges) != 1 || edges[0].ToOrdinal != 7 {
		t.Errorf("edges = %+v, want one edge to ordinal 7", edges)
	}
}

func TestGraphStats(t *testing.T) {
	sp, tbl, n := buildExample(t, arch.DEC5000)
	g, err := BuildGraph(sp, tbl)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats(arch.DEC5000)
	if st.Blocks != 7 || st.Edges != 10 {
		t.Errorf("stats = %+v", st)
	}
	wantBytes := 2*4 + 10*4 + 4*n.SizeOf(arch.DEC5000)
	if st.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if st.PerSegment[memory.Heap] != 4 || st.PerSegment[memory.Global] != 2 || st.PerSegment[memory.Stack] != 1 {
		t.Errorf("per segment = %v", st.PerSegment)
	}
}

func TestGraphDot(t *testing.T) {
	sp, tbl, _ := buildExample(t, arch.DEC5000)
	g, _ := BuildGraph(sp, tbl)
	dot := g.Dot()
	if !strings.Contains(dot, "digraph msr") || !strings.Contains(dot, "parray") {
		t.Errorf("dot output missing content:\n%s", dot)
	}
}

func TestComponentsDisconnected(t *testing.T) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	a1, _ := sp.GlobalAlloc(4, 4)
	a2, _ := sp.GlobalAlloc(4, 4)
	tbl.Register(&Block{ID: globalID(0), Addr: a1, Type: types.Int, Count: 1, Name: "a"})
	tbl.Register(&Block{ID: globalID(1), Addr: a2, Type: types.Int, Count: 1, Name: "b"})
	g, err := BuildGraph(sp, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Components()) != 2 {
		t.Errorf("components = %d, want 2", len(g.Components()))
	}
}

// The graph queries below, and the identification order they sort by,
// serve only these tests, so they live here.

// Less orders IDs lexicographically; used for deterministic iteration.
func (id BlockID) Less(o BlockID) bool {
	if id.Seg != o.Seg {
		return id.Seg < o.Seg
	}
	if id.Major != o.Major {
		return id.Major < o.Major
	}
	return id.Minor < o.Minor
}

// OutEdges returns the edges leaving the given block, ordered by source
// ordinal.
func (g *Graph) OutEdges(id BlockID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FromOrdinal < out[j].FromOrdinal })
	return out
}

// Components returns the weakly connected components of the graph as sets
// of block IDs, each sorted, with components ordered by their smallest ID.
func (g *Graph) Components() [][]BlockID {
	parent := make([]int, len(g.Vertices))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	index := g.index()
	for _, e := range g.Edges {
		union(index[e.From], index[e.To])
	}
	groups := map[int][]BlockID{}
	for i, v := range g.Vertices {
		r := find(i)
		groups[r] = append(groups[r], v.ID)
	}
	var comps [][]BlockID
	for _, ids := range groups {
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		comps = append(comps, ids)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0].Less(comps[j][0]) })
	return comps
}

// index maps every vertex's ID to its place in Vertices.
func (g *Graph) index() map[BlockID]int {
	index := make(map[BlockID]int, len(g.Vertices))
	for i, v := range g.Vertices {
		index[v.ID] = i
	}
	return index
}

// Vertex returns the block with the given ID, or nil.
func (g *Graph) Vertex(id BlockID) *Block {
	if i, ok := g.index()[id]; ok {
		return g.Vertices[i]
	}
	return nil
}

// Reachable returns the set of blocks reachable from the given roots by
// following edges, including the roots themselves.
func (g *Graph) Reachable(roots []BlockID) map[BlockID]bool {
	adj := map[BlockID][]BlockID{}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	seen := map[BlockID]bool{}
	var stack []BlockID
	for _, r := range roots {
		if g.Vertex(r) != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range adj[id] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

package collect

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// proc is a minimal process image for exercising the MSRM library without
// the VM: a space, an MSRLT, and a TI table.
type proc struct {
	m     *arch.Machine
	space *memory.Space
	table *msr.Table
	ti    *types.TI
	nglob uint32
}

func newProc(m *arch.Machine, ti *types.TI) *proc {
	return &proc{m: m, space: memory.NewSpace(m), table: msr.NewTable(), ti: ti}
}

// global declares a global variable block of the given type.
func (p *proc) global(t *testing.T, ty *types.Type, name string) *msr.Block {
	t.Helper()
	addr, err := p.space.GlobalAlloc(ty.SizeOf(p.m), ty.AlignOf(p.m))
	if err != nil {
		t.Fatal(err)
	}
	b := &msr.Block{
		ID:    msr.BlockID{Seg: memory.Global, Minor: p.nglob},
		Addr:  addr,
		Type:  ty,
		Count: 1,
		Name:  name,
	}
	p.nglob++
	if err := p.table.Register(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// heap allocates and registers a heap block of count elements of ty.
func (p *proc) heap(t *testing.T, ty *types.Type, count int) *msr.Block {
	t.Helper()
	addr, err := p.space.Malloc(count * ty.SizeOf(p.m))
	if err != nil {
		t.Fatal(err)
	}
	b := &msr.Block{ID: p.table.NextHeapID(), Addr: addr, Type: ty, Count: count}
	if err := p.table.Register(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func nodeType(tag string) *types.Type {
	n := types.NewStruct(tag)
	n.DefineFields([]types.Field{
		{Name: "data", Type: types.Float},
		{Name: "link", Type: types.PointerTo(n)},
	})
	return n
}

// addrsOf lists the blocks' addresses.
func addrsOf(blocks []*msr.Block) []memory.Address {
	out := make([]memory.Address, len(blocks))
	for i, b := range blocks {
		out[i] = b.Addr
	}
	return out
}

// capture is a capture's bodies as the tests read them, with From as in
// Layout.From.
type capture struct {
	Bodies []encodedBody
	Heap   int
	Stats  SaveStats
	Calls  int
	Reused bool
}

type encodedBody struct {
	Body []byte
	From int
}

// streamed captures the state reachable from roots as a cold capture does.
func streamed(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots) (*capture, error) {
	return tracked(space, table, ti, roots, nil, nil)
}

// tracked lays out the state reachable from roots and encodes each body it
// does not carry over: streamed through Layout.Encode without a tracker,
// whole through Layout.Body in a pre-copy round (given dt and dirty), which
// it then hands to its tracker. Every piece must fit pieceSize and every
// body its declared size.
func tracked(space *memory.Space, table *msr.Table, ti *types.TI, roots Roots, dt *DeltaTracker, dirty []memory.DirtyRange) (*capture, error) {
	l, err := Walk(space, table, ti, roots, dt, dirty)
	if err != nil {
		return nil, err
	}
	st := &capture{Heap: l.Heap, Reused: l.Reused}
	bodies := make([][]byte, len(l.Sizes))
	for i, size := range l.Sizes {
		if l.From[i] >= 0 {
			bodies[i] = l.Carried(i)
		} else if dt != nil {
			if bodies[i], _, err = l.Body(i); err != nil {
				return nil, err
			}
		} else if _, err := l.Encode(i, func(p []byte) (int, error) {
			if len(p) == 0 || len(p) > pieceSize {
				return 0, fmt.Errorf("section %d: a %d-byte piece", i, len(p))
			}
			bodies[i] = append(bodies[i], p...)
			return len(p), nil
		}); err != nil {
			return nil, err
		}
		if l.From[i] < 0 && len(bodies[i]) != size {
			return nil, fmt.Errorf("section %d: %d bytes, sized %d", i, len(bodies[i]), size)
		}
		st.Bodies = append(st.Bodies, encodedBody{Body: bodies[i], From: l.From[i]})
	}
	if dt != nil {
		l.Fold(bodies)
	}
	st.Stats, st.Calls = l.Stats()
	return st, nil
}

// migrateVars collects the given global variable blocks of src, the roots
// of one sectioned capture, and restores the sections into dst, where dst
// already declares matching variable blocks in the same order. Returns the
// save and restore stats.
func migrateVars(t *testing.T, src, dst *proc, vars []*msr.Block, dstVars []*msr.Block) (SaveStats, RestoreStats) {
	t.Helper()
	st, err := streamed(src.space, src.table, src.ti, Roots{Globals: addrsOf(vars)})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	rs, err := restoreGlobals(dst, st, addrsOf(dstVars))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return st.Stats, rs
}

// restoreGlobals restores a capture whose roots are all globals into dst:
// its heap sections in order, then its globals section, whose live
// references must name the variables at live.
func restoreGlobals(dst *proc, st *capture, live []memory.Address) (RestoreStats, error) {
	var total RestoreStats
	for _, sec := range st.Bodies[:st.Heap] {
		_, _, rs, err := RestoreHeapSection(dst.space, dst.table, dst.ti, xdr.NewDecoder(sec.Body), nil, false)
		if total.Add(rs); err != nil {
			return total, err
		}
	}
	rs, err := RestoreVarSection(dst.space, dst.table, dst.ti, xdr.NewDecoder(st.Bodies[st.Heap].Body), live, memory.Global, 0)
	total.Add(rs)
	return total, err
}

func TestScalarVariableRoundTrip(t *testing.T) {
	for _, pair := range [][2]*arch.Machine{
		{arch.Ultra5, arch.Ultra5},
		{arch.DEC5000, arch.SPARC20},
		{arch.SPARC20, arch.DEC5000},
		{arch.I386, arch.SPARCV9},
		{arch.AMD64, arch.SPARC20},
	} {
		ti := types.NewTI()
		ti.Add(types.Int)
		ti.Add(types.Double)
		src := newProc(pair[0], ti)
		dst := newProc(pair[1], ti)

		si := src.global(t, types.Int, "i")
		sd := src.global(t, types.Double, "d")
		di := dst.global(t, types.Int, "i")
		dd := dst.global(t, types.Double, "d")

		neg := int64(-123456)
		src.space.StorePrim(si.Addr, arch.Int, uint64(neg))
		src.space.StorePrim(sd.Addr, arch.Double, math.Float64bits(math.Pi))

		migrateVars(t, src, dst, []*msr.Block{si, sd}, []*msr.Block{di, dd})

		v, _ := dst.space.LoadPrim(di.Addr, arch.Int)
		if int64(v) != -123456 {
			t.Errorf("%s->%s: int = %d", pair[0].Name, pair[1].Name, int64(v))
		}
		d, _ := dst.space.LoadPrim(dd.Addr, arch.Double)
		if math.Float64frombits(d) != math.Pi {
			t.Errorf("%s->%s: double = %g", pair[0].Name, pair[1].Name, math.Float64frombits(d))
		}
	}
}

func TestAllPrimKindsRoundTrip(t *testing.T) {
	kinds := []arch.PrimKind{arch.Char, arch.UChar, arch.Short, arch.UShort,
		arch.Int, arch.UInt, arch.Long, arch.ULong, arch.LongLong,
		arch.ULongLong, arch.Float, arch.Double}
	vals := map[arch.PrimKind]uint64{
		arch.Char:      uint64(0xff91), // -111 after truncation to 1 byte
		arch.UChar:     200,
		arch.Short:     0x8001,
		arch.UShort:    65000,
		arch.Int:       0x80000001,
		arch.UInt:      4000000000,
		arch.Long:      1 << 30,
		arch.ULong:     3 << 30,
		arch.LongLong:  1 << 60,
		arch.ULongLong: 3 << 60,
		arch.Float:     uint64(math.Float32bits(1.25)),
		arch.Double:    math.Float64bits(-2.5e300),
	}
	ti := types.NewTI()
	for _, k := range kinds {
		ti.Add(types.PrimType(k))
	}
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	var sv, dv []*msr.Block
	for _, k := range kinds {
		sv = append(sv, src.global(t, types.PrimType(k), k.String()))
		dv = append(dv, dst.global(t, types.PrimType(k), k.String()))
	}
	for i, k := range kinds {
		src.space.StorePrim(sv[i].Addr, k, vals[k])
	}
	migrateVars(t, src, dst, sv, dv)
	for i, k := range kinds {
		want, _ := src.space.LoadPrim(sv[i].Addr, k)
		got, _ := dst.space.LoadPrim(dv[i].Addr, k)
		if got != want {
			t.Errorf("%s: got %#x, want %#x", k, got, want)
		}
	}
}

func TestLongLP64ToILP32Truncates(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.Long)
	src := newProc(arch.AMD64, ti)
	dst := newProc(arch.DEC5000, ti)
	sv := src.global(t, types.Long, "l")
	dv := dst.global(t, types.Long, "l")
	src.space.StorePrim(sv.Addr, arch.Long, 0x1_0000_0007) // exceeds 32 bits
	migrateVars(t, src, dst, []*msr.Block{sv}, []*msr.Block{dv})
	got, _ := dst.space.LoadPrim(dv.Addr, arch.Long)
	if got != 7 {
		t.Errorf("narrowed long = %#x, want 7 (C truncation semantics)", got)
	}
}

func TestCharArrayString(t *testing.T) {
	ti := types.NewTI()
	arr := types.ArrayOf(types.Char, 16)
	ti.Add(arr)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sv := src.global(t, arr, "s")
	dv := dst.global(t, arr, "s")
	src.space.WriteBytes(sv.Addr, []byte("hello, world\x00"))
	migrateVars(t, src, dst, []*msr.Block{sv}, []*msr.Block{dv})
	got, _ := dst.space.ReadBytes(dv.Addr, 13)
	if string(got) != "hello, world\x00" {
		t.Errorf("string = %q", got)
	}
}

func TestPointerChainHeterogeneous(t *testing.T) {
	// A three-node heap list rooted at a global, migrated LE32 -> BE64.
	n := nodeType("chain")
	ti := types.NewTI()
	ti.Add(types.PointerTo(n))

	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARCV9, ti)
	shead := src.global(t, types.PointerTo(n), "head")
	dhead := dst.global(t, types.PointerTo(n), "head")

	var blocks []*msr.Block
	for i := 0; i < 3; i++ {
		blocks = append(blocks, src.heap(t, n, 1))
	}
	linkOff := func(m *arch.Machine) memory.Address { return memory.Address(n.OffsetOf(m, 1)) }
	for i, b := range blocks {
		src.space.StorePrim(b.Addr, arch.Float, uint64(math.Float32bits(float32(i)+0.5)))
		if i+1 < len(blocks) {
			src.space.StorePtr(b.Addr+linkOff(src.m), blocks[i+1].Addr)
		}
	}
	src.space.StorePtr(shead.Addr, blocks[0].Addr)

	migrateVars(t, src, dst, []*msr.Block{shead}, []*msr.Block{dhead})

	// Walk the restored list.
	cur, _ := dst.space.LoadPtr(dhead.Addr)
	for i := 0; i < 3; i++ {
		if cur == 0 {
			t.Fatalf("list ended early at %d", i)
		}
		f, _ := dst.space.LoadPrim(cur, arch.Float)
		if math.Float32frombits(uint32(f)) != float32(i)+0.5 {
			t.Errorf("node %d data = %g", i, math.Float32frombits(uint32(f)))
		}
		cur, _ = dst.space.LoadPtr(cur + linkOff(dst.m))
	}
	if cur != 0 {
		t.Error("list does not end in null")
	}
}

func TestSharedBlockSavedOnce(t *testing.T) {
	// Two globals pointing at the same heap block: the block must be
	// transferred once and the restored pointers must alias.
	ti := types.NewTI()
	pd := types.PointerTo(types.Double)
	ti.Add(pd)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sp1 := src.global(t, pd, "p1")
	sp2 := src.global(t, pd, "p2")
	dp1 := dst.global(t, pd, "p1")
	dp2 := dst.global(t, pd, "p2")

	blk := src.heap(t, types.Double, 4)
	src.space.StorePrim(blk.Addr, arch.Double, math.Float64bits(9.75))
	src.space.StorePtr(sp1.Addr, blk.Addr)
	src.space.StorePtr(sp2.Addr, blk.Addr+16) // &blk[2]

	s, r := migrateVars(t, src, dst, []*msr.Block{sp1, sp2}, []*msr.Block{dp1, dp2})
	if s.Blocks != 3 { // p1, blk, p2 — blk only once
		t.Errorf("blocks saved = %d, want 3", s.Blocks)
	}
	if r.Allocated != 1 {
		t.Errorf("blocks allocated = %d, want 1", r.Allocated)
	}
	a1, _ := dst.space.LoadPtr(dp1.Addr)
	a2, _ := dst.space.LoadPtr(dp2.Addr)
	if a2 != a1+16 {
		t.Errorf("aliasing broken: p1=%#x p2=%#x", uint64(a1), uint64(a2))
	}
	v, _ := dst.space.LoadPrim(a1, arch.Double)
	if math.Float64frombits(v) != 9.75 {
		t.Errorf("shared block content = %g", math.Float64frombits(v))
	}
}

func TestCyclicStructure(t *testing.T) {
	// a -> b -> a cycle through heap nodes.
	n := nodeType("cyc")
	ti := types.NewTI()
	ti.Add(types.PointerTo(n))
	src := newProc(arch.SPARC20, ti)
	dst := newProc(arch.DEC5000, ti)
	sroot := src.global(t, types.PointerTo(n), "root")
	droot := dst.global(t, types.PointerTo(n), "root")

	a := src.heap(t, n, 1)
	b := src.heap(t, n, 1)
	lo := memory.Address(n.OffsetOf(src.m, 1))
	src.space.StorePtr(a.Addr+lo, b.Addr)
	src.space.StorePtr(b.Addr+lo, a.Addr)
	src.space.StorePtr(sroot.Addr, a.Addr)

	migrateVars(t, src, dst, []*msr.Block{sroot}, []*msr.Block{droot})

	dlo := memory.Address(n.OffsetOf(dst.m, 1))
	ra, _ := dst.space.LoadPtr(droot.Addr)
	rb, _ := dst.space.LoadPtr(ra + dlo)
	back, _ := dst.space.LoadPtr(rb + dlo)
	if back != ra {
		t.Errorf("cycle not restored: a=%#x, b->link=%#x", uint64(ra), uint64(back))
	}
}

func TestSelfPointer(t *testing.T) {
	n := nodeType("selfp")
	ti := types.NewTI()
	ti.Add(types.PointerTo(n))
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sroot := src.global(t, types.PointerTo(n), "root")
	droot := dst.global(t, types.PointerTo(n), "root")
	a := src.heap(t, n, 1)
	src.space.StorePtr(a.Addr+memory.Address(n.OffsetOf(src.m, 1)), a.Addr)
	src.space.StorePtr(sroot.Addr, a.Addr)
	migrateVars(t, src, dst, []*msr.Block{sroot}, []*msr.Block{droot})
	ra, _ := dst.space.LoadPtr(droot.Addr)
	self, _ := dst.space.LoadPtr(ra + memory.Address(n.OffsetOf(dst.m, 1)))
	if self != ra {
		t.Error("self-pointer not restored")
	}
}

func TestNullPointers(t *testing.T) {
	ti := types.NewTI()
	pd := types.PointerTo(types.Double)
	ti.Add(pd)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sv := src.global(t, pd, "p")
	dv := dst.global(t, pd, "p")
	// sv holds null.
	s, _ := migrateVars(t, src, dst, []*msr.Block{sv}, []*msr.Block{dv})
	if s.NullPointers != 1 {
		t.Errorf("null pointers = %d", s.NullPointers)
	}
	got, _ := dst.space.LoadPtr(dv.Addr)
	if got != 0 {
		t.Errorf("restored null = %#x", uint64(got))
	}
}

func TestFigure1Trace(t *testing.T) {
	// Reproduces the collection order property of the paper's Section
	// 3.2: collecting p (in foo) first pulls in parray and all four heap
	// nodes; the later collection of first adds no new block but its own.
	n := nodeType("fig1")
	pn := types.PointerTo(n)
	arrT := types.ArrayOf(pn, 10)
	ti := types.NewTI()
	ti.Add(pn)
	ti.Add(arrT)
	ti.Add(types.PointerTo(pn))

	src := newProc(arch.DEC5000, ti)
	first := src.global(t, pn, "first")
	last := src.global(t, pn, "last")

	// main's frame: parray.
	fb, _ := src.space.PushFrame(arrT.SizeOf(src.m))
	parray := &msr.Block{ID: msr.BlockID{Seg: memory.Stack, Major: 1}, Addr: fb, Type: arrT, Count: 1, Name: "parray"}
	if err := src.table.Register(parray); err != nil {
		t.Fatal(err)
	}
	// foo's frame: p (a node **) pointing at &parray[4].
	fb2, _ := src.space.PushFrame(src.m.PtrSize())
	p := &msr.Block{ID: msr.BlockID{Seg: memory.Stack, Major: 2}, Addr: fb2, Type: types.PointerTo(pn), Count: 1, Name: "p"}
	if err := src.table.Register(p); err != nil {
		t.Fatal(err)
	}
	src.space.StorePtr(p.Addr, parray.Addr+memory.Address(4*src.m.PtrSize()))

	var nodes []*msr.Block
	for i := 0; i < 4; i++ {
		nb := src.heap(t, n, 1)
		nodes = append(nodes, nb)
		src.space.StorePtr(parray.Addr+memory.Address(i*src.m.PtrSize()), nb.Addr)
	}
	lo := memory.Address(n.OffsetOf(src.m, 1))
	src.space.StorePtr(first.Addr, nodes[0].Addr)
	src.space.StorePtr(last.Addr, nodes[3].Addr)
	src.space.StorePtr(nodes[0].Addr+lo, nodes[3].Addr)
	for i := 1; i < 4; i++ {
		src.space.StorePtr(nodes[i].Addr+lo, nodes[i-1].Addr)
	}

	// Collecting p alone — foo's live variable, the innermost frame's —
	// reaches p, parray and all four nodes, parray[0]'s chain first: node
	// 0, then the 3, 2, 1 its links lead to.
	pt, err := buildPartition(src.space, src.table, src.ti, Roots{FrameLive: [][]memory.Address{nil, {p.Addr}}})
	if err != nil {
		t.Fatal(err)
	}
	visited := fmt.Sprint(memberIDs(pt.frames[1]), memberIDs(pt.frames[0]), len(pt.components), memberIDs(pt.components[0]), len(pt.globals))
	heap := ids([]*msr.Block{nodes[0], nodes[3], nodes[2], nodes[1]})
	if want := fmt.Sprint(ids([]*msr.Block{p}), ids([]*msr.Block{parray}), 1, heap, 0); visited != want {
		t.Errorf("collecting p visits %s, want %s", visited, want)
	}
	// The paper's full order — p, main's parray, then the globals — owns
	// the same blocks the same way, plus first and last themselves.
	pt, err = buildPartition(src.space, src.table, src.ti, Roots{FrameLive: [][]memory.Address{{parray.Addr}, {p.Addr}}, Globals: []memory.Address{first.Addr, last.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	visited = fmt.Sprint(memberIDs(pt.frames[1]), memberIDs(pt.frames[0]), len(pt.components), memberIDs(pt.components[0]), memberIDs(pt.globals))
	if want := fmt.Sprint(ids([]*msr.Block{p}), ids([]*msr.Block{parray}), 1, heap, ids([]*msr.Block{first, last})); visited != want {
		t.Errorf("collecting p, parray, first and last visits %s, want %s", visited, want)
	}
}

func TestHeapArrayBlock(t *testing.T) {
	// malloc(10 * sizeof(node)): Count > 1 with pointers between elements.
	n := nodeType("harr")
	ti := types.NewTI()
	ti.Add(types.PointerTo(n))
	src := newProc(arch.I386, ti)
	dst := newProc(arch.SPARCV9, ti)
	sr := src.global(t, types.PointerTo(n), "r")
	dr := dst.global(t, types.PointerTo(n), "r")
	blk := src.heap(t, n, 10)
	es := n.SizeOf(src.m)
	lo := memory.Address(n.OffsetOf(src.m, 1))
	for i := 0; i < 10; i++ {
		base := blk.Addr + memory.Address(i*es)
		src.space.StorePrim(base, arch.Float, uint64(math.Float32bits(float32(i))))
		if i > 0 {
			src.space.StorePtr(base+lo, blk.Addr+memory.Address((i-1)*es))
		}
	}
	src.space.StorePtr(sr.Addr, blk.Addr+memory.Address(9*es)) // points at last element

	migrateVars(t, src, dst, []*msr.Block{sr}, []*msr.Block{dr})

	des := n.SizeOf(dst.m)
	dlo := memory.Address(n.OffsetOf(dst.m, 1))
	cur, _ := dst.space.LoadPtr(dr.Addr)
	for i := 9; i >= 0; i-- {
		f, _ := dst.space.LoadPrim(cur, arch.Float)
		if math.Float32frombits(uint32(f)) != float32(i) {
			t.Fatalf("element %d data = %g", i, math.Float32frombits(uint32(f)))
		}
		next, _ := dst.space.LoadPtr(cur + dlo)
		if i > 0 && next != cur-memory.Address(des) {
			t.Fatalf("element %d link wrong", i)
		}
		cur = next
	}
}

func TestUnresolvablePointerError(t *testing.T) {
	ti := types.NewTI()
	pd := types.PointerTo(types.Double)
	ti.Add(pd)
	src := newProc(arch.DEC5000, ti)
	sv := src.global(t, pd, "p")
	// Point at memory that is mapped but not a registered block.
	stray, _ := src.space.Malloc(8)
	src.space.StorePtr(sv.Addr, stray)
	if _, err := streamed(src.space, src.table, src.ti, Roots{Globals: []memory.Address{sv.Addr}}); err == nil {
		t.Error("collection of dangling pointer succeeded")
	}
}

func TestShapeMismatchDetected(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.Int)
	ti.Add(types.Double)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sv := src.global(t, types.Int, "x")
	dv := dst.global(t, types.Double, "x") // wrong type on destination

	st, err := streamed(src.space, src.table, src.ti, Roots{Globals: []memory.Address{sv.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreGlobals(dst, st, []memory.Address{dv.Addr}); err == nil ||
		!strings.Contains(err.Error(), "shape mismatch") {
		t.Errorf("shape mismatch not detected: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.Double)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sv := src.global(t, types.Double, "d")
	dv := dst.global(t, types.Double, "d")
	st, err := streamed(src.space, src.table, src.ti, Roots{Globals: []memory.Address{sv.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	body := st.Bodies[st.Heap].Body
	for cut := 0; cut < len(body); cut += 4 {
		_, err := RestoreVarSection(dst.space, dst.table, dst.ti, xdr.NewDecoder(body[:cut]), []memory.Address{dv.Addr}, memory.Global, 0)
		if err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestInvalidSegmentInStream(t *testing.T) {
	ti := types.NewTI()
	dst := newProc(arch.SPARC20, ti)
	enc := xdr.NewEncoder(16)
	enc.PutUint32(7) // invalid segment
	enc.PutUint32(0)
	enc.PutUint32(0)
	enc.PutUint32(0)
	r := NewRestorer(dst.space, dst.table, dst.ti, xdr.NewDecoder(enc.Bytes()))
	if _, err := r.RestorePointer(); err == nil {
		t.Error("invalid segment accepted")
	}
}

func TestSavePointerDirect(t *testing.T) {
	// Save_pointer(p) with the value is the reference the walk records for
	// it and the encoder writes; p = Restore_pointer() translates that
	// reference into the restored block.
	ti := types.NewTI()
	pd := types.PointerTo(types.Double)
	ti.Add(pd)
	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARC20, ti)
	sp := src.global(t, pd, "p")
	dp := dst.global(t, pd, "p")
	blk := src.heap(t, types.Double, 5)
	src.space.StorePrim(blk.Addr+24, arch.Double, math.Float64bits(6.5))
	src.space.StorePtr(sp.Addr, blk.Addr+24) // &blk[3]
	migrateVars(t, src, dst, []*msr.Block{sp}, []*msr.Block{dp})

	ref, _, _, err := resolve(src.table.Pages(), src.m, nil, blk.Addr+24)
	if err != nil {
		t.Fatal(err)
	}
	enc := xdr.NewEncoder(16)
	enc.Put4Uint32(ref[0], ref[1], ref[2], ref[3])
	p, err := NewRestorer(dst.space, dst.table, dst.ti, xdr.NewDecoder(enc.Bytes())).RestorePointer()
	if err != nil {
		t.Fatal(err)
	}
	if restored, _ := dst.space.LoadPtr(dp.Addr); p != restored {
		t.Errorf("Restore_pointer = %#x, restored p = %#x", uint64(p), uint64(restored))
	}
	v, _ := dst.space.LoadPrim(p, arch.Double)
	if math.Float64frombits(v) != 6.5 {
		t.Errorf("restored *p = %g", math.Float64frombits(v))
	}
}

func TestStatsAndInstrumentation(t *testing.T) {
	ti := types.NewTI()
	ti.Add(types.PointerTo(types.Double))
	src := newProc(arch.Ultra5, ti)
	dst := newProc(arch.Ultra5, ti)
	sv := src.global(t, types.PointerTo(types.Double), "p")
	dv := dst.global(t, types.PointerTo(types.Double), "p")
	blk := src.heap(t, types.Double, 100000)
	src.space.StorePtr(sv.Addr, blk.Addr)

	s, r := migrateVars(t, src, dst, []*msr.Block{sv}, []*msr.Block{dv})
	if s.SearchTime <= 0 || s.EncodeTime <= 0 {
		t.Error("capture recorded no search or encode time")
	}
	if s.DataBytes != 800000 {
		t.Errorf("data bytes = %d", s.DataBytes)
	}
	if src.table.Stats.Searches == 0 {
		t.Error("no searches recorded")
	}
	if r.DecodeTime <= 0 || r.UpdateTime <= 0 {
		t.Error("restore recorded no update or decode time")
	}
	if r.DataBytes != 800000 {
		t.Errorf("restore data bytes = %d", r.DataBytes)
	}
}

// TestRandomGraphRoundTrip migrates randomly shaped heap graphs between
// random machine pairs and verifies the MSR graphs before and after are
// isomorphic (identical canonical forms).
func TestRandomGraphRoundTrip(t *testing.T) {
	machines := arch.Machines()
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		srcM := machines[rng.Intn(len(machines))]
		dstM := machines[rng.Intn(len(machines))]

		n := nodeType("rnd")
		pn := types.PointerTo(n)
		ti := types.NewTI()
		ti.Add(pn)

		src := newProc(srcM, ti)
		dst := newProc(dstM, ti)
		sroot := src.global(t, pn, "root")
		droot := dst.global(t, pn, "root")

		nblocks := 1 + rng.Intn(40)
		var blocks []*msr.Block
		for i := 0; i < nblocks; i++ {
			blocks = append(blocks, src.heap(t, n, 1))
		}
		lo := memory.Address(n.OffsetOf(srcM, 1))
		for i, b := range blocks {
			src.space.StorePrim(b.Addr, arch.Float, uint64(math.Float32bits(float32(i))))
			// Random link: null, or any block (cycles allowed).
			if rng.Intn(4) != 0 {
				tgt := blocks[rng.Intn(len(blocks))]
				src.space.StorePtr(b.Addr+lo, tgt.Addr)
			}
		}
		src.space.StorePtr(sroot.Addr, blocks[0].Addr)

		migrateVars(t, src, dst, []*msr.Block{sroot}, []*msr.Block{droot})

		// Compare the reachable subgraphs canonically. Restored tables
		// contain only reachable blocks, so restrict the source graph.
		gs, err := msr.BuildGraph(src.space, src.table)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := msr.BuildGraph(dst.space, dst.table)
		if err != nil {
			t.Fatal(err)
		}
		reach := reachable(gs, sroot.ID)
		// Drop unreachable source vertices for comparison.
		var filtered msr.Graph
		for _, v := range gs.Vertices {
			if reach[v.ID] {
				filtered.Vertices = append(filtered.Vertices, v)
			}
		}
		for _, e := range gs.Edges {
			if reach[e.From] {
				filtered.Edges = append(filtered.Edges, e)
			}
		}
		if filtered.Canonical() != gd.Canonical() {
			t.Fatalf("trial %d (%s->%s): graphs differ\nsource:\n%s\ndest:\n%s",
				trial, srcM.Name, dstM.Name, filtered.Canonical(), gd.Canonical())
		}
		// Data values must match too.
		for _, v := range gd.Vertices {
			if v.ID.Seg != memory.Heap {
				continue
			}
			sb, ok := src.table.ByID(v.ID)
			if !ok {
				t.Fatal("restored block missing on source")
			}
			sf, _ := src.space.LoadPrim(sb.Addr, arch.Float)
			df, _ := dst.space.LoadPrim(v.Addr, arch.Float)
			if sf != df {
				t.Fatalf("data mismatch in %s: %#x vs %#x", v.ID, sf, df)
			}
		}
	}
}

func TestEncoderAccessorAndRepetitionPlans(t *testing.T) {
	// A heap block whose type needs a repetition plan (large array of
	// structs inside one element type), exercising the Sub-op paths on
	// both the save and restore side.
	inner := types.NewStruct("repNode")
	inner.DefineFields([]types.Field{
		{Name: "v", Type: types.Short},
		{Name: "p", Type: types.PointerTo(types.Double)},
	})
	big := types.NewStruct("repHolder")
	big.DefineFields([]types.Field{
		{Name: "items", Type: types.ArrayOf(inner, 100)}, // > expand limit
	})
	ti := types.NewTI()
	ti.Add(types.PointerTo(big))
	ti.Add(types.Double)

	src := newProc(arch.DEC5000, ti)
	dst := newProc(arch.SPARCV9, ti)
	sroot := src.global(t, types.PointerTo(big), "root")
	droot := dst.global(t, types.PointerTo(big), "root")
	blk := src.heap(t, big, 1)
	shared := src.heap(t, types.Double, 1)
	src.space.StorePrim(shared.Addr, arch.Double, math.Float64bits(6.25))
	es := inner.SizeOf(src.m)
	for i := 0; i < 100; i++ {
		base := blk.Addr + memory.Address(big.OffsetOf(src.m, 0)+i*es)
		src.space.StorePrim(base, arch.Short, uint64(i))
		if i%3 == 0 {
			src.space.StorePtr(base+memory.Address(inner.OffsetOf(src.m, 1)), shared.Addr)
		}
	}
	src.space.StorePtr(sroot.Addr, blk.Addr)

	migrateVars(t, src, dst, []*msr.Block{sroot}, []*msr.Block{droot})
	// Verify a sample of elements and the shared pointer aliasing.
	dblk, _ := dst.table.ByID(blk.ID)
	des := inner.SizeOf(dst.m)
	var firstShared memory.Address
	for i := 0; i < 100; i++ {
		base := dblk.Addr + memory.Address(big.OffsetOf(dst.m, 0)+i*des)
		v, _ := dst.space.LoadPrim(base, arch.Short)
		if int64(v) != int64(i) {
			t.Fatalf("item %d value = %d", i, int64(v))
		}
		pv, _ := dst.space.LoadPtr(base + memory.Address(inner.OffsetOf(dst.m, 1)))
		if i%3 == 0 {
			if pv == 0 {
				t.Fatalf("item %d lost its pointer", i)
			}
			if firstShared == 0 {
				firstShared = pv
			} else if pv != firstShared {
				t.Fatalf("item %d does not alias the shared block", i)
			}
		} else if pv != 0 {
			t.Fatalf("item %d has spurious pointer", i)
		}
	}
	got, _ := dst.space.LoadPrim(firstShared, arch.Double)
	if math.Float64frombits(got) != 6.25 {
		t.Errorf("shared double = %g", math.Float64frombits(got))
	}
}

// reachable is the set of blocks of g its edges reach from root, root
// included.
func reachable(g *msr.Graph, root msr.BlockID) map[msr.BlockID]bool {
	seen := map[msr.BlockID]bool{root: true}
	for stack := []msr.BlockID{root}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Edges {
			if e.From == id && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

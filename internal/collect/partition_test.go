package collect

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// The oracle below is the sectioned collector as it was first written: a
// recursive depth-first walk with a visited map, and an encoder that loads
// and resolves every pointer again. It reads a block's scalars through the
// type graph (ScalarType, OrdinalToOffset), not through plans, so it shares
// neither the explicit stack, the dense visit state, the recorded
// references nor the plan interpreter with the code it checks.

type oracle struct {
	p       *proc
	visited map[msr.BlockID]bool
	heapIdx map[msr.BlockID]int
	heap    []*msr.Block
	parent  []int
	frames  [][]*msr.Block
	globals []*msr.Block
}

func (o *oracle) find(i int) int {
	for o.parent[i] != i {
		i = o.parent[i]
	}
	return i
}

func (o *oracle) visitAddr(t *testing.T, addr memory.Address) *msr.Block {
	b, _, _, err := o.p.table.Lookup(o.p.m, addr)
	if err != nil {
		t.Fatal(err)
	}
	o.visitBlock(t, b)
	return b
}

func (o *oracle) visitBlock(t *testing.T, b *msr.Block) {
	if o.visited[b.ID] {
		return
	}
	o.visited[b.ID] = true
	switch b.ID.Seg {
	case memory.Heap:
		o.heapIdx[b.ID] = len(o.heap)
		o.heap = append(o.heap, b)
		o.parent = append(o.parent, len(o.parent))
	case memory.Stack:
		o.frames[b.ID.Major-1] = append(o.frames[b.ID.Major-1], b)
	case memory.Global:
		o.globals = append(o.globals, b)
	}
	o.eachScalar(b, func(addr memory.Address, ty *types.Type) {
		if !ty.IsPointer() {
			return
		}
		val, _ := o.p.space.LoadPtr(addr)
		if val == 0 {
			return
		}
		tb := o.visitAddr(t, val)
		if b.ID.Seg == memory.Heap && tb.ID.Seg == memory.Heap {
			if ra, rb := o.find(o.heapIdx[b.ID]), o.find(o.heapIdx[tb.ID]); ra < rb {
				o.parent[rb] = ra
			} else {
				o.parent[ra] = rb
			}
		}
	})
}

// eachScalar visits the block's scalars in ordinal order.
func (o *oracle) eachScalar(b *msr.Block, f func(addr memory.Address, ty *types.Type)) {
	es, per := b.Type.SizeOf(o.p.m), b.Type.ScalarCount()
	for elem := 0; elem < b.Count; elem++ {
		for ord := 0; ord < per; ord++ {
			f(b.Addr+memory.Address(elem*es+b.Type.OrdinalToOffset(o.p.m, ord)), b.Type.ScalarType(ord))
		}
	}
}

func (o *oracle) components() [][]*msr.Block {
	compOf := map[int]int{}
	var comps [][]*msr.Block
	for i, b := range o.heap {
		root := o.find(i)
		c, ok := compOf[root]
		if !ok {
			c = len(comps)
			compOf[root] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], b)
	}
	return comps
}

// body encodes one section the slow way. Every scalar of the test's types
// is four bytes on the wire.
func (o *oracle) body(t *testing.T, blocks []*msr.Block, live []memory.Address, withLive bool) []byte {
	enc := xdr.NewEncoder(256)
	putRef := func(p memory.Address) {
		if p == 0 {
			enc.PutUint32(nullSeg)
			return
		}
		ref, err := msr.Resolve(o.p.table, o.p.m, p)
		if err != nil {
			t.Fatal(err)
		}
		enc.Put4Uint32(uint32(ref.ID.Seg), ref.ID.Major, ref.ID.Minor, uint32(ref.Ordinal))
	}
	if withLive {
		enc.PutUint32(uint32(len(live)))
		for _, a := range live {
			putRef(a)
		}
	}
	enc.PutUint32(uint32(len(blocks)))
	for _, b := range blocks {
		ti, ok := o.p.ti.Index(b.Type)
		if !ok {
			t.Fatalf("type %s is not in the TI table", b.Type)
		}
		enc.Put4Uint32(b.ID.Major, b.ID.Minor, uint32(ti), uint32(b.Count))
	}
	for _, b := range blocks {
		o.eachScalar(b, func(addr memory.Address, ty *types.Type) {
			if ty.IsPointer() {
				val, _ := o.p.space.LoadPtr(addr)
				putRef(val)
				return
			}
			v, _ := o.p.space.LoadPrim(addr, ty.Prim)
			enc.PutUint32(uint32(v))
		})
	}
	return enc.Bytes()
}

// randomImage builds a process image whose graph has what the walk's order
// and the recorded references could get wrong: sharing, cycles, self
// pointers, interior and one-past-the-end pointers, multi-element blocks,
// heap → stack and heap → global edges, unreachable blocks, and several
// components that merge late.
func randomImage(t *testing.T, rng *rand.Rand, m *arch.Machine) (*proc, Roots) {
	node := types.NewStruct(fmt.Sprintf("gnode%d", rng.Int()))
	np := types.PointerTo(node)
	fp := types.PointerTo(types.Float)
	node.DefineFields([]types.Field{
		{Name: "id", Type: types.Int},
		{Name: "w", Type: types.Float}, // &w is an interior pointer
		{Name: "a", Type: np},
		{Name: "b", Type: np},
		{Name: "f", Type: fp},
	})
	ti := types.NewTI()
	ti.Add(np)
	ti.Add(fp)
	ti.Add(types.ArrayOf(np, 3))
	p := newProc(m, ti)

	var heap []*msr.Block
	for i := 0; i < 40+rng.Intn(40); i++ {
		heap = append(heap, p.heap(t, node, 1+rng.Intn(3)*rng.Intn(2)))
	}
	// Two frames and the globals: pointer variables, a pointer array and
	// float variables (the targets of heap → stack and heap → global edges).
	var floats, ptrVars []*msr.Block
	roots := Roots{FrameLive: make([][]memory.Address, 2)}
	for depth := uint32(1); depth <= 2; depth++ {
		for i, ty := range []*types.Type{np, types.Float, types.ArrayOf(np, 3), np} {
			size := ty.SizeOf(m)
			base, err := p.space.PushFrame(size)
			if err != nil {
				t.Fatal(err)
			}
			b := &msr.Block{ID: msr.BlockID{Seg: memory.Stack, Major: depth, Minor: uint32(i)}, Addr: base, Type: ty, Count: 1}
			if err := p.table.Register(b); err != nil {
				t.Fatal(err)
			}
			if ty == types.Float {
				floats = append(floats, b)
			} else {
				ptrVars = append(ptrVars, b)
			}
			if i != 3 { // the last variable of each frame is not live
				roots.FrameLive[depth-1] = append(roots.FrameLive[depth-1], base)
			}
		}
	}
	for _, ty := range []*types.Type{np, types.Float, np} {
		b := p.global(t, ty, "g")
		if ty == types.Float {
			floats = append(floats, b)
		} else {
			ptrVars = append(ptrVars, b)
		}
		roots.Globals = append(roots.Globals, b.Addr)
	}

	// Four groups of nodes; a pointer mostly stays in its group, so the
	// heap falls into several components, some joined by one late edge.
	es := node.SizeOf(m)
	nodePtr := func(group int) memory.Address {
		if rng.Intn(10) == 0 {
			group = rng.Intn(4)
		}
		b := heap[(rng.Intn(len(heap))/4*4+group)%len(heap)]
		switch r := rng.Intn(10); {
		case r < 2:
			return 0
		case r == 2:
			return b.Addr + memory.Address(b.Count*es) // one past the end
		default:
			return b.Addr + memory.Address(rng.Intn(b.Count)*es) // an element, usually the base
		}
	}
	floatPtr := func() memory.Address {
		switch r := rng.Intn(4); {
		case r == 0:
			return 0
		case r == 1:
			return floats[rng.Intn(len(floats))].Addr // heap → stack or global
		default:
			b := heap[rng.Intn(len(heap))]
			return b.Addr + memory.Address(rng.Intn(b.Count)*es+node.OffsetOf(m, 1)) // interior: &node.w
		}
	}
	for i, b := range heap {
		for e := 0; e < b.Count; e++ {
			at := b.Addr + memory.Address(e*es)
			p.space.StorePrim(at, arch.Int, uint64(i*8+e))
			p.space.StorePrim(at+memory.Address(node.OffsetOf(m, 1)), arch.Float, uint64(rng.Uint32()))
			p.space.StorePtr(at+memory.Address(node.OffsetOf(m, 2)), nodePtr(i%4))
			p.space.StorePtr(at+memory.Address(node.OffsetOf(m, 3)), nodePtr(i%4))
			if rng.Intn(3) == 0 {
				p.space.StorePtr(at+memory.Address(node.OffsetOf(m, 4)), floatPtr())
			}
		}
	}
	for i, v := range ptrVars {
		for k := 0; k < v.Type.ScalarCount(); k++ {
			p.space.StorePtr(v.Addr+memory.Address(k*m.PtrSize()), nodePtr(i%4))
		}
	}
	for _, f := range floats {
		p.space.StorePrim(f.Addr, arch.Float, uint64(rng.Uint32()))
	}
	return p, roots
}

func ids(blocks []*msr.Block) []msr.BlockID {
	out := make([]msr.BlockID, len(blocks))
	for i, b := range blocks {
		out[i] = b.ID
	}
	return out
}

func memberIDs(ms []member) []msr.BlockID {
	out := make([]msr.BlockID, len(ms))
	for i, mb := range ms {
		out[i] = mb.b.ID
	}
	return out
}

// TestPartitionMatchesRecursiveWalk holds the iterative walk to the
// recursive one it replaced: the same blocks, the same owners, the same
// component numbering and member order — and holds the bodies written from
// the references the walk recorded to bodies encoded by resolving every
// pointer again.
func TestPartitionMatchesRecursiveWalk(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		m := []*arch.Machine{arch.DEC5000, arch.SPARCV9, arch.I386, arch.AMD64}[trial%4]
		p, roots := randomImage(t, rng, m)
		p.table.UseBaseIndex = trial%5 == 4 // the walk's positions must hold on a base-index hit too

		o := &oracle{p: p, visited: map[msr.BlockID]bool{}, heapIdx: map[msr.BlockID]int{}, frames: make([][]*msr.Block, 2)}
		for i := len(roots.FrameLive) - 1; i >= 0; i-- {
			for _, a := range roots.FrameLive[i] {
				o.visitAddr(t, a)
			}
		}
		for _, a := range roots.Globals {
			o.visitAddr(t, a)
		}
		want := o.components()

		pt, err := buildPartition(p.space, p.table, p.ti, roots)
		if err != nil {
			t.Fatal(err)
		}
		if len(pt.components) != len(want) {
			t.Fatalf("trial %d: %d components, recursive walk finds %d", trial, len(pt.components), len(want))
		}
		for c := range want {
			if got, w := fmt.Sprint(memberIDs(pt.components[c])), fmt.Sprint(ids(want[c])); got != w {
				t.Fatalf("trial %d component %d:\n got %s\nwant %s", trial, c, got, w)
			}
		}
		for i := range o.frames {
			if got, w := fmt.Sprint(memberIDs(pt.frames[i])), fmt.Sprint(ids(o.frames[i])); got != w {
				t.Fatalf("trial %d frame %d:\n got %s\nwant %s", trial, i+1, got, w)
			}
		}
		if got, w := fmt.Sprint(memberIDs(pt.globals)), fmt.Sprint(ids(o.globals)); got != w {
			t.Fatalf("trial %d globals:\n got %s\nwant %s", trial, got, w)
		}

		searches := p.table.Stats.Searches
		st, err := streamed(p.space, p.table, p.ti, roots)
		if err != nil {
			t.Fatal(err)
		}
		// One search per root and per non-null pointer scalar, and none by
		// the encoder: exactly the non-null references it wrote.
		if got, w := p.table.Stats.Searches-searches, st.Stats.Pointers-st.Stats.NullPointers; got != w {
			t.Errorf("trial %d: capture made %d MSRLT searches, wrote %d non-null references", trial, got, w)
		}
		for c, sec := range st.Bodies[:st.Heap] {
			if !bytes.Equal(sec.Body, o.body(t, want[c], nil, false)) {
				t.Fatalf("trial %d: heap section %d differs from the re-resolving encoder", trial, c)
			}
		}
		for i := range o.frames { // innermost first
			sec := st.Bodies[st.Heap+len(o.frames)-1-i]
			if !bytes.Equal(sec.Body, o.body(t, o.frames[i], roots.FrameLive[i], true)) {
				t.Fatalf("trial %d: frame section %d differs from the re-resolving encoder", trial, i+1)
			}
		}
		if !bytes.Equal(st.Bodies[len(st.Bodies)-1].Body, o.body(t, o.globals, roots.Globals, true)) {
			t.Fatalf("trial %d: globals section differs from the re-resolving encoder", trial)
		}
	}
}

// TestPartitionRejectsBadPointers: a pointer into padding, past a block's
// end or into no block fails the capture in the walk, naming the pointer.
func TestPartitionRejectsBadPointers(t *testing.T) {
	m := arch.SPARCV9 // struct { char c; double d; }: 7 bytes of padding after c
	padded := types.NewStruct("padded")
	padded.DefineFields([]types.Field{{Name: "c", Type: types.Char}, {Name: "d", Type: types.Double}})
	cp := types.PointerTo(types.Char)
	ti := types.NewTI()
	ti.Add(types.PointerTo(cp))
	ti.Add(padded)
	for name, tc := range map[string]struct {
		at   func(target *msr.Block) memory.Address
		want error
		text string
	}{
		"padding":  {at: func(b *msr.Block) memory.Address { return b.Addr + 3 }, text: "falls in padding"},
		"past end": {at: func(b *msr.Block) memory.Address { return b.Addr + 17 }, want: msr.ErrNotFound, text: "past block"},
		"no block": {at: func(*msr.Block) memory.Address { return memory.StackBase - 64 }, want: msr.ErrNotFound, text: "unresolvable pointer"},
	} {
		p := newProc(m, ti)
		holder := p.heap(t, cp, 1)
		target := p.heap(t, padded, 1) // the last block of the heap
		root := p.global(t, types.PointerTo(cp), "root")
		p.space.StorePtr(root.Addr, holder.Addr)
		p.space.StorePtr(holder.Addr, tc.at(target))
		_, err := streamed(p.space, p.table, p.ti, Roots{Globals: []memory.Address{root.Addr}})
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.text)) || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestHeapSectionRepeatedMajor: a heap major that a second section's
// directory repeats — hashed or held in the dense slice, below or past the
// density bound — fails that section with ErrCorruptStream, naming the
// table's ErrDuplicate, and the first section's blocks stay registered.
func TestHeapSectionRepeatedMajor(t *testing.T) {
	ti := types.NewTI()
	tIdx := uint32(ti.Add(types.Int))
	section := func(majors ...uint32) []byte {
		enc := xdr.NewEncoder(64)
		enc.PutUint32(uint32(len(majors)))
		for _, major := range majors {
			enc.Put4Uint32(major, 0, tIdx, 1)
		}
		for range majors {
			enc.PutUint32(42)
		}
		return enc.Bytes()
	}
	for _, tc := range []struct {
		name          string
		first, second []uint32
	}{
		{"dense", []uint32{0, 1, 2}, []uint32{3, 1}},
		{"sparse", []uint32{0, 1 << 31, 1<<32 - 1}, []uint32{5, 1<<32 - 1}},
		{"hashed, then within the bound", []uint32{100}, []uint32{0, 1, 2, 3, 100}},
	} {
		p := newProc(arch.SPARC20, ti)
		first, _, _, err := RestoreHeapSection(p.space, p.table, ti, xdr.NewDecoder(section(tc.first...)), nil, false)
		if err != nil {
			t.Fatalf("%s: first section: %v", tc.name, err)
		}
		_, _, _, err = RestoreHeapSection(p.space, p.table, ti, xdr.NewDecoder(section(tc.second...)), nil, false)
		if !errors.Is(err, ErrCorruptStream) || !strings.Contains(fmt.Sprint(err), msr.ErrDuplicate.Error()) {
			t.Errorf("%s: second section repeating a major: %v, want ErrCorruptStream naming the duplicate", tc.name, err)
		}
		if p.table.Len() != len(tc.first) {
			t.Errorf("%s: %d blocks registered after the refused section, want the first section's %d", tc.name, p.table.Len(), len(tc.first))
		}
		for _, b := range first {
			if got, ok := p.table.ByID(b.ID); !ok || got != b {
				t.Errorf("%s: ByID(%s) = %v, %v after the refused section", tc.name, b.ID, got, ok)
			}
		}
	}
}

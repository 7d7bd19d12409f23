package msr

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

func nodeType(tag string) *types.Type {
	n := types.NewStruct(tag)
	n.DefineFields([]types.Field{
		{Name: "data", Type: types.Float},
		{Name: "link", Type: types.PointerTo(n)},
	})
	return n
}

func globalID(i uint32) BlockID { return BlockID{Seg: memory.Global, Minor: i} }
func stackID(d, v uint32) BlockID {
	return BlockID{Seg: memory.Stack, Major: d, Minor: v}
}

func TestBlockIDString(t *testing.T) {
	if got := (BlockID{Seg: memory.Heap, Major: 42}).String(); got != "heap:42" {
		t.Errorf("heap id = %q", got)
	}
	if got := stackID(3, 1).String(); got != "stack:3.1" {
		t.Errorf("stack id = %q", got)
	}
}

func TestRegisterLookup(t *testing.T) {
	sp := memory.NewSpace(arch.Ultra5)
	tbl := NewTable()
	addr, _ := sp.GlobalAlloc(40, 8)
	b := &Block{ID: globalID(0), Addr: addr, Type: types.ArrayOf(types.Int, 10), Count: 1, Name: "xs"}
	if err := tbl.Register(b); err != nil {
		t.Fatal(err)
	}
	m := arch.Ultra5

	got, pos, off, err := tbl.Lookup(m, addr+8)
	if err != nil || got != b || pos != 0 || off != 8 {
		t.Errorf("Lookup = %v, %d, %d, %v", got, pos, off, err)
	}
	// One past the end is legal.
	if _, _, off, err := tbl.Lookup(m, addr+40); err != nil || off != 40 {
		t.Errorf("one-past-end lookup: off=%d err=%v", off, err)
	}
	// Beyond that is not.
	if _, _, _, err := tbl.Lookup(m, addr+41); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup past block: %v", err)
	}
	// Before the block is not found either.
	if _, _, _, err := tbl.Lookup(m, addr-1); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup before block: %v", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	sp := memory.NewSpace(arch.Ultra5)
	tbl := NewTable()
	addr, _ := sp.GlobalAlloc(8, 8)
	b := &Block{ID: globalID(0), Addr: addr, Type: types.Double, Count: 1}
	if err := tbl.Register(b); err != nil {
		t.Fatal(err)
	}
	dup := &Block{ID: globalID(0), Addr: addr + 8, Type: types.Double, Count: 1}
	if err := tbl.Register(dup); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate ID: %v", err)
	}
}

func TestSegmentMismatch(t *testing.T) {
	sp := memory.NewSpace(arch.Ultra5)
	tbl := NewTable()
	addr, _ := sp.GlobalAlloc(8, 8)
	b := &Block{ID: BlockID{Seg: memory.Heap}, Addr: addr, Type: types.Double, Count: 1}
	if err := tbl.Register(b); err == nil {
		t.Error("register with mismatched segment succeeded")
	}
}

func TestUnregister(t *testing.T) {
	sp := memory.NewSpace(arch.Ultra5)
	tbl := NewTable()
	a, _ := sp.Malloc(16)
	b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 2}
	if err := tbl.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unregister(a); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Error("table not empty after unregister")
	}
	if err := tbl.Unregister(a); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unregister: %v", err)
	}
	if _, ok := tbl.ByID(b.ID); ok {
		t.Error("ID still resolvable after unregister")
	}
}

func TestLookupManyBlocks(t *testing.T) {
	sp := memory.NewSpace(arch.SPARC20)
	tbl := NewTable()
	var blocks []*Block
	for i := 0; i < 100; i++ {
		a, _ := sp.Malloc(24)
		b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}
		if err := tbl.Register(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for _, b := range blocks {
		got, _, off, err := tbl.Lookup(arch.SPARC20, b.Addr+16)
		if err != nil || got != b || off != 16 {
			t.Fatalf("lookup of %s failed: %v %d %v", b.ID, got, off, err)
		}
	}
	// Search steps should be logarithmic: ~log2(100) per search.
	perSearch := float64(tbl.Stats.SearchSteps) / float64(tbl.Stats.Searches)
	if perSearch < 3 || perSearch > 10 {
		t.Errorf("search steps per lookup = %.1f, expected ~log2(100)≈6.6", perSearch)
	}
}

func TestHeapIDSequenceAndFloor(t *testing.T) {
	tbl := NewTable()
	id0 := tbl.NextHeapID()
	id1 := tbl.NextHeapID()
	if id0.Major != 0 || id1.Major != 1 {
		t.Errorf("heap sequence: %v %v", id0, id1)
	}
	tbl.RestoreFloor(BlockID{Seg: memory.Heap, Major: 50})
	if id := tbl.NextHeapID(); id.Major != 51 {
		t.Errorf("after floor, next = %v", id)
	}
	// Floor below current must not move backwards.
	tbl.RestoreFloor(BlockID{Seg: memory.Heap, Major: 10})
	if id := tbl.NextHeapID(); id.Major != 52 {
		t.Errorf("floor moved backwards: %v", id)
	}
}

func TestResolveAndAddrOf(t *testing.T) {
	n := nodeType("node1")
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARCV9, arch.I386} {
		sp := memory.NewSpace(m)
		tbl := NewTable()
		a, _ := sp.Malloc(5 * n.SizeOf(m)) // five nodes
		b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: n, Count: 5}
		if err := tbl.Register(b); err != nil {
			t.Fatal(err)
		}
		// Pointer to the link field of element 3: ordinal 3*2+1 = 7.
		addr := a + memory.Address(3*n.SizeOf(m)+n.OffsetOf(m, 1))
		ref, err := Resolve(tbl, m, addr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if ref.ID != b.ID || ref.Ordinal != 7 {
			t.Errorf("%s: ref = %v, want %s+7", m.Name, ref, b.ID)
		}
		back, err := AddrOf(tbl, m, ref)
		if err != nil || back != addr {
			t.Errorf("%s: AddrOf = %#x, %v; want %#x", m.Name, uint64(back), err, uint64(addr))
		}
	}
}

func TestResolveNull(t *testing.T) {
	tbl := NewTable()
	ref, err := Resolve(tbl, arch.Ultra5, 0)
	if err != nil || !ref.IsNull() {
		t.Errorf("null resolve: %v, %v", ref, err)
	}
	a, err := AddrOf(tbl, arch.Ultra5, NullRef)
	if err != nil || a != 0 {
		t.Errorf("null AddrOf: %#x, %v", uint64(a), err)
	}
	if NullRef.String() != "null" {
		t.Error("null ref string")
	}
}

func TestResolveOnePastEnd(t *testing.T) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	a, _ := sp.Malloc(80)
	b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 10}
	tbl.Register(b)
	ref, err := Resolve(tbl, m, a+80)
	if err != nil || ref.Ordinal != 10 {
		t.Errorf("one-past-end: %v, %v", ref, err)
	}
	back, err := AddrOf(tbl, m, ref)
	if err != nil || back != a+80 {
		t.Errorf("one-past-end AddrOf: %#x, %v", uint64(back), err)
	}
}

func TestResolveCrossMachineOrdinalStable(t *testing.T) {
	// Encode a pointer on a 32-bit LE machine, and verify the ordinal
	// addresses the same logical element on a 64-bit BE machine.
	n := nodeType("node2")
	src, dst := arch.I386, arch.SPARCV9

	mkProc := func(m *arch.Machine) (*memory.Space, *Table, *Block) {
		sp := memory.NewSpace(m)
		tbl := NewTable()
		a, _ := sp.Malloc(4 * n.SizeOf(m))
		b := &Block{ID: BlockID{Seg: memory.Heap, Major: 7}, Addr: a, Type: n, Count: 4}
		if err := tbl.Register(b); err != nil {
			t.Fatal(err)
		}
		return sp, tbl, b
	}
	_, stbl, sb := mkProc(src)
	_, dtbl, db := mkProc(dst)

	// &elem[2].link on the source.
	srcAddr := sb.Addr + memory.Address(2*n.SizeOf(src)+n.OffsetOf(src, 1))
	ref, err := Resolve(stbl, src, srcAddr)
	if err != nil {
		t.Fatal(err)
	}
	dstAddr, err := AddrOf(dtbl, dst, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Addr + memory.Address(2*n.SizeOf(dst)+n.OffsetOf(dst, 1))
	if dstAddr != want {
		t.Errorf("cross-machine translation: got %#x, want %#x", uint64(dstAddr), uint64(want))
	}
}

func TestAddrOfErrors(t *testing.T) {
	tbl := NewTable()
	if _, err := AddrOf(tbl, arch.Ultra5, Ref{ID: BlockID{Seg: memory.Heap, Major: 9}}); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown id: %v", err)
	}
	sp := memory.NewSpace(arch.Ultra5)
	a, _ := sp.Malloc(8)
	b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 1}
	tbl.Register(b)
	if _, err := AddrOf(tbl, arch.Ultra5, Ref{ID: b.ID, Ordinal: 5}); !errors.Is(err, ErrBadOrdinal) {
		t.Errorf("bad ordinal: %v", err)
	}
}

func TestStatsReset(t *testing.T) {
	tbl := NewTable()
	sp := memory.NewSpace(arch.Ultra5)
	a, _ := sp.Malloc(8)
	tbl.Register(&Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 1})
	tbl.Lookup(arch.Ultra5, a)
	if tbl.Stats.Searches == 0 {
		t.Error("stats not counted")
	}
	tbl.ResetStats()
	if tbl.Stats.Searches != 0 {
		t.Error("stats not reset")
	}
}

// checkTable holds every index of the table to the set of blocks that
// should be registered: address order, the one search routine (with
// whatever base index the table currently has), and the ID index.
func checkTable(t *testing.T, tbl *Table, m *arch.Machine, live map[memory.Address]*Block) {
	t.Helper()
	blocks := tbl.Blocks()
	if len(blocks) != len(live) || tbl.Len() != len(live) {
		t.Fatalf("table holds %d blocks (Len %d), want %d", len(blocks), tbl.Len(), len(live))
	}
	for pos, b := range blocks {
		if live[b.Addr] != b {
			t.Fatalf("position %d holds %s at %#x, which is not registered", pos, b.ID, uint64(b.Addr))
		}
		if pos > 0 && blocks[pos-1].ID.Seg == b.ID.Seg && blocks[pos-1].Addr >= b.Addr {
			t.Fatalf("position %d out of address order", pos)
		}
		for _, off := range []int{0, 8, 24} { // base, interior, one past the end
			got, gotPos, gotOff, err := tbl.Lookup(m, b.Addr+memory.Address(off))
			if err != nil || got != b || gotPos != pos || gotOff != off {
				t.Fatalf("Lookup(%s+%d) = %v at %d +%d, %v; want position %d", b.ID, off, got, gotPos, gotOff, err, pos)
			}
		}
		if got, ok := tbl.ByID(b.ID); !ok || got != b {
			t.Fatalf("ByID(%s) = %v, %v", b.ID, got, ok)
		}
	}
}

func TestTableIndexesStayConsistent(t *testing.T) {
	m := arch.SPARC20
	sp := memory.NewSpace(m)
	tbl := NewTable()
	var addrs []memory.Address
	for i := 0; i < 300; i++ {
		a, err := sp.Malloc(24)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })

	live := map[memory.Address]*Block{}
	var gone []BlockID
	step := func(n int) {
		for i := 0; i < n; i++ {
			a := addrs[rng.Intn(len(addrs))]
			if b, ok := live[a]; ok {
				if err := tbl.Unregister(a); err != nil {
					t.Fatal(err)
				}
				delete(live, a)
				gone = append(gone, b.ID)
				continue
			}
			b := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}
			if err := tbl.Register(b); err != nil {
				t.Fatal(err)
			}
			live[a] = b
		}
		checkTable(t, tbl, m, live)
	}
	// The base index is built by the first lookup that wants it: switch it
	// on before, between and after registrations, and off again.
	step(200)
	tbl.UseBaseIndex = true
	step(200)
	if tbl.Stats.BaseHits == 0 {
		t.Error("no lookup was served by the base index")
	}
	step(1) // one change right after the index was built
	tbl.UseBaseIndex = false
	step(200)
	tbl.UseBaseIndex = true
	step(50)
	for _, id := range gone {
		if b, ok := tbl.ByID(id); ok && live[b.Addr] != b {
			t.Fatalf("ByID(%s) still resolves after Unregister", id)
		}
	}
	for seg := range tbl.segs {
		if s := tbl.segs[seg]; len(s) < cap(s) && s[:len(s)+1][len(s)] != nil {
			t.Error("Unregister left a stale block in the vacated tail slot")
		}
		if len(tbl.bases[seg]) != len(tbl.segs[seg]) {
			t.Errorf("segment %d: %d bases for %d blocks", seg, len(tbl.bases[seg]), len(tbl.segs[seg]))
		}
	}
}

func TestIdentificationOutOfRange(t *testing.T) {
	sp := memory.NewSpace(arch.Ultra5)
	tbl := NewTable()
	a, _ := sp.Malloc(8)
	wide := BlockID{Seg: memory.Heap, Major: 1, Minor: 1 << 30}
	if err := tbl.Register(&Block{ID: wide, Addr: a, Type: types.Double, Count: 1}); err == nil {
		t.Error("an identification whose minor does not fit the index was registered")
	}
	if tbl.Len() != 0 {
		t.Error("the refused block is in the table")
	}
	// It must not alias heap:1, whose packed key its bits would spell.
	if err := tbl.Register(&Block{ID: BlockID{Seg: memory.Heap, Major: 1}, Addr: a, Type: types.Double, Count: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []BlockID{wide, {Seg: memory.Heap, Major: 2, Minor: 1 << 30}, {Seg: memory.NumSegments, Major: 2}} {
		if _, ok := tbl.ByID(id); ok {
			t.Errorf("ByID(%v) found a block", id)
		}
		if _, err := AddrOf(tbl, arch.Ultra5, Ref{ID: id}); id.Seg < memory.NumSegments && !errors.Is(err, ErrUnknownID) {
			t.Errorf("AddrOf(%v): %v, want unknown", id, err)
		}
	}
}

// TestInsertRemoveBatch drives the batch registration a heap section
// restore makes: blocks of one segment arrive in any address order, some
// between blocks already registered, and land in one merge; a dropped
// component leaves in one pass. The table must read as if every block had
// been registered and unregistered one at a time, and a batch holding one
// bad block registers none of them.
func TestInsertRemoveBatch(t *testing.T) {
	sp := memory.NewSpace(arch.SPARC20)
	tbl := NewTable()
	var all []*Block
	for i := 0; i < 40; i++ {
		a, err := sp.Malloc(16)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, &Block{ID: BlockID{Seg: memory.Heap, Major: uint32(i)}, Addr: a, Type: types.Double, Count: 2})
	}
	rng := rand.New(rand.NewSource(1))
	var first, second []*Block
	for _, b := range all {
		if rng.Intn(2) == 0 {
			first = append(first, b)
		} else {
			second = append(second, b)
		}
	}
	rng.Shuffle(len(second), func(i, j int) { second[i], second[j] = second[j], second[i] })
	for _, batch := range [][]*Block{first, second} {
		if err := tbl.Insert(batch); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want []*Block) {
		t.Helper()
		got := tbl.Blocks()
		if len(got) != len(want) {
			t.Fatalf("table holds %d blocks, want %d", len(got), len(want))
		}
		for i, b := range want {
			if got[i] != b {
				t.Fatalf("block %d in address order is %s, want %s", i, got[i].ID, b.ID)
			}
			if hit, pos, off, err := tbl.Lookup(arch.SPARC20, b.Addr+8); hit != b || pos != i || off != 8 || err != nil {
				t.Fatalf("Lookup inside %s = %v, %d, %d, %v", b.ID, hit, pos, off, err)
			}
			if byID, ok := tbl.ByID(b.ID); !ok || byID != b {
				t.Fatalf("ByID(%s) = %v, %v", b.ID, byID, ok)
			}
		}
	}
	check(all)

	dup := &Block{ID: BlockID{Seg: memory.Heap, Major: 7}, Addr: all[39].Addr + 4096, Type: types.Double, Count: 1}
	fresh := &Block{ID: BlockID{Seg: memory.Heap, Major: 99}, Addr: all[39].Addr + 8192, Type: types.Double, Count: 1}
	if err := tbl.Insert([]*Block{fresh, dup}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("batch repeating an identification: %v, want ErrDuplicate", err)
	}
	if _, ok := tbl.ByID(fresh.ID); ok {
		t.Fatal("a refused batch left a block registered")
	}
	check(all)

	tbl.Remove(second)
	for _, b := range second {
		if _, ok := tbl.ByID(b.ID); ok {
			t.Fatalf("removed block %s still resolves", b.ID)
		}
	}
	check(first)
}

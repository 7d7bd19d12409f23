package collect

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
)

// deltaImage is a process image a test mutates between pre-copy rounds the
// way a program does: through the space's write barrier and the table.
type deltaImage struct {
	*proc
	rng   *rand.Rand
	node  *types.Type
	roots Roots
	vars  []*msr.Block // the root pointer variables: two frame locals, three globals
	heap  []*msr.Block
	since uint64 // the dirty watermark; 0 before the first round
}

func newDeltaImage(t *testing.T, seed int64, m *arch.Machine) *deltaImage {
	node := types.NewStruct(fmt.Sprintf("dnode%d", seed))
	np := types.PointerTo(node)
	node.DefineFields([]types.Field{
		{Name: "id", Type: types.Int},
		{Name: "w", Type: types.Float},
		{Name: "a", Type: np},
		{Name: "b", Type: np},
	})
	ti := types.NewTI()
	ti.Add(np)
	d := &deltaImage{proc: newProc(m, ti), rng: rand.New(rand.NewSource(seed)), node: node}
	d.roots.FrameLive = make([][]memory.Address, 1)
	for i := 0; i < 2; i++ {
		base, err := d.space.PushFrame(np.SizeOf(m))
		if err != nil {
			t.Fatal(err)
		}
		b := &msr.Block{ID: msr.BlockID{Seg: memory.Stack, Major: 1, Minor: uint32(i)}, Addr: base, Type: np, Count: 1}
		if err := d.table.Register(b); err != nil {
			t.Fatal(err)
		}
		d.vars = append(d.vars, b)
		d.roots.FrameLive[0] = append(d.roots.FrameLive[0], base)
	}
	for i := 0; i < 3; i++ {
		b := d.global(t, np, "g")
		d.vars = append(d.vars, b)
		d.roots.Globals = append(d.roots.Globals, b.Addr)
	}
	for i := 0; i < 24; i++ {
		d.alloc(t)
	}
	for range 40 {
		d.store(t, d.field(), d.target())
	}
	for _, v := range d.vars {
		d.store(t, v.Addr, d.target())
	}
	d.space.StartDirtyTracking()
	return d
}

func (d *deltaImage) off(field int) memory.Address {
	return memory.Address(d.node.OffsetOf(d.m, field))
}

// element returns the base of a random element of a random heap block.
func (d *deltaImage) element() memory.Address {
	b := d.heap[d.rng.Intn(len(d.heap))]
	return b.Addr + memory.Address(d.rng.Intn(b.Count)*d.node.SizeOf(d.m))
}

// field returns the address of a random pointer field of a heap element.
func (d *deltaImage) field() memory.Address { return d.element() + d.off(2+d.rng.Intn(2)) }

// target returns a pointer value: null, an element, or one past a block.
func (d *deltaImage) target() memory.Address {
	switch r := d.rng.Intn(8); {
	case r == 0:
		return 0
	case r == 1:
		b := d.heap[d.rng.Intn(len(d.heap))]
		return b.Addr + memory.Address(b.Count*d.node.SizeOf(d.m))
	default:
		return d.element()
	}
}

func (d *deltaImage) store(t *testing.T, at, val memory.Address) {
	if err := d.space.StorePtr(at, val); err != nil {
		t.Fatal(err)
	}
}

func (d *deltaImage) alloc(t *testing.T) *msr.Block {
	b := d.proc.heap(t, d.node, 1+d.rng.Intn(3))
	d.heap = append(d.heap, b)
	return b
}

// free drops a heap block, first nulling every pointer into it so that no
// pointer anywhere dangles.
func (d *deltaImage) free(t *testing.T) {
	i := d.rng.Intn(len(d.heap))
	b := d.heap[i]
	end := b.Addr + memory.Address(b.Count*d.node.SizeOf(d.m))
	fields := make([]memory.Address, 0, 2*len(d.heap)+len(d.vars))
	for _, h := range d.heap {
		for e := 0; e < h.Count; e++ {
			base := h.Addr + memory.Address(e*d.node.SizeOf(d.m))
			fields = append(fields, base+d.off(2), base+d.off(3))
		}
	}
	for _, v := range d.vars {
		fields = append(fields, v.Addr)
	}
	for _, at := range fields {
		if val, _ := d.space.LoadPtr(at); val >= b.Addr && val <= end {
			d.store(t, at, 0)
		}
	}
	if err := d.table.Unregister(b.Addr); err != nil {
		t.Fatal(err)
	}
	if err := d.space.Free(b.Addr); err != nil {
		t.Fatal(err)
	}
	d.heap = append(d.heap[:i], d.heap[i+1:]...)
}

// round captures one pre-copy round with dt and holds every body to a
// capture made from scratch.
func (d *deltaImage) round(t *testing.T, dt *DeltaTracker) *capture {
	t.Helper()
	var dirty []memory.DirtyRange
	if d.since > 0 {
		dirty = d.space.DirtyRangesSince(d.since)
	}
	got, err := tracked(d.space, d.table, d.ti, d.roots, dt, dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamed(d.space, d.table, d.ti, d.roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bodies) != len(want.Bodies) || got.Heap != want.Heap {
		t.Fatalf("delta round has %d sections (%d heap), a fresh capture %d (%d)",
			len(got.Bodies), got.Heap, len(want.Bodies), want.Heap)
	}
	for i := range got.Bodies {
		if !bytes.Equal(got.Bodies[i].Body, want.Bodies[i].Body) {
			t.Fatalf("section %d (carried over from %d, partition reused %v) differs from a fresh capture",
				i, got.Bodies[i].From, got.Reused)
		}
	}
	d.since = d.space.AdvanceGeneration()
	return got
}

// TestDeltaRoundsRandomized runs 250 pre-copy rounds of random payload
// writes, pointer writes (same value, retargeted, null), root writes,
// allocations and frees, and requires every round to be byte-identical to
// a capture from scratch — whichever path it took, which it must take both
// of.
func TestDeltaRoundsRandomized(t *testing.T) {
	for seed, m := range []*arch.Machine{arch.DEC5000, arch.SPARC20} {
		d := newDeltaImage(t, int64(seed), m)
		dt := NewDeltaTracker()
		d.round(t, dt)
		reused, carried := 0, 0
		for round := 1; round <= 250; round++ {
			for range d.rng.Intn(4) {
				switch op := d.rng.Intn(13); {
				case op < 4: // payload
					if err := d.space.StorePrim(d.element()+d.off(1), arch.Float, uint64(d.rng.Uint32())); err != nil {
						t.Fatal(err)
					}
				case op < 6: // a pointer overwritten with its own value
					at := d.field()
					val, _ := d.space.LoadPtr(at)
					d.store(t, at, val)
				case op < 8:
					d.store(t, d.field(), d.target())
				case op == 8:
					d.store(t, d.vars[d.rng.Intn(len(d.vars))].Addr, d.target())
				case op == 9: // linked, or left unreachable beside a block a pointer may run one past
					if b := d.alloc(t); d.rng.Intn(2) == 0 {
						d.store(t, d.field(), b.Addr)
					}
				case op == 12: // the live set shrinks or grows back, nothing written
					d.roots.Globals = make([]memory.Address, 5-len(d.roots.Globals)) // three globals, or the first two
					for i := range d.roots.Globals {
						d.roots.Globals[i] = d.vars[2+i].Addr
					}
				default:
					if len(d.heap) > 8 {
						d.free(t)
					}
				}
			}
			st := d.round(t, dt)
			if st.Reused {
				reused++
			}
			for _, b := range st.Bodies {
				if b.From >= 0 {
					carried++
				}
			}
		}
		t.Logf("%s: partition kept in %d of 250 rounds, %d bodies carried over", m.Name, reused, carried)
		if reused < 25 || reused > 225 {
			t.Errorf("%s: the partition was kept in %d of 250 rounds; want both paths well exercised", m.Name, reused)
		}
		if carried == 0 {
			t.Errorf("%s: no section body was ever carried over", m.Name)
		}
	}
}

// TestDeltaMembershipComparedExactly: a component keeps its key and shows
// no dirty byte while its membership changes — what a membership hash
// cannot tell from a collision. A walked round compares the members
// themselves and re-encodes it, and still carries the unchanged globals
// section over.
func TestDeltaMembershipComparedExactly(t *testing.T) {
	node := nodeType("exactnode")
	ti := types.NewTI()
	ti.Add(types.PointerTo(node))
	p := newProc(arch.DEC5000, ti)
	root := p.global(t, types.PointerTo(node), "root")
	h1, h2, h3 := p.heap(t, node, 1), p.heap(t, node, 1), p.heap(t, node, 1)
	link := memory.Address(node.OffsetOf(p.m, 1))
	p.space.StorePtr(root.Addr, h1.Addr)
	p.space.StorePtr(h1.Addr+link, h2.Addr)
	roots := Roots{Globals: []memory.Address{root.Addr}}
	dt := NewDeltaTracker()
	if _, err := tracked(p.space, p.table, p.ti, roots, dt, nil); err != nil {
		t.Fatal(err)
	}

	// h1 now links h3: the component's first member, and so its key, stays
	// h1, and the round is told nothing was written. The block registered
	// meanwhile makes it walk.
	p.space.StorePtr(h1.Addr+link, h3.Addr)
	p.heap(t, node, 1)
	got, err := tracked(p.space, p.table, p.ti, roots, dt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamed(p.space, p.table, p.ti, roots)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reused {
		t.Fatal("the partition was kept across a table change")
	}
	if got.Bodies[0].From >= 0 || !bytes.Equal(got.Bodies[0].Body, want.Bodies[0].Body) {
		t.Fatalf("the re-membered component was carried over from section %d", got.Bodies[0].From)
	}
	if globals := got.Bodies[len(got.Bodies)-1]; globals.From < 0 {
		t.Error("the unchanged globals section was re-encoded")
	}
}

// TestDeltaTableChangeEndsTheKeptPartition: a pointer one past the last
// heap block resolves into the block allocated there next, though no byte
// the partition reaches was written. A table change alone must end the
// kept partition.
func TestDeltaTableChangeEndsTheKeptPartition(t *testing.T) {
	node := nodeType("pastnode")
	ti := types.NewTI()
	ti.Add(types.PointerTo(node))
	p := newProc(arch.DEC5000, ti)
	root := p.global(t, types.PointerTo(node), "root")
	h := p.heap(t, node, 2) // 16 bytes: the allocator's granule, so the next block starts where h ends
	end := h.Addr + memory.Address(2*node.SizeOf(p.m))
	p.space.StorePtr(root.Addr, end)
	roots := Roots{Globals: []memory.Address{root.Addr}}
	p.space.StartDirtyTracking()
	dt := NewDeltaTracker()
	if _, err := tracked(p.space, p.table, p.ti, roots, dt, nil); err != nil {
		t.Fatal(err)
	}
	since := p.space.AdvanceGeneration()
	if next := p.heap(t, node, 1); next.Addr != end {
		t.Fatalf("the next block landed at %#x, not one past the last (%#x)", uint64(next.Addr), uint64(end))
	}
	got, err := tracked(p.space, p.table, p.ti, roots, dt, p.space.DirtyRangesSince(since))
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamed(p.space, p.table, p.ti, roots)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reused {
		t.Error("the partition was kept across a table change")
	}
	for i := range want.Bodies {
		if !bytes.Equal(got.Bodies[i].Body, want.Bodies[i].Body) {
			t.Fatalf("section %d differs from a fresh capture", i)
		}
	}
}

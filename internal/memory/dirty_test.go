package memory

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// dirtyOverlaps reports whether a range written at generation gen or later
// overlaps [addr, addr+n).
func dirtyOverlaps(s *Space, addr Address, n int, gen uint64) bool {
	for _, r := range s.DirtyRangesSince(gen) {
		if r.Lo < addr+Address(n) && addr < r.Hi {
			return true
		}
	}
	return false
}

func TestDirtyTrackingGenerations(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(4 * DirtyBlockSize)
	if err != nil {
		t.Fatal(err)
	}

	if s.DirtyTracking() {
		t.Fatal("tracking on before StartDirtyTracking")
	}
	s.StartDirtyTracking()
	if g := s.Generation(); g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}

	// One store dirties exactly the blocks it overlaps.
	if err := s.StorePrim(a, arch.Int, 7); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtySince(1); n != 1 {
		t.Fatalf("DirtySince(1) = %d after one store, want 1", n)
	}
	if !dirtyOverlaps(s, a, 4, 1) {
		t.Fatal("stored range not dirty")
	}
	if dirtyOverlaps(s, a+DirtyBlockSize, DirtyBlockSize, 1) {
		t.Fatal("untouched block reported dirty")
	}

	// A write spanning a block boundary dirties both blocks.
	if err := s.WriteBytes(a+Address(DirtyBlockSize-2), make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if !dirtyOverlaps(s, a+DirtyBlockSize, 1, 1) {
		t.Fatal("second block of spanning write not dirty")
	}

	// Advancing the generation separates past writes from future ones.
	watermark := s.AdvanceGeneration()
	if n := s.DirtySince(watermark); n != 0 {
		t.Fatalf("DirtySince(new gen) = %d, want 0", n)
	}
	if err := s.Zero(a+2*DirtyBlockSize, DirtyBlockSize); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtySince(watermark); n != 1 {
		t.Fatalf("DirtySince(watermark) = %d after post-advance Zero, want 1", n)
	}
	// The earlier writes remain visible from the old watermark.
	if n := s.DirtySince(1); n != 3 {
		t.Fatalf("DirtySince(1) = %d, want 3", n)
	}

	s.StopDirtyTracking()
	if s.DirtyTracking() {
		t.Fatal("tracking still on after StopDirtyTracking")
	}
	if n := s.DirtySince(1); n != 0 {
		t.Fatalf("dirty set not released on stop: %d blocks", n)
	}
}

func TestDirtyTrackingObservesAllocationZeroing(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	s.StartDirtyTracking()

	// Malloc, GlobalAlloc, and PushFrame zero their memory through the
	// choke point, so freshly allocated ranges are born dirty.
	a, err := s.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if !dirtyOverlaps(s, a, 64, 1) {
		t.Fatal("malloc'd range not dirty")
	}
	g, err := s.GlobalAlloc(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !dirtyOverlaps(s, g, 32, 1) {
		t.Fatal("global allocation not dirty")
	}
	f, err := s.PushFrame(48)
	if err != nil {
		t.Fatal(err)
	}
	if !dirtyOverlaps(s, f, 48, 1) {
		t.Fatal("pushed frame not dirty")
	}
	if err := s.PopFrame(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyTrackingIgnoresReads(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	s.StartDirtyTracking()
	s.AdvanceGeneration()
	if _, err := s.LoadPrim(a, arch.Double); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBytes(a, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bytes(a, 16); err != nil {
		t.Fatal(err)
	}
	if n := s.DirtySince(2); n != 0 {
		t.Fatalf("reads dirtied %d blocks", n)
	}
}

// TestMutationErrorPaths pins the unified bounds/segment resolution of
// the mutation choke point: Zero and WriteBytes report the same typed
// errors for the same bad ranges, including writes that start inside a
// segment but run past its capacity (a would-be cross-segment write).
func TestMutationErrorPaths(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	cases := []struct {
		name string
		addr Address
		n    int
		want error
	}{
		{"null", 0, 8, ErrNull},
		{"outside any segment", 0x10, 8, ErrOutOfRange},
		{"runs past global cap", GlobalBase + globalCap - 4, 8, ErrOutOfRange},
		{"runs past heap cap", HeapBase + heapCap - 1, 2, ErrOutOfRange},
		{"stack top is exclusive", StackBase - 4, 8, ErrOutOfRange},
		{"negative length", HeapBase, -1, ErrOutOfRange},
	}
	for _, c := range cases {
		if c.n >= 0 { // a []byte length is never negative
			if err := s.WriteBytes(c.addr, make([]byte, c.n)); !errors.Is(err, c.want) {
				t.Errorf("%s: WriteBytes err = %v, want %v", c.name, err, c.want)
			}
		}
		zn := c.n
		if zn == 0 {
			zn = 8
		}
		if err := s.Zero(c.addr, zn); !errors.Is(err, c.want) {
			t.Errorf("%s: Zero err = %v, want %v", c.name, err, c.want)
		}
	}
	// Tracking on must not change the error behavior or stamp anything
	// for failed writes.
	s.StartDirtyTracking()
	if err := s.WriteBytes(GlobalBase+globalCap-4, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("tracked WriteBytes err = %v, want ErrOutOfRange", err)
	}
	if n := s.DirtySince(1); n != 0 {
		t.Fatalf("failed write dirtied %d blocks", n)
	}
}

// TestDirtyMarkSteadyStateAllocs guards the barrier's hot path: once a
// block is in the dirty set, re-stamping it allocates nothing.
func TestDirtyMarkSteadyStateAllocs(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	s.StartDirtyTracking()
	if err := s.Zero(a, 1024); err != nil { // pre-populate the set
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.StorePrim(a+16, arch.Double, 42); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state tracked store allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkWriteBarrierBaseline is the raw view-resolve-and-copy a
// WriteBytes performs, with no barrier branch — the reference the
// tracked-off path is budgeted against in CI.
func BenchmarkWriteBarrierBaseline(b *testing.B) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.Bytes(a+Address(i&31)*64, len(p))
		if err != nil {
			b.Fatal(err)
		}
		copy(v, p)
	}
}

// BenchmarkWriteBarrierOff measures WriteBytes with tracking off: the
// baseline plus one predicted-not-taken branch.
func BenchmarkWriteBarrierOff(b *testing.B) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBytes(a+Address(i&31)*64, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBarrierOn measures WriteBytes with tracking on over a
// steady-state working set (every block already stamped once).
func BenchmarkWriteBarrierOn(b *testing.B) {
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	s.StartDirtyTracking()
	if err := s.Zero(a, 4096); err != nil {
		b.Fatal(err)
	}
	p := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBytes(a+Address(i&31)*64, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDirtyRangesSince: one range per block written since the watermark,
// in address order, carrying the bytes written; the current generation's
// list, kept as the barrier stamps, agrees with the scan an older watermark
// takes.
func TestDirtyRangesSince(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	m, err := s.Malloc(9 * DirtyBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	a := (m + DirtyBlockSize - 1) &^ (DirtyBlockSize - 1) // block-aligned
	s.StartDirtyTracking()
	for _, w := range []struct {
		at Address
		n  int
	}{{5*DirtyBlockSize + 8, 4}, {DirtyBlockSize - 2, 4}, {5*DirtyBlockSize + 40, 4}} {
		if err := s.WriteBytes(a+w.at, make([]byte, w.n)); err != nil {
			t.Fatal(err)
		}
	}
	want := []DirtyRange{
		{a + DirtyBlockSize - 2, a + DirtyBlockSize},
		{a + DirtyBlockSize, a + DirtyBlockSize + 2},
		{a + 5*DirtyBlockSize + 8, a + 5*DirtyBlockSize + 44}, // two writes, one range
	}
	if got := s.DirtyRangesSince(s.Generation()); !slices.Equal(got, want) {
		t.Fatalf("ranges %x, want %x", got, want)
	}
	g := s.AdvanceGeneration()
	if err := s.StorePrim(a+7*DirtyBlockSize, arch.Int, 1); err != nil {
		t.Fatal(err)
	}
	later := DirtyRange{a + 7*DirtyBlockSize, a + 7*DirtyBlockSize + 4}
	if got := s.DirtyRangesSince(g); !slices.Equal(got, []DirtyRange{later}) || s.DirtySince(g) != 1 {
		t.Fatalf("ranges since the watermark %x (%d blocks), want %x", got, s.DirtySince(g), later)
	}
	if got := s.DirtyRangesSince(1); !slices.Equal(got, append(want, later)) || s.DirtySince(1) != 4 {
		t.Fatalf("ranges since generation 1 %x (%d blocks), want %x", got, s.DirtySince(1), append(want, later))
	}
}

// BenchmarkWriteBarrierOnSpread measures WriteBytes with tracking on over
// a 4 MB heap, every store landing in another of its first 16 383 blocks, and a
// new generation every 16 384 stores: the wide working set of a live
// source between pre-copy rounds, which BenchmarkWriteBarrierOn's 32 blocks
// never reach.
func BenchmarkWriteBarrierOnSpread(b *testing.B) {
	const size = 4 << 20
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(size)
	if err != nil {
		b.Fatal(err)
	}
	s.StartDirtyTracking()
	if err := s.Zero(a, size); err != nil {
		b.Fatal(err)
	}
	const blocks = size / DirtyBlockSize
	p := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%blocks == 0 {
			s.AdvanceGeneration()
		}
		blk := Address(i*7919) % (blocks - 1) // 7919 is prime: every block in turn
		if err := s.WriteBytes(a+blk*DirtyBlockSize+96, p); err != nil {
			b.Fatal(err)
		}
	}
}

// dirtyModel is the reference the dirty log is held to: one map entry per
// block ever written while tracking was on, stamped and range-unioned as
// the log's documentation says.
type dirtyModel struct {
	on     bool
	gen    uint64
	blocks map[Address]dirtyModelEntry
}

type dirtyModelEntry struct {
	gen    uint64
	lo, hi Address
}

func (m *dirtyModel) start() {
	*m = dirtyModel{on: true, gen: 1, blocks: map[Address]dirtyModelEntry{}}
}

func (m *dirtyModel) write(addr Address, n int) {
	if !m.on || n <= 0 {
		return
	}
	end := addr + Address(n)
	for b := addr >> DirtyBlockShift; b<<DirtyBlockShift < end; b++ {
		base := b << DirtyBlockShift
		lo, hi := max(addr, base)-base, min(end, base+DirtyBlockSize)-base
		if e, ok := m.blocks[b]; ok && e.gen == m.gen {
			lo, hi = min(lo, e.lo), max(hi, e.hi)
		}
		m.blocks[b] = dirtyModelEntry{m.gen, lo, hi}
	}
}

func (m *dirtyModel) rangesSince(gen uint64) []DirtyRange {
	var out []DirtyRange
	for b, e := range m.blocks {
		if e.gen >= gen {
			out = append(out, DirtyRange{b<<DirtyBlockShift + e.lo, b<<DirtyBlockShift + e.hi})
		}
	}
	slices.SortFunc(out, func(a, b DirtyRange) int { return cmp.Compare(a.Lo, b.Lo) })
	return out
}

// checkDirtyLog holds DirtySince and DirtyRangesSince to the model at the
// watermarks a pre-copy driver and an older checkpoint would ask with.
func checkDirtyLog(t testing.TB, s *Space, m *dirtyModel) {
	t.Helper()
	if s.DirtyTracking() != m.on || m.on && s.Generation() != m.gen {
		t.Fatalf("tracking %v at generation %d, model %v at %d", s.DirtyTracking(), s.Generation(), m.on, m.gen)
	}
	for _, g := range []uint64{0, 1, m.gen / 2, m.gen - 1, m.gen, m.gen + 1} {
		want := m.rangesSince(g)
		got := s.DirtyRangesSince(g)
		if len(got) != len(want) || len(want) > 0 && !slices.Equal(got, want) {
			t.Fatalf("generation %d of %d: ranges\n%x\nwant\n%x", g, m.gen, got, want)
		}
		if n := s.DirtySince(g); n != len(want) {
			t.Fatalf("generation %d of %d: DirtySince %d, want %d", g, m.gen, n, len(want))
		}
	}
}

// runDirtyLog drives a space and the model through the operations ops
// encodes, four bytes each, and checks them against each other after
// every generation, every Stop/Start, every fork and at the end. Writes
// land in all three segments at offsets of up to 1.4 MB from the segment's
// first address, the stack's counted downward from its top, so the logs
// grow in both directions and re-base; lengths of up to 766 bytes straddle
// block boundaries and span up to four blocks. A fork moves on to a fresh
// space holding a CopyHeap of the heap, as a kept restore shell is forked,
// and stores its last byte: the copy is backed only to there, seldom the
// end of a block.
func runDirtyLog(t testing.TB, ops []byte) {
	s := NewSpace(arch.Ultra5)
	var m dirtyModel
	s.StartDirtyTracking()
	m.start()
	for ; len(ops) >= 4; ops = ops[4:] {
		op, off, n := ops[0], Address(ops[1])<<8|Address(ops[2]), 1+3*int(ops[3])
		switch op % 8 {
		case 7:
			fork := NewSpace(arch.Ultra5)
			fork.CopyHeap(s)
			s = fork
			s.StartDirtyTracking()
			m.start()
			if last := s.heap.hi - 1; s.heap.hi > s.heap.org {
				if err := s.WriteBytes(last, []byte{1}); err != nil {
					t.Fatal(err)
				}
				m.write(last, 1)
			}
			checkDirtyLog(t, s, &m)
		case 5:
			if s.AdvanceGeneration(); m.on {
				m.gen++
			}
			checkDirtyLog(t, s, &m)
		case 6:
			if m.on {
				s.StopDirtyTracking()
				m = dirtyModel{}
			} else {
				s.StartDirtyTracking()
				m.start()
			}
			checkDirtyLog(t, s, &m)
		default:
			off *= 7
			if op&0x80 != 0 {
				off *= 3 // far: up to 1.4 MB, past several growth steps
			}
			var addr Address
			switch op / 8 % 3 {
			case 0:
				addr = GlobalBase + off
			case 1:
				addr = HeapBase + off
			default:
				addr = StackBase - off - Address(n)
			}
			var err error
			if op&0x40 != 0 {
				err = s.Zero(addr, n)
			} else {
				err = s.WriteBytes(addr, make([]byte, n))
			}
			if err != nil {
				t.Fatal(err)
			}
			m.write(addr, n)
		}
	}
	checkDirtyLog(t, s, &m)
}

// TestDirtyLogMatchesModel holds the dirty log to the map-based model on
// seeded operation sequences.
func TestDirtyLogMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4*400)
		rng.Read(ops)
		for i := 0; i < len(ops); i += 4 {
			if rng.Intn(3) > 0 { // mostly writes near the segment edges
				ops[i+1] = 0
			}
		}
		runDirtyLog(t, ops)
	}
}

// FuzzDirtyLog holds the dirty log to the map-based model on any operation
// sequence.
func FuzzDirtyLog(f *testing.F) {
	f.Add([]byte{8, 0, 250, 5, 5, 0, 0, 0, 16, 0, 1, 255, 6, 0, 0, 0, 6, 0, 0, 0, 0x90, 3, 0, 9})
	f.Add([]byte{0, 0, 37, 200, 0x48, 1, 2, 3, 5, 0, 0, 0, 0x88, 255, 255, 255, 5, 0, 0, 0, 16, 9, 9, 9})
	f.Add([]byte{8, 0, 37, 200, 7, 0, 0, 0, 8, 0, 1, 9, 5, 0, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*512 {
			ops = ops[:4*512]
		}
		runDirtyLog(t, ops)
	})
}

// BenchmarkWriteBarrierOnView is BenchmarkWriteBarrierOn through a view,
// the way compiled code writes a local or a global: the barrier's entry for
// the view's segment, at 0 allocs/op.
func BenchmarkWriteBarrierOnView(b *testing.B) {
	s := NewSpace(arch.Ultra5)
	if _, err := s.PushFrame(4096); err != nil {
		b.Fatal(err)
	}
	v := s.TopFrame()
	s.StartDirtyTracking()
	v.Write(0, 4096) // the log covers the frame, and each block is touched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Write((i&31)*64, 64)[0] = byte(i)
	}
}

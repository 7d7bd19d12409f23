package memory

import (
	"errors"
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

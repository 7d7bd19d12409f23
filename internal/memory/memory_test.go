package memory

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestSegmentOf(t *testing.T) {
	cases := []struct {
		addr Address
		seg  Segment
		ok   bool
	}{
		{GlobalBase, Global, true},
		{GlobalBase + 100, Global, true},
		{HeapBase, Heap, true},
		{StackBase - 1, Stack, true},
		{StackBase, 0, false}, // one past the top of the stack
		{0, 0, false},
		{1, 0, false},
	}
	for _, c := range cases {
		seg, ok := SegmentOf(c.addr)
		if ok != c.ok || (ok && seg != c.seg) {
			t.Errorf("SegmentOf(%#x) = %v,%v want %v,%v", uint64(c.addr), seg, ok, c.seg, c.ok)
		}
	}
}

func TestGlobalAllocAlignment(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	a1, err := s.GlobalAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.GlobalAlloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(a2)%8 != 0 {
		t.Errorf("global alloc not aligned: %#x", uint64(a2))
	}
	if a2 <= a1 {
		t.Error("global allocations must not overlap")
	}
}

func TestLoadStorePrimAllMachines(t *testing.T) {
	for _, m := range arch.Machines() {
		s := NewSpace(m)
		addr, err := s.GlobalAlloc(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		neg := int64(-7)
		if err := s.StorePrim(addr, arch.Int, uint64(neg)); err != nil {
			t.Fatal(err)
		}
		v, err := s.LoadPrim(addr, arch.Int)
		if err != nil {
			t.Fatal(err)
		}
		if int64(v) != -7 {
			t.Errorf("%s: int round trip = %d", m.Name, int64(v))
		}
		if err := s.StorePtr(addr+8, HeapBase+32); err != nil {
			t.Fatal(err)
		}
		p, err := s.LoadPtr(addr + 8)
		if err != nil {
			t.Fatal(err)
		}
		if p != HeapBase+32 {
			t.Errorf("%s: ptr round trip = %#x", m.Name, uint64(p))
		}
	}
}

func TestNullDeref(t *testing.T) {
	s := NewSpace(arch.DEC5000)
	if _, err := s.LoadPtr(0); !errors.Is(err, ErrNull) {
		t.Errorf("load from null: %v", err)
	}
	if err := s.StorePrim(0, arch.Int, 1); !errors.Is(err, ErrNull) {
		t.Errorf("store to null: %v", err)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	s := NewSpace(arch.DEC5000)
	if _, err := s.Bytes(Address(0xdead), 4); err == nil {
		t.Error("access to unmapped address succeeded")
	}
	// Reading past the end of a segment must fail.
	if _, err := s.Bytes(StackBase-2, 8); err == nil {
		t.Error("read crossing segment end succeeded")
	}
}

func TestMallocFreeBasic(t *testing.T) {
	s := NewSpace(arch.SPARC20)
	a, err := s.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if seg, ok := SegmentOf(a); !ok || seg != Heap {
		t.Fatalf("malloc returned non-heap address %#x", uint64(a))
	}
	sz, err := s.HeapBlockSize(a)
	if err != nil || sz != 100 {
		t.Errorf("HeapBlockSize = %d, %v", sz, err)
	}
	if s.HeapLive() != 1 || s.HeapBytesLive() != 100 {
		t.Errorf("live stats: %d blocks, %d bytes", s.HeapLive(), s.HeapBytesLive())
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.HeapLive() != 0 {
		t.Error("block still live after free")
	}
	if err := s.Free(a); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free: %v", err)
	}
}

func TestMallocZeroes(t *testing.T) {
	s := NewSpace(arch.DEC5000)
	a, _ := s.Malloc(32)
	b, _ := s.Bytes(a, 32)
	for i := range b {
		b[i] = 0xff
	}
	s.Free(a)
	// First-fit should reuse the same region; it must be zeroed again.
	a2, _ := s.Malloc(32)
	if a2 != a {
		t.Logf("allocator did not reuse freed block (a=%#x a2=%#x)", uint64(a), uint64(a2))
	}
	b2, _ := s.Bytes(a2, 32)
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("byte %d not zeroed after realloc: %#x", i, v)
		}
	}
}

func TestMallocAlignment(t *testing.T) {
	s := NewSpace(arch.I386)
	for _, n := range []int{0, 1, 3, 8, 17, 100} {
		a, err := s.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(a)%allocAlign != 0 {
			t.Errorf("malloc(%d) returned unaligned address %#x", n, uint64(a))
		}
	}
}

func TestFreeCoalescing(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	var addrs []Address
	for i := 0; i < 8; i++ {
		a, err := s.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// Free in an interleaved order to exercise both coalescing directions.
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		if err := s.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.alloc.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(s.alloc.freeList) != 1 {
		t.Errorf("free list not fully coalesced: %d spans", len(s.alloc.freeList))
	}
}

func TestAllocatorQuick(t *testing.T) {
	// Property: under random malloc/free interleavings the allocator
	// invariants hold, allocations never overlap, and contents written to
	// one block never leak into another.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(arch.AMD64)
		type blk struct {
			addr Address
			size int
			tag  byte
		}
		var blocks []blk
		for op := 0; op < 300; op++ {
			if len(blocks) == 0 || rng.Intn(3) != 0 {
				size := rng.Intn(200)
				a, err := s.Malloc(size)
				if err != nil {
					return false
				}
				tag := byte(rng.Intn(255) + 1)
				b, err := s.Bytes(a, size)
				if err != nil {
					return false
				}
				for i := range b {
					b[i] = tag
				}
				blocks = append(blocks, blk{a, size, tag})
			} else {
				i := rng.Intn(len(blocks))
				if err := s.Free(blocks[i].addr); err != nil {
					return false
				}
				blocks = append(blocks[:i], blocks[i+1:]...)
			}
			if s.alloc.checkInvariants() != nil {
				return false
			}
		}
		for _, bl := range blocks {
			b, err := s.Bytes(bl.addr, bl.size)
			if err != nil {
				return false
			}
			for _, v := range b {
				if v != bl.tag {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStackFrames(t *testing.T) {
	s := NewSpace(arch.SPARC20)
	b1, err := s.PushFrame(40)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.PushFrame(100)
	if err != nil {
		t.Fatal(err)
	}
	if b2 >= b1 {
		t.Error("stack must grow downward")
	}
	if s.FrameDepth() != 2 {
		t.Errorf("frame depth = %d", s.FrameDepth())
	}
	if err := s.StorePrim(b2, arch.Double, 0x400921fb54442d18); err != nil {
		t.Fatal(err)
	}
	if err := s.PopFrame(); err != nil {
		t.Fatal(err)
	}
	if err := s.PopFrame(); err != nil {
		t.Fatal(err)
	}
	if err := s.PopFrame(); !errors.Is(err, ErrStackEmpty) {
		t.Errorf("pop of empty stack: %v", err)
	}
	if s.StackUsed() != 0 {
		t.Errorf("stack used after popping all frames: %d", s.StackUsed())
	}
}

func TestPushPopReusesAddresses(t *testing.T) {
	s := NewSpace(arch.DEC5000)
	b1, _ := s.PushFrame(64)
	s.PopFrame()
	b2, _ := s.PushFrame(64)
	if b1 != b2 {
		t.Errorf("frame address changed across push/pop: %#x vs %#x", uint64(b1), uint64(b2))
	}
}

func TestFrameZeroed(t *testing.T) {
	s := NewSpace(arch.DEC5000)
	b, _ := s.PushFrame(32)
	mem, _ := s.Bytes(b, 32)
	for i := range mem {
		mem[i] = 0xaa
	}
	s.PopFrame()
	b2, _ := s.PushFrame(32)
	mem2, _ := s.Bytes(b2, 32)
	for i, v := range mem2 {
		if v != 0 {
			t.Fatalf("frame byte %d not zeroed: %#x", i, v)
		}
	}
}

func TestReadWriteBytes(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	a, _ := s.Malloc(16)
	if err := s.WriteBytes(a, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(a, 11)
	if err != nil || string(got) != "hello world" {
		t.Errorf("ReadBytes = %q, %v", got, err)
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewSpace(arch.Ultra5)
	s.Malloc(10)
	a, _ := s.Malloc(20)
	s.Free(a)
	s.PushFrame(8)
	if s.Stats.Mallocs != 2 || s.Stats.Frees != 1 || s.Stats.BytesAlloc != 30 || s.Stats.FramesPushed != 1 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestSegmentString(t *testing.T) {
	if Global.String() != "global" || Heap.String() != "heap" || Stack.String() != "stack" {
		t.Error("segment names wrong")
	}
}

func TestLargeAllocation(t *testing.T) {
	// The largest paper experiment holds an 8 MB matrix; make sure a
	// single large block works.
	s := NewSpace(arch.Ultra5)
	a, err := s.Malloc(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StorePrim(a+8<<20-8, arch.Double, 42); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentStoreDownwardGrowth(t *testing.T) {
	// The stack grows downward from StackBase; the backing array must
	// track the used region rather than materializing the whole
	// segment. Push a deep stack and confirm access at both extremes.
	s := NewSpace(arch.Ultra5)
	var bases []Address
	for i := 0; i < 50; i++ {
		b, err := s.PushFrame(1 << 16) // 64 KB frames, ~3.2 MB total
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	// Write at the deepest and shallowest frames.
	if err := s.StorePrim(bases[len(bases)-1], arch.Double, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.StorePrim(bases[0], arch.Double, 2); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.LoadPrim(bases[len(bases)-1], arch.Double)
	v2, _ := s.LoadPrim(bases[0], arch.Double)
	if v1 != 1 || v2 != 2 {
		t.Errorf("values = %d, %d", v1, v2)
	}
}

func TestSegmentStoreRebasePreservesData(t *testing.T) {
	// Writing high in the stack, then low (forcing a re-base), must
	// preserve the earlier bytes.
	s := NewSpace(arch.Ultra5)
	high, err := s.PushFrame(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(high, []byte("landmark")); err != nil {
		t.Fatal(err)
	}
	// Push enough frames to cross several origin-alignment boundaries.
	var low Address
	for i := 0; i < 40; i++ {
		low, err = s.PushFrame(1 << 18) // 256 KB
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteBytes(low, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(high, 8)
	if err != nil || string(got) != "landmark" {
		t.Errorf("high bytes after rebase = %q, %v", got, err)
	}
}

func TestSegmentGrowsToWhatIsNeeded(t *testing.T) {
	// A fresh process restoring one 4.7 MB block must not materialize the
	// next power of two (8 MB) and zero all of it.
	s := NewSpace(arch.SPARC20)
	const size = 768 * 768 * 8
	if _, err := s.Malloc(size); err != nil {
		t.Fatal(err)
	}
	if got := len(s.heap.data); got < size || got > size+growAlign {
		t.Errorf("backing array is %d bytes for a %d-byte block", got, size)
	}
	// Gradual growth still at least doubles.
	before := len(s.heap.data)
	if _, err := s.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if got := len(s.heap.data); got != before && got < 2*before {
		t.Errorf("backing array grew %d -> %d, want at least doubling", before, got)
	}
}

func TestZeroSkipsOnlyNeverExposedBytes(t *testing.T) {
	// Zero may skip bytes no view ever covered, and only those: a write
	// through a Bytes view beyond the allocator's blocks — a stray store —
	// must still be cleared when that range is later allocated.
	s := NewSpace(arch.DEC5000)
	a, _ := s.Malloc(64)
	stray, err := s.Bytes(a+4096, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stray {
		stray[i] = 0xee
	}
	big, _ := s.Malloc(1 << 20) // covers the stray range and fresh bytes beyond it
	mem, _ := s.Bytes(big, 1<<20)
	for i, v := range mem {
		if v != 0 {
			t.Fatalf("byte %d of a fresh block reads %#x", i, v)
		}
	}
	// The stack grows the other way: the hull's low edge moves.
	f1, _ := s.PushFrame(256)
	m1, _ := s.Bytes(f1, 256)
	for i := range m1 {
		m1[i] = 0xdd
	}
	s.PopFrame()
	f2, _ := s.PushFrame(1 << 16)
	m2, _ := s.Bytes(f2, 1<<16)
	for i, v := range m2 {
		if v != 0 {
			t.Fatalf("byte %d of a fresh frame reads %#x", i, v)
		}
	}
}

// TestViewInsideExposedRange: a view inside what earlier views exposed is
// handed out without the growth path, aliases the same bytes, and still
// refuses a negative length; one reaching past the exposed range takes the
// growth path and sees the same bytes too.
func TestViewInsideExposedRange(t *testing.T) {
	s := NewSpace(arch.SPARC20)
	a, err := s.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StorePrim(a+8, arch.Int, 0x01020304); err != nil {
		t.Fatal(err)
	}
	org, backed := s.heap.org, len(s.heap.data)
	b, err := s.Bytes(a+8, 4)
	if err != nil || string(b) != "\x01\x02\x03\x04" {
		t.Fatalf("view inside the exposed range: %x, %v", b, err)
	}
	b[0] = 9
	if v, _ := s.LoadPrim(a+8, arch.Int); v != 0x09020304 {
		t.Errorf("the view does not alias the segment: reread %#x", v)
	}
	if s.heap.org != org || len(s.heap.data) != backed {
		t.Error("a view inside the exposed range moved the backing array")
	}
	if _, err := s.Bytes(a+8, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative length inside the exposed range: %v, want ErrOutOfRange", err)
	}
	if b, err := s.Bytes(a+60, 8); err != nil || len(b) != 8 {
		t.Errorf("view across the exposed range's end: %d bytes, %v", len(b), err)
	}
}

// TestViewFollowsGrowth: a view taken once reads and writes its segment's
// current bytes after a write elsewhere reallocates the backing array, up
// past the globals or down below the stack; its writes pass the barrier
// with the byte ranges Writable would stamp, a repeat inside a stamped
// range included; and a frame of no bytes has the zero view.
func TestViewFollowsGrowth(t *testing.T) {
	s := NewSpace(arch.SPARC20)
	if _, err := s.GlobalAlloc(8, 8); err != nil {
		t.Fatal(err)
	}
	base, err := s.PushFrame(64)
	if err != nil {
		t.Fatal(err)
	}
	frame := s.TopFrame()
	for _, c := range []struct {
		v    *View
		at   Address
		away Address
	}{{s.Globals(), GlobalBase, GlobalBase + 1<<20}, {&frame, base, base - 1<<20}} {
		copy(c.v.Write(4, 4), "abcd")
		gen := c.v.st.gen
		if err := s.WriteBytes(c.away, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if c.v.st.gen == gen {
			t.Fatalf("a write at %#x did not reallocate the store", uint64(c.away))
		}
		if got := string(c.v.Read(4, 4)); got != "abcd" {
			t.Errorf("view at %#x reads %q after growth", uint64(c.at), got)
		}
		copy(c.v.Write(0, 2), "zz")
		if b, _ := s.Bytes(c.at, 8); string(b) != "zz\x00\x00abcd" {
			t.Errorf("a write through the view after growth is lost: %q", b)
		}
	}
	s.StartDirtyTracking()
	w := s.Generation()
	frame.Write(8, 4)
	frame.Write(8, 4)
	frame.Write(9, 2)
	frame.Write(20, 1)
	want := []DirtyRange{{base + 8, base + 21}}
	if got := s.DirtyRangesSince(w); !slices.Equal(got, want) {
		t.Errorf("dirty ranges %v, want %v", got, want)
	}
	if _, err := s.PushFrame(0); err != nil {
		t.Fatal(err)
	}
	if v := s.TopFrame(); v.st != nil || len(v.b) != 0 {
		t.Errorf("a frame of no bytes has a view of %d bytes", len(v.b))
	}
}

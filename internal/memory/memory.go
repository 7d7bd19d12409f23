// Package memory simulates the address space of a migrating process.
//
// The paper's mechanisms operate on memory blocks residing in the global,
// heap, and stack data segments of a C process. Because Go's runtime hides
// the layout of real process memory, this package provides the substrate the
// rest of the system manipulates: a byte-addressable space partitioned into
// the three classic segments, with loads and stores performed in the
// representation of a specific machine (endianness, scalar widths), a
// first-fit heap allocator with malloc/free semantics, and a downward-
// growing stack managed as frames.
//
// Addresses are opaque 64-bit values. Each segment occupies a disjoint
// range so that a pointer value alone identifies its segment, just as the
// MSR model classifies memory blocks by segment.
package memory

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
)

// Address is a location in the simulated address space. Address 0 is the
// null pointer and is never mapped.
type Address uint64

// Segment identifies one of the classic data segments of a process image.
type Segment uint8

const (
	// Global is the static data segment holding global variables.
	Global Segment = iota
	// Heap holds dynamically allocated memory blocks.
	Heap
	// Stack holds the local variables of active function invocations.
	Stack

	// NumSegments is the number of data segments.
	NumSegments
)

// String returns the segment name.
func (s Segment) String() string {
	switch s {
	case Global:
		return "global"
	case Heap:
		return "heap"
	case Stack:
		return "stack"
	}
	return fmt.Sprintf("segment(%d)", uint8(s))
}

// Segment base addresses and capacities. The bases are far apart so the
// segment of an address is recoverable from its value; the capacities are
// generous enough for the paper's largest experiment (an 8 MB linpack
// matrix) with plenty of headroom.
const (
	GlobalBase Address = 0x0000_0000_1000_0000
	HeapBase   Address = 0x0000_0000_4000_0000
	StackBase  Address = 0x0000_0000_7000_0000 // stack grows downward from here

	globalCap = 64 << 20
	heapCap   = 512 << 20
	stackCap  = 64 << 20
)

// Errors reported by the address space.
var (
	ErrOutOfRange    = errors.New("memory: address out of range")
	ErrNull          = errors.New("memory: null pointer dereference")
	ErrOutOfMemory   = errors.New("memory: out of memory")
	ErrBadFree       = errors.New("memory: free of address that is not an allocated block")
	ErrStackOverflow = errors.New("memory: stack overflow")
	ErrStackEmpty    = errors.New("memory: pop of empty stack")
)

// Space is a simulated process address space tied to one machine
// description. It is not safe for concurrent use; a migrating process is
// single-threaded, as in the paper.
type Space struct {
	mach *arch.Machine

	global segmentStore
	heap   segmentStore
	stack  segmentStore

	brk      Address // next free global address
	globals  View    // [GlobalBase, brk)
	stackTop Address // current top of stack (grows down)
	frames   []frame

	alloc allocator

	// dirty is the write-barrier state for live pre-copy migration; see
	// dirty.go. Off by default, in which case the barrier is one branch.
	dirty dirtyTracker

	// Stats accumulates allocation activity for the overhead analysis
	// of Section 4.3.
	Stats SpaceStats
}

// SpaceStats counts allocation activity in a space.
type SpaceStats struct {
	Mallocs      int64
	Frees        int64
	BytesAlloc   int64
	FramesPushed int64
}

// frame records one stack frame.
type frame struct {
	base Address // lowest address of the frame
	size int
}

// segmentStore is a lazily grown byte array backing one segment. The
// backing array covers [org, org+len(data)) and grows in either direction,
// so a downward-growing stack near the top of its range does not force the
// whole range to materialize.
type segmentStore struct {
	base Address
	cap  int
	org  Address // data[0] corresponds to this address
	data []byte

	// lo and hi bound every range slice has handed out. Backing bytes
	// outside [lo, hi) have never been exposed, so they still hold the
	// zeros they were allocated with and Zero need not clear them again.
	lo, hi Address

	// gen counts the reallocations of data, so a View can tell that the
	// slice it keeps is stale.
	gen uint64
}

// growAlign is the granule the backing array grows down by and its origin
// is aligned to; growing up, it is sized to the page, so a segment a
// process barely touches (a small restored heap) backs a page, not 64 KiB.
const (
	growAlign = 1 << 16
	pageSize  = 4 << 10
)

func (s *segmentStore) slice(addr Address, n int) ([]byte, error) {
	if addr >= s.lo && addr+Address(n) <= s.hi && n >= 0 {
		// Inside what an earlier range exposed: backed, and in bounds.
		rel := addr - s.org
		return s.data[rel : rel+Address(n)], nil
	}
	if addr == 0 {
		return nil, ErrNull
	}
	off := int64(addr) - int64(s.base)
	if off < 0 || off+int64(n) > int64(s.cap) || n < 0 {
		return nil, fmt.Errorf("%w: %#x+%d in %s", ErrOutOfRange, uint64(addr), n, "segment")
	}
	if s.data == nil {
		s.org = addr &^ (growAlign - 1) // segment bases are growAlign-aligned
	}
	if addr < s.org {
		// Grow downward: re-base to cover addr, at least doubling so a
		// deepening stack stays amortized (a shallow one never pays for
		// more than it touched).
		newOrg := min(addr&^(growAlign-1), s.org-Address(min(len(s.data), int(s.org-s.base))))
		shift := int(s.org - newOrg)
		nd := make([]byte, shift+len(s.data))
		copy(nd[shift:], s.data)
		s.org = newOrg
		s.data = nd
		s.gen++
	}
	rel := int(addr - s.org)
	end := rel + n
	if end > len(s.data) {
		// At least double, so gradual growth stays amortized; but a range
		// that needs more (the first large block of a restore) sizes the
		// array once, to the page, instead of to the next power of two.
		grown := max(2*len(s.data), (end+pageSize-1)&^(pageSize-1))
		grown = min(grown, s.cap-int(s.org-s.base))
		nd := make([]byte, grown)
		copy(nd, s.data)
		s.data = nd
		s.gen++
	}
	if addr < s.lo {
		s.lo = addr
	}
	if e := addr + Address(n); e > s.hi {
		s.hi = e
	}
	return s.data[rel:end], nil
}

// NewSpace creates an empty address space laid out for machine m.
func NewSpace(m *arch.Machine) *Space {
	sp := &Space{
		mach:     m,
		global:   segmentStore{base: GlobalBase, cap: globalCap, lo: ^Address(0)},
		heap:     segmentStore{base: HeapBase, cap: heapCap, lo: ^Address(0)},
		stack:    segmentStore{base: StackBase - stackCap, cap: stackCap, lo: ^Address(0)},
		brk:      GlobalBase,
		stackTop: StackBase,
	}
	sp.alloc.init(HeapBase, heapCap)
	return sp
}

// Machine returns the machine description the space is laid out for.
func (s *Space) Machine() *arch.Machine { return s.mach }

// SegmentOf classifies an address by segment. The second result is false
// for the null address or an address outside every segment.
func SegmentOf(addr Address) (Segment, bool) {
	switch {
	case addr >= GlobalBase && addr < GlobalBase+globalCap:
		return Global, true
	case addr >= HeapBase && addr < HeapBase+heapCap:
		return Heap, true
	case addr >= StackBase-stackCap && addr < StackBase:
		return Stack, true
	}
	return 0, false
}

// store resolves the segment of addr and its store; the store is nil for
// an address no segment holds (null among them).
func (s *Space) store(addr Address) (Segment, *segmentStore) {
	seg, ok := SegmentOf(addr)
	switch {
	case !ok:
		return 0, nil
	case seg == Global:
		return seg, &s.global
	case seg == Heap:
		return seg, &s.heap
	}
	return seg, &s.stack
}

// badAddress is the error of an access at addr, which no segment holds.
func badAddress(addr Address) error {
	if addr == 0 {
		return ErrNull
	}
	return fmt.Errorf("%w: %#x", ErrOutOfRange, uint64(addr))
}

// Bytes returns a writable view of n bytes at addr.
func (s *Space) Bytes(addr Address, n int) ([]byte, error) {
	_, st := s.store(addr)
	if st == nil {
		return nil, badAddress(addr)
	}
	return st.slice(addr, n)
}

// ReadBytes copies n bytes at addr into a fresh slice.
func (s *Space) ReadBytes(addr Address, n int) ([]byte, error) {
	b, err := s.Bytes(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// WriteBytes copies p into the space at addr. Bounds and segment
// resolution are shared with every other mutation path through the
// mutable choke point.
func (s *Space) WriteBytes(addr Address, p []byte) error {
	b, err := s.mutable(addr, len(p))
	if err != nil {
		return err
	}
	copy(b, p)
	return nil
}

// Zero clears n bytes at addr. The part of the range no view has ever
// covered is skipped: it is still zero from allocation (a fresh process
// restoring a multi-megabyte block would otherwise clear it twice before
// overwriting it).
func (s *Space) Zero(addr Address, n int) error {
	seg, st := s.store(addr)
	if st == nil {
		return badAddress(addr)
	}
	lo, hi := st.lo, st.hi
	b, err := s.mutableIn(seg, st, addr, n)
	if err != nil {
		return err
	}
	from, to := max(addr, lo), min(addr+Address(n), hi)
	if from < to {
		clear(b[from-addr : to-addr])
	}
	return nil
}

// Writable returns a view of n bytes at addr for the caller to store
// into. It passes the write barrier, as every other mutation does.
func (s *Space) Writable(addr Address, n int) ([]byte, error) { return s.mutable(addr, n) }

// View is a window a caller keeps onto a range of one segment — a stack
// frame (TopFrame) or the globals (Globals) — so that an access at a
// constant offset in it skips the translation Bytes and Writable make on
// every call: no segment classification, no store lookup and no range
// check. It survives the growth of its segment, since the store counts its
// reallocations and a view whose count is stale re-slices before it is
// used.
type View struct {
	d    *dirtyTracker
	l    *blockLog
	st   *segmentStore
	addr Address
	gen  uint64
	b    []byte
}

// view exposes n bytes at addr, as Bytes does, and returns a view of them.
// A view of no bytes is the zero View, which holds no offset.
func (s *Space) view(addr Address, n int) (View, error) {
	if n == 0 {
		return View{}, nil
	}
	seg, st := s.store(addr)
	if st == nil {
		return View{}, badAddress(addr)
	}
	b, err := st.slice(addr, n)
	return View{d: &s.dirty, l: &s.dirty.logs[seg], st: st, addr: addr, gen: st.gen, b: b}, err
}

// Read returns the n bytes at offset off in the view.
func (v *View) Read(off, n int) []byte {
	if v.gen != v.st.gen {
		v.retake()
	}
	return v.b[off : off+n]
}

// Write returns the n bytes at offset off in the view for the caller to
// store into. It passes the write barrier, through the mark entry of the
// view's segment.
func (v *View) Write(off, n int) []byte {
	if v.d.on || v.gen != v.st.gen {
		v.prepare(off, n)
	}
	return v.b[off : off+n]
}

// prepare is Write's work out of line, so that Write inlines: it marks
// the n bytes at off when tracking is on, and re-takes a stale view.
func (v *View) prepare(off, n int) {
	if v.d.on {
		v.d.mark(v.l, v.st, v.addr+Address(off), n)
	}
	if v.gen != v.st.gen {
		v.retake()
	}
}

// retake re-slices the view from its store's current backing array, which
// still covers the view: a store only grows. It is out of line so that
// Read inlines.
//
//go:noinline
func (v *View) retake() {
	rel := v.addr - v.st.org
	v.b, v.gen = v.st.data[rel:rel+Address(len(v.b))], v.st.gen
}

// LoadPrim loads a scalar of primitive kind k at addr in the machine's
// representation, returning the canonical 64-bit value (see arch.Prim).
func (s *Space) LoadPrim(addr Address, k arch.PrimKind) (uint64, error) {
	b, err := s.Bytes(addr, s.mach.SizeOf(k))
	if err != nil {
		return 0, err
	}
	return s.mach.Prim(b, k), nil
}

// StorePrim stores a scalar of primitive kind k at addr.
func (s *Space) StorePrim(addr Address, k arch.PrimKind, v uint64) error {
	b, err := s.mutable(addr, s.mach.SizeOf(k))
	if err != nil {
		return err
	}
	s.mach.PutPrim(b, k, v)
	return nil
}

// LoadPtr loads a pointer value at addr.
func (s *Space) LoadPtr(addr Address) (Address, error) {
	v, err := s.LoadPrim(addr, arch.Ptr)
	return Address(v), err
}

// StorePtr stores a pointer value at addr.
func (s *Space) StorePtr(addr Address, p Address) error {
	return s.StorePrim(addr, arch.Ptr, uint64(p))
}

// GlobalAlloc reserves size bytes with the given alignment in the global
// segment. Globals are allocated once at program load and never freed.
func (s *Space) GlobalAlloc(size, align int) (Address, error) {
	if align <= 0 {
		align = 1
	}
	addr := Address(arch.Align(int(s.brk-GlobalBase), align)) + GlobalBase
	if int64(addr-GlobalBase)+int64(size) > globalCap {
		return 0, ErrOutOfMemory
	}
	s.brk = addr + Address(size)
	if size > 0 {
		if err := s.Zero(addr, size); err != nil {
			return 0, err
		}
	}
	var err error
	s.globals, err = s.view(GlobalBase, int(s.brk-GlobalBase))
	return addr, err
}

// Globals returns the view of every global GlobalAlloc has reserved, which
// each reservation extends.
func (s *Space) Globals() *View { return &s.globals }

// PushFrame reserves a stack frame of the given size (growing the stack
// downward, maintaining 16-byte frame alignment) and returns its base
// address — the lowest address of the frame.
func (s *Space) PushFrame(size int) (Address, error) {
	need := Address(arch.Align(size, 16))
	if s.stackTop < StackBase-stackCap+need {
		return 0, ErrStackOverflow
	}
	base := s.stackTop - need
	s.stackTop = base
	s.frames = append(s.frames, frame{base: base, size: size})
	s.Stats.FramesPushed++
	if size > 0 {
		if err := s.Zero(base, size); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// TopFrame returns a view of the innermost frame. PushFrame exposed its
// range when it zeroed it, so the stack's backing array covers it as is.
func (s *Space) TopFrame() View {
	f, st := s.frames[len(s.frames)-1], &s.stack
	if f.size == 0 {
		return View{}
	}
	rel := f.base - st.org
	return View{d: &s.dirty, l: &s.dirty.logs[Stack], st: st, addr: f.base, gen: st.gen, b: st.data[rel : rel+Address(f.size)]}
}

// PopFrame releases the most recently pushed frame.
func (s *Space) PopFrame() error {
	if len(s.frames) == 0 {
		return ErrStackEmpty
	}
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.stackTop = f.base + Address(arch.Align(f.size, 16))
	return nil
}

// Malloc allocates size bytes in the heap segment, aligned for any scalar,
// and zeroes them. A size of zero allocates a minimal valid block, as
// malloc(0) may in C.
func (s *Space) Malloc(size int) (Address, error) {
	if size < 0 {
		return 0, ErrOutOfMemory
	}
	addr, err := s.alloc.allocate(size)
	if err != nil {
		return 0, err
	}
	s.Stats.Mallocs++
	s.Stats.BytesAlloc += int64(size)
	if size > 0 {
		if err := s.Zero(addr, size); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// ReserveMallocs announces n coming Malloc calls — a restore knows a
// section's block count before it allocates the first — so the allocator's
// block index grows once instead of block by block.
func (s *Space) ReserveMallocs(n int) { s.alloc.reserve(n) }

// Free releases a heap block previously returned by Malloc.
func (s *Space) Free(addr Address) error {
	if err := s.alloc.free(addr); err != nil {
		return err
	}
	s.Stats.Frees++
	return nil
}

// CopyHeap makes the heap segment and allocator of s a copy of src's:
// every block src holds is then allocated in s at the same address, with
// the same contents. The global and stack segments of s are untouched.
// Only the bytes src ever exposed are copied; the rest are zero either way.
func (s *Space) CopyHeap(src *Space) {
	s.heap, s.alloc = src.heap, src.alloc
	s.heap.data = slices.Clone(src.heap.data[:src.heap.hi-src.heap.org])
	s.alloc.freeList = slices.Clone(src.alloc.freeList)
	s.alloc.allocated.slots = slices.Clone(src.alloc.allocated.slots)
}

// HeapLive returns the number of live heap blocks.
func (s *Space) HeapLive() int { return s.alloc.allocated.n }

package xdr

import (
	"bytes"
	"errors"
	"testing"
)

// TestPooledEncoderReuse pins the pool contract: a released encoder comes
// back reset (empty stream, zero counters) and retains its grown buffer
// capacity, so steady-state captures stop allocating.
func TestPooledEncoderReuse(t *testing.T) {
	e := GetEncoder(64)
	e.PutFixedOpaque(make([]byte, 4096))
	grown := cap(e.buf)
	e.Release()

	// Drain the pool until we get the same encoder back (the pool is
	// per-P, so with GOMAXPROCS=1 in tests the first Get returns it; be
	// defensive and just check the invariants on whatever comes back).
	f := GetEncoder(64)
	if f.Len() != 0 || f.Calls() != 0 {
		t.Fatalf("pooled encoder not reset: len=%d calls=%d", f.Len(), f.Calls())
	}
	if f == e && cap(f.buf) != grown {
		t.Fatalf("released encoder lost its buffer: cap=%d want %d", cap(f.buf), grown)
	}
	// A larger capacity request must be honored even on a recycled encoder.
	g := GetEncoder(1 << 20)
	if cap(g.buf) < 1<<20 {
		t.Fatalf("GetEncoder(1MB) returned cap %d", cap(g.buf))
	}
	f.Release()
	g.Release()
}

// TestBatchedPutsMatchScalarPuts requires the slab writers (Put2Uint32,
// Put4Uint32) to produce byte-identical streams to the equivalent
// sequence of PutUint32 calls — batching is a pure call-count
// optimization, never a format change.
func TestBatchedPutsMatchScalarPuts(t *testing.T) {
	vals := []uint32{0, 1, 0xdeadbeef, 0x7fffffff, 0x80000000, 42, 7, 0xffffffff}

	var want Encoder
	for _, v := range vals {
		want.PutUint32(v)
	}

	var e2 Encoder
	for i := 0; i < len(vals); i += 2 {
		e2.Put2Uint32(vals[i], vals[i+1])
	}
	if !bytes.Equal(e2.Bytes(), want.Bytes()) {
		t.Error("Put2Uint32 stream differs from PutUint32 stream")
	}
	if e2.Calls() != len(vals)/2 {
		t.Errorf("Put2Uint32 made %d grow calls, want %d", e2.Calls(), len(vals)/2)
	}

	var e4 Encoder
	for i := 0; i < len(vals); i += 4 {
		e4.Put4Uint32(vals[i], vals[i+1], vals[i+2], vals[i+3])
	}
	if !bytes.Equal(e4.Bytes(), want.Bytes()) {
		t.Error("Put4Uint32 stream differs from PutUint32 stream")
	}
	if e4.Calls() != len(vals)/4 {
		t.Errorf("Put4Uint32 made %d grow calls, want %d", e4.Calls(), len(vals)/4)
	}
}

// TestUint32x3x4RoundTrip pins the bulk decoders against the scalar one,
// including the short-buffer error on truncation.
func TestUint32x3x4RoundTrip(t *testing.T) {
	var e Encoder
	e.Put4Uint32(10, 20, 30, 40)
	e.Put4Uint32(0xaabbccdd, 0, 0xffffffff, 1)

	d := NewDecoder(e.Bytes())
	a, b, c, err := d.Uint32x3()
	if err != nil || a != 10 || b != 20 || c != 30 {
		t.Fatalf("Uint32x3 = %d,%d,%d (%v)", a, b, c, err)
	}
	w, x, y, z, err := d.Uint32x4()
	if err != nil || w != 40 || x != 0xaabbccdd || y != 0 || z != 0xffffffff {
		t.Fatalf("Uint32x4 = %d,%d,%d,%d (%v)", w, x, y, z, err)
	}
	if v, err := d.Uint32(); err != nil || v != 1 {
		t.Fatalf("trailing Uint32 = %d (%v)", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}

	short := NewDecoder(e.Bytes()[:10])
	if _, _, _, err := short.Uint32x3(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Uint32x3 on 10 bytes: %v, want ErrShortBuffer", err)
	}
	if _, _, _, _, err := short.Uint32x4(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Uint32x4 on 10 bytes: %v, want ErrShortBuffer", err)
	}
}

package xdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUint32WireFormat(t *testing.T) {
	var e Encoder
	e.PutUint32(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{1, 2, 3, 4}) {
		t.Errorf("wire bytes = % x, want 01 02 03 04", e.Bytes())
	}
}

func TestInt32Negative(t *testing.T) {
	var e Encoder
	e.PutInt32(-1)
	if !bytes.Equal(e.Bytes(), []byte{0xff, 0xff, 0xff, 0xff}) {
		t.Errorf("wire bytes = % x", e.Bytes())
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Int32()
	if err != nil || v != -1 {
		t.Errorf("decoded %d, %v", v, err)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	var e Encoder
	e.PutInt32(-42)
	e.PutUint32(42)
	e.PutInt64(-1 << 40)
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat32(1.5)
	e.PutFloat64(math.Pi)

	d := NewDecoder(e.Bytes())
	if v, _ := d.Int32(); v != -42 {
		t.Errorf("Int32 = %d", v)
	}
	if v, _ := d.Uint32(); v != 42 {
		t.Errorf("Uint32 = %d", v)
	}
	if v, _ := d.Int64(); v != -1<<40 {
		t.Errorf("Int64 = %d", v)
	}
	if v, _ := d.Uint64(); v != 1<<40 {
		t.Errorf("Uint64 = %d", v)
	}
	if v, _ := d.Bool(); !v {
		t.Error("Bool = false, want true")
	}
	if v, _ := d.Bool(); v {
		t.Error("Bool = true, want false")
	}
	if v, _ := d.Float32(); v != 1.5 {
		t.Errorf("Float32 = %g", v)
	}
	if v, _ := d.Float64(); v != math.Pi {
		t.Errorf("Float64 = %g", v)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", d.Remaining())
	}
}

func TestStringPadding(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		var e Encoder
		e.PutString(s)
		if e.Len()%4 != 0 {
			t.Errorf("string %q: stream length %d not a multiple of 4", s, e.Len())
		}
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			t.Errorf("string %q round trip: %q, %v", s, got, err)
		}
		if d.Remaining() != 0 {
			t.Errorf("string %q: %d bytes remain", s, d.Remaining())
		}
	}
}

func TestOpaque(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}
	var e Encoder
	e.PutOpaque(payload)
	e.PutUint32(0xcafe) // guard value after the padding
	d := NewDecoder(e.Bytes())
	got, err := d.Opaque()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("opaque round trip: % x, %v", got, err)
	}
	if v, _ := d.Uint32(); v != 0xcafe {
		t.Errorf("guard after padding = %#x", v)
	}
}

func TestFixedOpaque(t *testing.T) {
	var e Encoder
	e.PutFixedOpaque([]byte{1, 2, 3})
	if e.Len() != 4 {
		t.Errorf("fixed opaque of 3 bytes encoded as %d bytes, want 4", e.Len())
	}
	d := NewDecoder(e.Bytes())
	got, err := d.FixedOpaque(3)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("fixed opaque = % x, %v", got, err)
	}
	if d.Remaining() != 0 {
		t.Error("padding not consumed")
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Errorf("Uint32 on short buffer: %v", err)
	}
	d = NewDecoder([]byte{0, 0, 0, 9, 'h', 'i'})
	if _, err := d.Opaque(); err != ErrLength {
		t.Errorf("Opaque with oversized length: %v", err)
	}
	d = NewDecoder(nil)
	if _, err := d.Float64(); err != ErrShortBuffer {
		t.Errorf("Float64 on empty buffer: %v", err)
	}
}

func TestBoolStrict(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 2})
	if _, err := d.Bool(); err == nil {
		t.Error("Bool accepted invalid enum value 2")
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.PutUint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset did not clear the buffer")
	}
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); v != 2 {
		t.Errorf("after reset, decoded %d", v)
	}
}

func TestGrowTake(t *testing.T) {
	var e Encoder
	copy(e.Grow(4), []byte{1, 2, 3, 4})
	d := NewDecoder(e.Bytes())
	b, err := d.Take(4)
	if err != nil || !bytes.Equal(b, []byte{1, 2, 3, 4}) {
		t.Errorf("Grow/Take: % x, %v", b, err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(i32 int32, u32 uint32, i64 int64, u64 uint64, f64 float64, s string, op []byte) bool {
		var e Encoder
		e.PutInt32(i32)
		e.PutUint32(u32)
		e.PutInt64(i64)
		e.PutUint64(u64)
		e.PutFloat64(f64)
		e.PutString(s)
		e.PutOpaque(op)
		d := NewDecoder(e.Bytes())
		gi32, _ := d.Int32()
		gu32, _ := d.Uint32()
		gi64, _ := d.Int64()
		gu64, _ := d.Uint64()
		gf64, _ := d.Float64()
		gs, _ := d.String()
		gop, err := d.Opaque()
		if err != nil {
			return false
		}
		if math.IsNaN(f64) {
			if !math.IsNaN(gf64) {
				return false
			}
		} else if gf64 != f64 {
			return false
		}
		return gi32 == i32 && gu32 == u32 && gi64 == i64 && gu64 == u64 &&
			gs == s && bytes.Equal(gop, op) && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAlignmentInvariant(t *testing.T) {
	// Property: after any sequence of Put operations the stream length is
	// a multiple of four (XDR's fundamental alignment invariant).
	f := func(ops []byte, s string, op []byte) bool {
		var e Encoder
		for _, o := range ops {
			switch o % 5 {
			case 0:
				e.PutUint32(uint32(o))
			case 1:
				e.PutUint64(uint64(o))
			case 2:
				e.PutString(s)
			case 3:
				e.PutOpaque(op)
			case 4:
				e.PutFloat64(float64(o))
			}
		}
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

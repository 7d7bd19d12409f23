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

// TestInt32Negative: a signed integer travels as its two's-complement
// bits, so -1 is four 0xff bytes and reads back as -1.
func TestInt32Negative(t *testing.T) {
	var e Encoder
	minusOne := int32(-1)
	e.PutUint32(uint32(minusOne))
	if !bytes.Equal(e.Bytes(), []byte{0xff, 0xff, 0xff, 0xff}) {
		t.Errorf("wire bytes = % x", e.Bytes())
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Uint32()
	if err != nil || int32(v) != -1 {
		t.Errorf("decoded %d, %v", int32(v), err)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	i32, i64 := int32(-42), int64(-1<<40)
	var e Encoder
	e.PutUint32(uint32(i32))
	e.PutUint32(42)
	e.PutUint64(uint64(i64))
	e.PutUint64(1 << 40)
	e.PutUint32(math.Float32bits(1.5))
	e.PutUint64(math.Float64bits(math.Pi))

	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); int32(v) != -42 {
		t.Errorf("int32 = %d", int32(v))
	}
	if v, _ := d.Uint32(); v != 42 {
		t.Errorf("Uint32 = %d", v)
	}
	if v, _ := d.Uint64(); int64(v) != -1<<40 {
		t.Errorf("int64 = %d", int64(v))
	}
	if v, _ := d.Uint64(); v != 1<<40 {
		t.Errorf("Uint64 = %d", v)
	}
	if v, _ := d.Uint32(); math.Float32frombits(v) != 1.5 {
		t.Errorf("float32 = %g", math.Float32frombits(v))
	}
	if v, _ := d.Uint64(); math.Float64frombits(v) != math.Pi {
		t.Errorf("float64 = %g", math.Float64frombits(v))
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
	if _, err := d.Uint64(); err != ErrShortBuffer {
		t.Errorf("Uint64 on empty buffer: %v", err)
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
		e.PutUint32(uint32(i32))
		e.PutUint32(u32)
		e.PutUint64(uint64(i64))
		e.PutUint64(u64)
		e.PutUint64(math.Float64bits(f64))
		e.PutString(s)
		e.PutOpaque(op)
		d := NewDecoder(e.Bytes())
		gi32, _ := d.Uint32()
		gu32, _ := d.Uint32()
		gi64, _ := d.Uint64()
		gu64, _ := d.Uint64()
		gf64bits, _ := d.Uint64()
		gf64 := math.Float64frombits(gf64bits)
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
		return int32(gi32) == i32 && gu32 == u32 && int64(gi64) == i64 && gu64 == u64 &&
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
				e.PutFixedOpaque(op)
			}
		}
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package arch

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRegistryDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Machines() {
		if seen[m.Name] {
			t.Errorf("duplicate machine name %q", m.Name)
		}
		seen[m.Name] = true
		if Lookup(m.Name) != m {
			t.Errorf("Lookup(%q) did not return the registered machine", m.Name)
		}
	}
	if Lookup("pdp11") != nil {
		t.Error("Lookup of unregistered machine should return nil")
	}
}

func TestPrimSizes(t *testing.T) {
	for _, m := range Machines() {
		if got := m.SizeOf(Char); got != 1 {
			t.Errorf("%s: sizeof(char) = %d", m.Name, got)
		}
		if got := m.SizeOf(Int); got != 4 {
			t.Errorf("%s: sizeof(int) = %d", m.Name, got)
		}
		if got := m.SizeOf(Double); got != 8 {
			t.Errorf("%s: sizeof(double) = %d", m.Name, got)
		}
		if m.WordSize == 8 {
			if m.SizeOf(Long) != 8 || m.PtrSize() != 8 {
				t.Errorf("%s: LP64 machine must have 8-byte long and pointer", m.Name)
			}
		} else {
			if m.SizeOf(Long) != 4 || m.PtrSize() != 4 {
				t.Errorf("%s: ILP32 machine must have 4-byte long and pointer", m.Name)
			}
		}
	}
}

func TestEndiannessPair(t *testing.T) {
	// The paper's heterogeneous experiment relies on DEC 5000 and
	// SPARC 20 using different endianness.
	if DEC5000.Order != LittleEndian {
		t.Error("DEC5000 must be little-endian")
	}
	if SPARC20.Order != BigEndian {
		t.Error("SPARC20 must be big-endian")
	}
}

func TestI386DoubleAlignment(t *testing.T) {
	if got := I386.AlignOf(Double); got != 4 {
		t.Errorf("i386 double alignment = %d, want 4", got)
	}
	if got := Ultra5.AlignOf(Double); got != 8 {
		t.Errorf("ultra5 double alignment = %d, want 8", got)
	}
}

func TestAlign(t *testing.T) {
	cases := []struct{ off, align, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8},
		{7, 8, 8}, {8, 8, 8}, {9, 8, 16}, {3, 2, 4},
	}
	for _, c := range cases {
		if got := Align(c.off, c.align); got != c.want {
			t.Errorf("Align(%d,%d) = %d, want %d", c.off, c.align, got, c.want)
		}
	}
}

func TestUintRoundTripAllSizes(t *testing.T) {
	for _, m := range Machines() {
		for size := 1; size <= 8; size++ {
			buf := make([]byte, 8)
			vals := []uint64{0, 1, 0x7f, 0x80, 0xff, 0xdead, 0xdeadbeef, math.MaxUint64}
			for _, v := range vals {
				want := v
				if size < 8 {
					want = v & (1<<(8*size) - 1)
				}
				m.PutUint(buf, v, size)
				if got := m.Uint(buf, size); got != want {
					t.Errorf("%s: Uint(PutUint(%#x, %d)) = %#x, want %#x",
						m.Name, v, size, got, want)
				}
			}
		}
	}
}

// TestUintByteLayout pins the byte image of every width 1..8 — the
// fixed-width fast paths and, through the odd sizes 3/5/6/7, the generic
// byte loop — against a shift-and-mask reference.
func TestUintByteLayout(t *testing.T) {
	const v uint64 = 0x0102030405060708
	for _, m := range Machines() {
		for size := 1; size <= 8; size++ {
			want := make([]byte, size)
			for i := range want {
				b := byte(v >> (8 * i))
				if m.Order == LittleEndian {
					want[i] = b
				} else {
					want[size-1-i] = b
				}
			}
			got := make([]byte, size)
			m.PutUint(got, v, size)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: PutUint size %d = % x, want % x", m.Name, size, got, want)
			}
			mask := uint64(math.MaxUint64) >> (64 - 8*size)
			if r := m.Uint(want, size); r != v&mask {
				t.Errorf("%s: Uint size %d = %#x, want %#x", m.Name, size, r, v&mask)
			}
		}
	}
	for _, size := range []int{0, 9} {
		assertPanics(t, "PutUint", func() { DEC5000.PutUint(make([]byte, 16), 1, size) })
		assertPanics(t, "Uint", func() { SPARC20.Uint(make([]byte, 16), size) })
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s with a bad size did not panic", name)
		}
	}()
	f()
}

func TestIntSignExtension(t *testing.T) {
	buf := make([]byte, 8)
	for _, m := range Machines() {
		for size := 1; size <= 8; size++ {
			for _, v := range []int64{0, 1, -1, -128, 127, -32768} {
				// Skip values that do not fit the width.
				if size < 8 {
					min := -int64(1) << (8*size - 1)
					max := int64(1)<<(8*size-1) - 1
					if v < min || v > max {
						continue
					}
				}
				m.PutInt(buf, v, size)
				if got := m.Int(buf, size); got != v {
					t.Errorf("%s: Int round trip size %d: got %d, want %d", m.Name, size, got, v)
				}
			}
		}
	}
}

func TestByteOrderMatters(t *testing.T) {
	buf := make([]byte, 4)
	DEC5000.PutUint(buf, 0x01020304, 4)
	if buf[0] != 0x04 || buf[3] != 0x01 {
		t.Errorf("little-endian layout wrong: % x", buf)
	}
	SPARC20.PutUint(buf, 0x01020304, 4)
	if buf[0] != 0x01 || buf[3] != 0x04 {
		t.Errorf("big-endian layout wrong: % x", buf)
	}
	// Cross-reading must byte-swap.
	DEC5000.PutUint(buf, 0x01020304, 4)
	if got := SPARC20.Uint(buf, 4); got != 0x04030201 {
		t.Errorf("cross-endian read = %#x, want 0x04030201", got)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1)}
	buf := make([]byte, 8)
	for _, m := range Machines() {
		for _, v := range vals {
			m.PutFloat64(buf, v)
			if got := m.Float64(buf); got != v {
				t.Errorf("%s: Float64 round trip %g -> %g", m.Name, v, got)
			}
			f32 := float32(v)
			m.PutFloat32(buf, f32)
			if got := m.Float32(buf); got != f32 && !(math.IsNaN(float64(f32)) && math.IsNaN(float64(got))) {
				t.Errorf("%s: Float32 round trip %g -> %g", m.Name, f32, got)
			}
		}
	}
}

func TestFloatNaNBitsPreserved(t *testing.T) {
	buf := make([]byte, 8)
	nan := math.Float64frombits(0x7ff8deadbeef0001)
	for _, m := range Machines() {
		m.PutFloat64(buf, nan)
		if got := math.Float64bits(m.Float64(buf)); got != 0x7ff8deadbeef0001 {
			t.Errorf("%s: NaN payload not preserved: %#x", m.Name, got)
		}
	}
}

func TestPrimRoundTripQuick(t *testing.T) {
	kinds := []PrimKind{Char, UChar, Short, UShort, Int, UInt, Long, ULong,
		LongLong, ULongLong, Ptr}
	for _, m := range Machines() {
		m := m
		f := func(v uint64, ki uint8) bool {
			k := kinds[int(ki)%len(kinds)]
			size := m.SizeOf(k)
			buf := make([]byte, 8)
			m.PutPrim(buf, k, v)
			got := m.Prim(buf, k)
			// The round trip must preserve the low size*8 bits; for
			// signed kinds the rest is sign extension of bit size*8-1.
			mask := uint64(1)<<(8*size) - 1
			if size == 8 {
				mask = ^uint64(0)
			}
			if got&mask != v&mask {
				return false
			}
			if k.IsSigned() && size < 8 {
				sign := got & (1 << (8*size - 1))
				hi := got &^ mask
				if sign != 0 && hi != ^mask {
					return false
				}
				if sign == 0 && hi != 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestPrimFloat(t *testing.T) {
	buf := make([]byte, 8)
	for _, m := range Machines() {
		bits := math.Float64bits(2.718281828)
		m.PutPrim(buf, Double, bits)
		if got := m.Prim(buf, Double); got != bits {
			t.Errorf("%s: Prim(Double) = %#x, want %#x", m.Name, got, bits)
		}
		b32 := uint64(math.Float32bits(1.5))
		m.PutPrim(buf, Float, b32)
		if got := m.Prim(buf, Float); got != b32 {
			t.Errorf("%s: Prim(Float) = %#x, want %#x", m.Name, got, b32)
		}
	}
}

func TestPrimKindPredicates(t *testing.T) {
	if !Int.IsInteger() || !Int.IsSigned() || Int.IsFloat() {
		t.Error("Int predicates wrong")
	}
	if !UInt.IsInteger() || UInt.IsSigned() {
		t.Error("UInt predicates wrong")
	}
	if !Double.IsFloat() || Double.IsInteger() {
		t.Error("Double predicates wrong")
	}
	if Ptr.IsInteger() || Ptr.IsFloat() || Ptr.IsSigned() {
		t.Error("Ptr predicates wrong")
	}
	if Int.Unsigned() != UInt || Char.Unsigned() != UChar || UInt.Unsigned() != UInt {
		t.Error("Unsigned mapping wrong")
	}
}

func TestMachineString(t *testing.T) {
	s := DEC5000.String()
	if s == "" {
		t.Fatal("empty machine string")
	}
	for _, want := range []string{"dec5000", "ultrix", "little-endian"} {
		if !contains(s, want) {
			t.Errorf("machine string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

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

// allKinds is every primitive kind that has storage: the scalar codec
// (Machine.Load and Machine.Store) must handle each one on every machine.
var allKinds = []PrimKind{Char, UChar, Short, UShort, Int, UInt, Long, ULong,
	LongLong, ULongLong, Float, Double, Ptr}

// canon is what Load must return for the low 8*size bits of v: those bits
// sign-extended for a signed kind, zero-extended for any other.
func canon(v uint64, size int, signed bool) uint64 {
	shift := uint(64 - 8*size)
	if signed {
		return uint64(int64(v<<shift) >> shift)
	}
	return v << shift >> shift
}

func TestUintRoundTripAllSizes(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0xff, 0xdead, 0xdeadbeef, math.MaxUint64}
	for _, m := range Machines() {
		for _, k := range allKinds {
			size := m.SizeOf(k)
			for _, v := range vals {
				buf := make([]byte, 8)
				m.Store(k)(buf, v)
				if !bytes.Equal(buf[size:], make([]byte, 8-size)) {
					t.Errorf("%s: Store(%s) of %#x wrote past its %d bytes: % x", m.Name, k, v, size, buf)
				}
				if got, want := m.Load(k)(buf), canon(v, size, k.IsSigned()); got != want {
					t.Errorf("%s: Load(%s)(Store(%#x)) = %#x, want %#x", m.Name, k, v, got, want)
				}
			}
		}
	}
}

// TestUintByteLayout pins the byte image of every kind's width against a
// shift-and-mask reference, in both directions.
func TestUintByteLayout(t *testing.T) {
	const v uint64 = 0x0102030405060708
	for _, m := range Machines() {
		for _, k := range allKinds {
			size := m.SizeOf(k)
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
			m.Store(k)(got, v)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: Store(%s) = % x, want % x", m.Name, k, got, want)
			}
			if r := m.Load(k)(want); r != canon(v, size, false) {
				t.Errorf("%s: Load(%s) = %#x, want %#x", m.Name, k, r, canon(v, size, false))
			}
		}
	}
}

func TestIntSignExtension(t *testing.T) {
	buf := make([]byte, 8)
	for _, m := range Machines() {
		for _, k := range allKinds {
			if !k.IsInteger() {
				continue
			}
			size := m.SizeOf(k)
			for _, v := range []int64{0, 1, -1, -128, 127, -32768} {
				// Skip values that do not fit the width.
				if size < 8 {
					min := -int64(1) << (8*size - 1)
					max := int64(1)<<(8*size-1) - 1
					if v < min || v > max {
						continue
					}
				}
				m.Store(k)(buf, uint64(v))
				got := m.Load(k)(buf)
				if k.IsSigned() && int64(got) != v {
					t.Errorf("%s: %s round trip: got %d, want %d", m.Name, k, int64(got), v)
				}
				// The same bits read as unsigned are zero-extended.
				if !k.IsSigned() && got != canon(uint64(v), size, false) {
					t.Errorf("%s: %s read of %d = %#x, want it zero-extended", m.Name, k, v, got)
				}
			}
		}
	}
}

func TestByteOrderMatters(t *testing.T) {
	buf := make([]byte, 4)
	DEC5000.Store(UInt)(buf, 0x01020304)
	if buf[0] != 0x04 || buf[3] != 0x01 {
		t.Errorf("little-endian layout wrong: % x", buf)
	}
	SPARC20.Store(UInt)(buf, 0x01020304)
	if buf[0] != 0x01 || buf[3] != 0x04 {
		t.Errorf("big-endian layout wrong: % x", buf)
	}
	// Cross-reading must byte-swap.
	DEC5000.Store(UInt)(buf, 0x01020304)
	if got := SPARC20.Load(UInt)(buf); got != 0x04030201 {
		t.Errorf("cross-endian read = %#x, want 0x04030201", got)
	}
	// A signed read of the swapped bytes sign-extends what it sees.
	DEC5000.Store(Int)(buf, 0x80)
	if got := SPARC20.Load(Int)(buf); int64(got) != -0x80000000 {
		t.Errorf("cross-endian signed read = %d, want %d", int64(got), -0x80000000)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1)}
	buf := make([]byte, 8)
	for _, m := range Machines() {
		for _, v := range vals {
			m.Store(Double)(buf, math.Float64bits(v))
			if got := math.Float64frombits(m.Load(Double)(buf)); got != v {
				t.Errorf("%s: double round trip %g -> %g", m.Name, v, got)
			}
			f32 := float32(v)
			m.Store(Float)(buf, uint64(math.Float32bits(f32)))
			bits := m.Load(Float)(buf)
			if bits>>32 != 0 {
				t.Errorf("%s: float load %#x is not a zero-extended 32-bit pattern", m.Name, bits)
			}
			if got := math.Float32frombits(uint32(bits)); got != f32 {
				t.Errorf("%s: float round trip %g -> %g", m.Name, f32, got)
			}
		}
	}
}

func TestFloatNaNBitsPreserved(t *testing.T) {
	buf := make([]byte, 8)
	for _, m := range Machines() {
		m.Store(Double)(buf, 0x7ff8deadbeef0001)
		if got := m.Load(Double)(buf); got != 0x7ff8deadbeef0001 {
			t.Errorf("%s: double NaN payload not preserved: %#x", m.Name, got)
		}
		m.Store(Float)(buf, 0x7fc0beef)
		if got := m.Load(Float)(buf); got != 0x7fc0beef {
			t.Errorf("%s: float NaN payload not preserved: %#x", m.Name, got)
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

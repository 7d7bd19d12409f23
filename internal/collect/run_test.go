package collect

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
	"repro/internal/xdr"
)

// The oracle the run kernels are checked against: the per-element
// conversion through Machine.Prim / PutPrim and a byte-at-a-time
// big-endian put/get, exactly as the collector worked before the kernels.

func putBE(b []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		b[n-1-i] = byte(v >> (8 * i))
	}
}

func getBE(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func oracleEncode(m *arch.Machine, k arch.PrimKind, src []byte) []byte {
	size, ws := m.SizeOf(k), types.WireSize(k)
	out := make([]byte, len(src)/size*ws)
	for i := 0; i < len(src)/size; i++ {
		putBE(out[i*ws:], m.Prim(src[i*size:], k), ws)
	}
	return out
}

func oracleDecode(m *arch.Machine, k arch.PrimKind, in []byte) []byte {
	size, ws := m.SizeOf(k), types.WireSize(k)
	dst := make([]byte, len(in)/ws*size)
	for i := 0; i < len(in)/ws; i++ {
		m.PutPrim(dst[i*size:], k, getBE(in[i*ws:i*ws+ws], ws))
	}
	return dst
}

// runOp is the plan op of count scalars of kind k on m, as the plan
// compiler classifies it.
func runOp(k arch.PrimKind, m *arch.Machine, count int) types.PlanOp {
	op := types.NewPlan(types.PrimType(k), m).Ops[0]
	op.Count = count
	return op
}

// runSpace returns a space on m holding image in one heap block.
func runSpace(t testing.TB, m *arch.Machine, image []byte) (*memory.Space, memory.Address) {
	t.Helper()
	sp := memory.NewSpace(m)
	addr, err := sp.Malloc(len(image) + 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.WriteBytes(addr, image); err != nil {
		t.Fatal(err)
	}
	return sp, addr
}

// kernelEncode runs encodeRun over image.
func kernelEncode(t testing.TB, m *arch.Machine, k arch.PrimKind, image []byte) []byte {
	t.Helper()
	sp, addr := runSpace(t, m, image)
	enc := xdr.NewEncoder(64)
	count := len(image) / m.SizeOf(k)
	n, err := encodeRun(enc, sp, runOp(k, m, count), addr)
	if err != nil {
		t.Fatalf("encodeRun: %v", err)
	}
	out := enc.Bytes()
	if n != len(out) || n != count*types.WireSize(k) {
		t.Fatalf("encodeRun reported %d bytes, wrote %d, want %d", n, len(out), count*types.WireSize(k))
	}
	return out
}

func kernelDecode(t testing.TB, m *arch.Machine, k arch.PrimKind, wire []byte) []byte {
	t.Helper()
	count := len(wire) / types.WireSize(k)
	sp, addr := runSpace(t, m, make([]byte, count*m.SizeOf(k)))
	dec := xdr.NewDecoder(wire)
	if _, err := decodeRun(dec, sp, runOp(k, m, count), addr); err != nil {
		t.Fatalf("decodeRun: %v", err)
	}
	if dec.Remaining() != len(wire)-count*types.WireSize(k) {
		t.Fatalf("decodeRun left %d bytes", dec.Remaining())
	}
	got, err := sp.ReadBytes(addr, count*m.SizeOf(k))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// runValues are the canonical 64-bit patterns the table test plants: sign
// boundaries of every width, NaN payload bits and negative zero.
var runValues = []uint64{
	0, 1, math.MaxUint64, // -1
	uint64(1<<63 - 1), 1 << 63,
	0x7f, 0x80, 0x7fff, 0x8000,
	0x7fffffff, 0x80000000, // MinInt32 as a bit pattern; 2^31 as unsigned long
	0x1_0000_0007, 0xffffffff_00000000,
	uint64(math.Float32bits(float32(math.Copysign(0, -1)))), 0x7fc0_1234, // -0.0f, NaN payload
	math.Float64bits(math.Copysign(0, -1)), 0x7ff8_0000_dead_beef,
	0x0102030405060708,
}

// image lays count scalars of kind k out in m's representation, cycling
// through runValues from a kind-dependent start.
func image(m *arch.Machine, k arch.PrimKind, count int) []byte {
	size := m.SizeOf(k)
	b := make([]byte, count*size)
	for i := 0; i < count; i++ {
		m.PutPrim(b[i*size:], k, runValues[(i+int(k))%len(runValues)])
	}
	return b
}

func TestRunKernelsMatchOracle(t *testing.T) {
	for _, m := range arch.Machines() {
		for _, k := range scalarKinds {
			for _, count := range []int{0, 1, 2, 3, 7, 1025} {
				src := image(m, k, count)
				want := oracleEncode(m, k, src)
				if got := kernelEncode(t, m, k, src); !bytes.Equal(got, want) {
					t.Fatalf("%s %s x%d: encode differs from oracle\n got % x\nwant % x",
						m.Name, k, count, head(got), head(want))
				}
				// Same machine: the round trip is the identity.
				if got := kernelDecode(t, m, k, want); !bytes.Equal(got, src) {
					t.Fatalf("%s %s x%d: decode(encode(x)) != x", m.Name, k, count)
				}
				// Every destination: the kernel's image equals the oracle's,
				// which is where ILP32 <-> LP64 widths meet.
				for _, d := range arch.Machines() {
					if got, ref := kernelDecode(t, d, k, want), oracleDecode(d, k, want); !bytes.Equal(got, ref) {
						t.Fatalf("%s -> %s %s x%d: decode differs from oracle\n got % x\nwant % x",
							m.Name, d.Name, k, count, head(got), head(ref))
					}
				}
			}
		}
	}
}

func head(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}

// TestRunKernelsLongWidths pins the documented long semantics across data
// models by value, independently of the oracle.
func TestRunKernelsLongWidths(t *testing.T) {
	move := func(src, dst *arch.Machine, k arch.PrimKind, v uint64) uint64 {
		b := make([]byte, src.SizeOf(k))
		src.PutPrim(b, k, v)
		return dst.Prim(kernelDecode(t, dst, k, kernelEncode(t, src, k, b)), k)
	}
	minus1 := uint64(math.MaxUint64)
	for _, c := range []struct {
		src, dst *arch.Machine
		k        arch.PrimKind
		v, want  uint64
	}{
		{arch.DEC5000, arch.AMD64, arch.Long, minus1, minus1},                                   // sign-extends
		{arch.SPARC20, arch.Alpha, arch.Long, 0x80000000, 0xffffffff_80000000},                  // MinInt32 stays negative
		{arch.DEC5000, arch.SPARCV9, arch.ULong, 0x80000000, 0x80000000},                        // zero-extends
		{arch.SPARC20, arch.AMD64, arch.ULong, 0xffffffff, 0xffffffff},                          // zero-extends
		{arch.AMD64, arch.DEC5000, arch.Long, 0x1_0000_0007, 7},                                 // C truncation
		{arch.SPARCV9, arch.I386, arch.Long, minus1, minus1},                                    // -1 survives narrowing
		{arch.Alpha, arch.SPARC20, arch.ULong, 0xdeadbeef_80000001, 0x80000001},                 // low word kept
		{arch.AMD64, arch.SPARCV9, arch.Long, 0x0102030405060708, 0x0102030405060708},           // same width, swapped
		{arch.DEC5000, arch.SPARC20, arch.Double, 0x7ff8_0000_dead_beef, 0x7ff8_0000_dead_beef}, // NaN payload
	} {
		if got := move(c.src, c.dst, c.k, c.v); got != c.want {
			t.Errorf("%s -> %s %s %#x: got %#x, want %#x", c.src.Name, c.dst.Name, c.k, c.v, got, c.want)
		}
	}
}

func TestDecodeRunTruncated(t *testing.T) {
	sp, addr := runSpace(t, arch.SPARC20, make([]byte, 64))
	dec := xdr.NewDecoder(make([]byte, 31))
	if _, err := decodeRun(dec, sp, runOp(arch.Double, arch.SPARC20, 4), addr); err == nil {
		t.Fatal("decodeRun accepted a run one byte short")
	}
}

// FuzzRunCodec checks the kernels against the oracle on arbitrary memory
// images: any kind, any machine.
func FuzzRunCodec(f *testing.F) {
	f.Add(uint8(arch.Long), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80})
	f.Add(uint8(arch.Double), uint8(4), bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 9))
	f.Add(uint8(arch.UShort), uint8(1), []byte{0x80, 0})
	f.Fuzz(func(t *testing.T, kind, mi uint8, data []byte) {
		k := scalarKinds[int(kind)%len(scalarKinds)]
		ms := arch.Machines()
		m := ms[int(mi)%len(ms)]
		src := data[:len(data)/m.SizeOf(k)*m.SizeOf(k)]
		want := oracleEncode(m, k, src)
		if got := kernelEncode(t, m, k, src); !bytes.Equal(got, want) {
			t.Fatalf("%s %s: encode differs from oracle", m.Name, k)
		}
		d := ms[(int(mi)+int(kind))%len(ms)]
		if got, ref := kernelDecode(t, d, k, want), oracleDecode(d, k, want); !bytes.Equal(got, ref) {
			t.Fatalf("%s -> %s %s: decode differs from oracle", m.Name, d.Name, k)
		}
	})
}

// benchRuns are the bulk cases of the paper's workloads: doubles (linpack),
// ints, and longs (the width-changing class) on a little-endian ILP32, a
// big-endian ILP32 and a little-endian LP64 machine.
func benchRuns(b *testing.B, run func(b *testing.B, m *arch.Machine, k arch.PrimKind)) {
	for _, m := range []*arch.Machine{arch.DEC5000, arch.SPARC20, arch.AMD64} {
		for _, k := range []arch.PrimKind{arch.Double, arch.Int, arch.Long} {
			b.Run(fmt.Sprintf("%s/%s", m.Name, k), func(b *testing.B) { run(b, m, k) })
		}
	}
}

const benchRunBytes = 1 << 20

func BenchmarkEncodeRun(b *testing.B) {
	benchRuns(b, func(b *testing.B, m *arch.Machine, k arch.PrimKind) {
		count := benchRunBytes / m.SizeOf(k)
		sp, addr := runSpace(b, m, image(m, k, count))
		op := runOp(k, m, count)
		enc := xdr.NewEncoder(count * types.WireSize(k))
		b.SetBytes(benchRunBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			if _, err := encodeRun(enc, sp, op, addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeRun(b *testing.B) {
	benchRuns(b, func(b *testing.B, m *arch.Machine, k arch.PrimKind) {
		count := benchRunBytes / m.SizeOf(k)
		sp, addr := runSpace(b, m, make([]byte, benchRunBytes))
		op := runOp(k, m, count)
		wire := oracleEncode(m, k, image(m, k, count))
		b.SetBytes(benchRunBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRun(xdr.NewDecoder(wire), sp, op, addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

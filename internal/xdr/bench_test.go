package xdr

import "testing"

// BenchmarkPooledEncoderSteadyState is the allocation guard on the
// pooled capture path: a full get/encode/release cycle shaped like one
// section encode (directory entries as Put4Uint32 slabs plus an opaque
// body). At steady state — the buffer grown on the first iterations and
// recycled through the pool — this must run at 0 allocs/op; CI's bench
// smoke step fails if an allocation creeps in.
func BenchmarkPooledEncoderSteadyState(b *testing.B) {
	body := make([]byte, 16*1024)
	b.SetBytes(int64(len(body) + 64*16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := GetEncoder(32 * 1024)
		for j := 0; j < 64; j++ {
			e.Put4Uint32(uint32(j), 1, 2, 3)
		}
		e.PutFixedOpaque(body)
		if e.Len() == 0 {
			b.Fatal("empty stream")
		}
		e.Release()
	}
}

// BenchmarkPooledEncoderRefs measures the batched pointer-reference shape
// (thousands of 4-word records per capture) on a pooled encoder. Also a
// 0 allocs/op guard at steady state.
func BenchmarkPooledEncoderRefs(b *testing.B) {
	const refs = 4096
	b.SetBytes(int64(16 * refs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := GetEncoder(16 * refs)
		for j := 0; j < refs; j++ {
			e.Put4Uint32(2, uint32(j), 0, uint32(j)%7)
		}
		e.Release()
	}
}

func BenchmarkPutString(b *testing.B) {
	s := "a moderately sized identifier string"
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutString(s)
	}
}

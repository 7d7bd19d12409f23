package xdr

import "testing"

func BenchmarkPutString(b *testing.B) {
	s := "a moderately sized identifier string"
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutString(s)
	}
}

package snapshot

import (
	"testing"

	"repro/internal/xdr"
)

// FuzzDecodeSection feeds arbitrary bytes to the section reader. The
// decoder must reject malformed input with an error — never panic, never
// loop — and anything it accepts must survive a re-encode round trip.
func FuzzDecodeSection(f *testing.F) {
	f.Add(Encode(sample()))
	f.Add(Encode([]Section{{Kind: KindExec, ID: 0, Body: []byte{0, 0, 0, 1}}}))
	f.Add(Encode(nil)[:8])
	full := Encode(sample())
	f.Add(full[:len(full)-3]) // truncated final body
	f.Add(full[:23])          // truncated header
	bad := append([]byte(nil), full...)
	bad[30] ^= 0xa5 // body corruption -> CRC failure
	f.Add(bad)
	f.Add([]byte("MSN4"))
	// Chaos-shaped truncations: a connection killed at a frame boundary
	// leaves the receiver with a prefix of the section stream. Seed the
	// cut at every section edge and at the split points a mid-frame death
	// would leave behind.
	for i := 1; i < len(full); i += len(full)/8 + 1 {
		f.Add(full[:i])
	}
	// A heap body in the compact form: one directory run of two blocks
	// (IDs 0 and 1, type 0, one element each), each a same-section
	// reference to the other, the first with an ordinal behind it.
	compact := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1,
		0xc0, 0, 0, 1, 0, 0, 0, 1, 0x80, 0, 0, 0}
	f.Add(Encode([]Section{{Kind: KindExec, Body: []byte{0, 0, 0, 0}}, {Kind: KindHeap, Body: compact}}))
	multi := Encode(append(sample(), Section{Kind: KindHeap, ID: 7, Body: []byte("chaos")}))
	f.Add(multi[:len(multi)/2])
	f.Add(multi[:len(multi)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(xdr.NewDecoder(data))
		if err != nil {
			return
		}
		var secs []Section
		for rd.Remaining() > 0 {
			s, err := rd.Next()
			if err != nil {
				return
			}
			secs = append(secs, s)
		}
		// Accepted input: framing must be stable under re-encode.
		again, err := NewReader(xdr.NewDecoder(Encode(secs)))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		out, err := again.ReadAll()
		if err != nil {
			t.Fatalf("re-encode reread: %v", err)
		}
		if len(out) != len(secs) {
			t.Fatalf("re-encode: %d sections, want %d", len(out), len(secs))
		}
		for i := range secs {
			if out[i].Kind != secs[i].Kind || out[i].ID != secs[i].ID ||
				string(out[i].Body) != string(secs[i].Body) {
				t.Fatalf("re-encode: section %d differs", i)
			}
		}
	})
}

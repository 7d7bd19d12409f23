package session

import (
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/wire"
)

// testManifest is a small, valid section list for codec seeds and tests.
func testManifest() *store.Manifest {
	return &store.Manifest{ProgramDigest: 0xdeadbeef, Machine: "sparc20", Seq: 1, Entries: []store.Entry{
		{Kind: snapshot.KindExec, ID: 0, Length: 5, Hash: store.HashBytes([]byte("hello"))},
		{Kind: snapshot.KindHeap, ID: 0, Length: 3, Hash: store.HashBytes([]byte("abc"))},
	}}
}

// testPushed is the same list pushed by position: the exec body carried
// over from the previous round's first section, the heap body re-encoded.
func testPushed() []entry {
	return []entry{
		{kind: snapshot.KindExec, id: 0, length: 5, from: 0, crc: crc32.ChecksumIEEE([]byte("hello"))},
		{kind: snapshot.KindHeap, id: 0, length: 3, from: -1, crc: crc32.ChecksumIEEE([]byte("abc"))},
	}
}

// FuzzHandshake feeds arbitrary frames to the session-layer message
// parser. A daemon reads these bytes straight off an accepted connection,
// so parseMessage must reject anything malformed with a classified error
// — never panic — and anything it accepts must survive a re-marshal round
// trip.
func FuzzHandshake(f *testing.F) {
	of := offer{
		digest: 0xdeadbeef, program: "list", machine: "sparc20",
		traceID: 0x0123456789abcdef, spanID: 0xfedcba9876543210,
	}
	full := marshalOffer(of)
	f.Add(full)
	for _, caps := range []uint32{capWarm, capLive, capWarm | capLive, 1 << 31} {
		o := of
		o.caps = caps
		f.Add(marshalOffer(o))
	}
	untraced := of
	untraced.traceID, untraced.spanID = 0, 0
	f.Add(marshalOffer(untraced))
	f.Add(marshalAccept(Params{}))
	f.Add(marshalAccept(Params{Warm: true}))
	f.Add(marshalAccept(Params{Live: true}))
	f.Add(marshalAccept(Params{Warm: true, Live: true}))
	f.Add(marshalReason(wire.Reject, "session: program not in registry"))
	f.Add(marshalRestored(1<<20, nil))
	f.Add(marshalRestored(1<<20, []byte(`{"name":"session","dur_us":42}`)))
	// COMMIT and its chaos-truncated variants: the harness kills at frame
	// boundaries, but a buggy transport could still hand the parser a cut
	// frame — it must classify, never crash.
	commit := marshalCommit()
	f.Add(commit)
	f.Add(commit[:6])
	f.Add(commit[:4])
	// The round exchange: a final and a pre-copy ANNOUNCE by manifest and
	// pushed by position, WANT and BODIES full and empty, the stand-down
	// notice, and a cut and a damaged ANNOUNCE of each layout.
	for _, announce := range [][]byte{
		marshalAnnounce(2, announceFinal, 12, testManifest(), nil),
		marshalAnnounce(2, announceFinal, 12, nil, testPushed()),
	} {
		f.Add(announce)
		f.Add(announce[:len(announce)-7])
		damaged := append([]byte(nil), announce...)
		damaged[len(damaged)/2] ^= 0x40
		f.Add(damaged)
	}
	f.Add(marshalAnnounce(0, 0, 0, testManifest(), nil))
	f.Add(marshalAnnounce(0, 0, 0, nil, testPushed()[1:]))
	f.Add(marshalWant([]uint32{0, 1}))
	f.Add(marshalWant(nil))
	f.Add(marshalBodies([]uint32{0, 1}, [][]byte{[]byte("hello"), []byte("abc")}))
	f.Add(marshalBodies(nil, nil))
	f.Add(marshalReason(wire.Abort, "source ran to completion (exit 0)"))
	f.Add(full[:6])           // truncated inside the type word
	f.Add(full[:len(full)-3]) // truncated final field
	f.Add(append(full, 0, 0, 0, 0))
	f.Add([]byte{})       // empty frame
	f.Add([]byte("MSES")) // magic alone, big-endian text
	corrupt := append([]byte(nil), full...)
	corrupt[4] ^= 0xa5 // message type corruption
	f.Add(corrupt)
	huge := append([]byte(nil), full...)
	huge[12] = 0xff // absurd program-string length
	f.Add(huge)
	// Type numbers the table does not list: none parses.
	for _, typ := range []uint32{0, wire.Commit + 1, 99} {
		f.Add(header(typ, 4).Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseMessage(data)
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, store.ErrBadManifest) {
				t.Fatalf("unclassified parse error: %v", err)
			}
			return
		}
		// Accepted input is a message the table names, and must re-marshal
		// to something the parser decodes to the same message.
		if wire.Name(data) == "" {
			t.Fatalf("parser accepted message type %d, which internal/wire does not name", m.typ)
		}
		var again []byte
		switch m.typ {
		case wire.Offer:
			again = marshalOffer(m.offer)
		case wire.Accept:
			again = marshalAccept(m.params)
		case wire.Reject, wire.Abort:
			again = marshalReason(m.typ, m.reason)
		case wire.Restored:
			again = marshalRestored(m.bytes, m.spans)
		case wire.Announce:
			again = marshalAnnounce(m.round, m.flags, int(m.dirty), m.manifest, m.pushed)
		case wire.Want:
			again = marshalWant(m.indices)
		case wire.Bodies:
			again = marshalBodies(m.indices, m.bodies)
		case wire.Commit:
			again = marshalCommit()
		default:
			t.Fatalf("parser accepted unknown message type %d", m.typ)
		}
		m2, err := parseMessage(again)
		if err != nil {
			t.Fatalf("re-marshal rejected: %v", err)
		}
		if len(m.spans) == 0 {
			m.spans, m2.spans = nil, nil // empty decodes as empty, nil or not
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("re-marshal round trip differs: %+v vs %+v", m2, m)
		}
	})
}

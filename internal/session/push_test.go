package session

import (
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// TestHostilePushAnnounce scripts a store-less live initiator whose rounds
// break the rules of naming by position one at a time: a carry-over with
// nothing to carry over, one of another kind, one body carried twice, a
// BODIES frame that does not match the wanted set the list implies, and a
// body that disagrees with its entry. Each must fail the session — a
// broken list or BODIES frame with ErrProtocol before anything is applied,
// a damaged body with collect.ErrCorruptStream — and hand out no process
// (a responder that is pushed to holds no store, so there is no ref to
// leave); and naming the hostile list allocates no more than 64 KiB plus
// sixteen times its frame.
func TestHostilePushAnnounce(t *testing.T) {
	e, err := core.NewEngine(churnSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p := stoppedLive(t, e, arch.DEC5000)
	secs := sectionsOf(t, p)
	all := make([]uint32, len(secs))
	// fresh lists every section as shipped now; again, as carried over from
	// its own index of the previous round.
	fresh, again := make([]entry, len(secs)), make([]entry, len(secs))
	for i, sec := range secs {
		fresh[i] = entry{kind: sec.Kind, id: sec.ID, length: uint32(len(sec.Body)), from: -1, crc: crc32.ChecksumIEEE(sec.Body)}
		again[i], again[i].from, all[i] = fresh[i], int32(i), uint32(i)
	}
	round := func(k int, list []entry, idx ...uint32) [][]byte {
		bodies := make([][]byte, len(idx))
		for i, x := range idx {
			bodies[i] = secs[x].Body
		}
		return [][]byte{marshalAnnounce(uint32(k), 0, 0, nil, list), marshalBodies(idx, bodies)}
	}
	with := func(list []entry, i int, edit func(*entry)) []entry {
		list = append([]entry(nil), list...)
		edit(&list[i])
		return list
	}
	ok := round(0, fresh, all...)
	for _, c := range []struct {
		name   string
		frames [][]byte
		want   error
	}{
		{"carry-over on round 0", round(0, with(fresh, 0, func(en *entry) { en.from = 0 }), all[1:]...), ErrProtocol},
		{"carry-over past the previous list", append(ok, round(1, with(again, 0, func(en *entry) { en.from = int32(len(secs)) }))...), ErrProtocol},
		{"carry-over of another kind", append(ok, round(1, with(again, 1, func(en *entry) { en.from = 0 }))...), ErrProtocol},
		{"one body carried twice", append(ok, round(1, with(again, 1, func(en *entry) { *en = again[0] }))...), ErrProtocol},
		{"BODIES skips a re-encoded body", round(0, fresh, all[:len(all)-1]...), ErrProtocol},
		{"BODIES adds a carried-over body", append(ok, round(1, again, 0)...), ErrProtocol},
		{"body CRC disagrees with its entry", round(0, with(fresh, 1, func(en *entry) { en.crc ^= 1 }), all...), collect.ErrCorruptStream},
		{"body length disagrees with its entry", round(0, with(fresh, 1, func(en *entry) { en.length += 4 }), all...), collect.ErrCorruptStream},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, out := scriptedLive(t, e, Config{Live: true})
			for _, f := range c.frames {
				if a.Send(f) != nil {
					break // the responder already refused an earlier frame
				}
			}
			// Every case stops short of a final round: a responder that let
			// the hostile round through waits for the next, and fails on the
			// closed link instead of with the expected refusal.
			a.Close()
			r := <-out
			if !errors.Is(r.err, c.want) {
				t.Errorf("responder err = %v, want %v", r.err, c.want)
			}
			if r.q != nil {
				t.Error("responder handed out a process")
			}
			// The last ANNOUNCE is the hostile list: decoding and naming it
			// against the honest round before it costs no more than its frame.
			frame := c.frames[len(c.frames)-2]
			prev, held := []entry(nil), []vm.Sum(nil)
			if len(c.frames) > 2 {
				prev, held = fresh, make([]vm.Sum, len(fresh))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if m, err := parseMessage(frame); err == nil {
				positions(m.pushed, prev, held, len(c.frames)/2-1)
			}
			runtime.ReadMemStats(&after)
			if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(frame)); got > ceiling {
				t.Errorf("naming a %d-byte ANNOUNCE allocated %d bytes, ceiling %d", len(frame), got, ceiling)
			}
		})
	}
}

// TestStoreLessLiveHashesNothing counts the integrity passes of a live
// session with several pre-copy rounds. Without a store its rounds name
// bodies by position: no byte is handed to SHA-256 on either side, and
// CRC-32 sees each byte at most twice per side — the entry CRC end to end,
// and over TCP the link frame CRC hop by hop — so W bytes of rounds cost at
// most 2W + 1 KiB per side, as on the cold path. A live session into a
// store still names its bodies by content hash, though the initiator holds
// none.
func TestStoreLessLiveHashesNothing(t *testing.T) {
	e := newMutatingEngine(t, 8)
	cfg := Config{Live: true, PrecopyRounds: 3, DirtyThreshold: 1}
	migrate := func(t *testing.T, a, b link.Transport, src, dst Config) *LiveStats {
		t.Helper()
		reg := NewRegistry()
		reg.Add("shards", e)
		done := make(chan error, 1)
		go func() {
			_, _, _, err := Respond(b, reg, arch.SPARC20, dst)
			done <- err
		}()
		p := stoppedLive(t, e, arch.DEC5000)
		res, err := Initiate(a, e, p.Mach, "shards", p, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(res.Live.Rounds) < 3 {
			t.Fatalf("%d rounds, want pre-copy rounds before the final one", len(res.Live.Rounds))
		}
		return res.Live
	}
	for _, c := range []struct {
		name string
		tcp  bool
	}{{"pipe", false}, {"tcp", true}} {
		t.Run(c.name, func(t *testing.T) {
			a, b := link.Pipe()
			if c.tcp {
				a.Close()
				srv, cli, cleanup, err := link.LoopbackPair()
				if err != nil {
					t.Fatal(err)
				}
				defer cleanup()
				a, b = cli, srv
			}
			sha, crc := obs.SHA256Bytes.Value(), obs.CRC32Bytes.Value()
			st := migrate(t, a, b, cfg, cfg)
			a.Close()
			b.Close()
			if got := obs.SHA256Bytes.Value() - sha; got != 0 {
				t.Errorf("a store-less live session handed %d bytes to SHA-256, want 0", got)
			}
			w := int64(st.WireBytes)
			floor := w // the entry CRC on both sides covers the bodies, most of W
			if c.tcp {
				floor = 2 * w // the link CRC on both sides covers every frame
			}
			if got, ceiling := obs.CRC32Bytes.Value()-crc, 2*(2*w+1<<10); got > ceiling || got < floor {
				t.Errorf("%d bytes of rounds handed %d bytes to CRC-32 on the two sides, want between %d and %d", w, got, floor, ceiling)
			}
		})
	}
	t.Run("into a store", func(t *testing.T) {
		a, b := link.Pipe()
		defer a.Close()
		defer b.Close()
		dst := cfg
		dst.Store = openTestStore(t)
		sha := obs.SHA256Bytes.Value()
		migrate(t, a, b, cfg, dst)
		if obs.SHA256Bytes.Value() == sha {
			t.Error("a live session into a store hashed nothing; its rounds name bodies by content hash")
		}
	})
}

// TestPushFirstList lists one capture round by position twice. A session's
// first list may come from a capture whose earlier rounds the responder
// never saw, so with no previous list every entry is shipped — from -1 and
// the CRC of its own body — whatever the capture says it carried over; a
// later list carries the previous list's entry and CRC along.
func TestPushFirstList(t *testing.T) {
	secs := []snapshot.Section{
		{Kind: snapshot.KindExec, Body: []byte("exec state")},
		{Kind: snapshot.KindHeap, ID: 0, Body: []byte("heap component zero")},
		{Kind: snapshot.KindHeap, ID: 1, Body: []byte("heap component one")},
	}
	from := []int{0, 2, -1}
	first := push(secs, nil, from)
	for i, en := range first {
		if en.from != -1 || en.crc != crc32.ChecksumIEEE(secs[i].Body) {
			t.Errorf("first list entry %d: from %d, crc %08x; want -1 and its body's %08x", i, en.from, en.crc, crc32.ChecksumIEEE(secs[i].Body))
		}
	}
	prev := []entry{{crc: 7}, {crc: 8}, {crc: 9}}
	next := push(secs, prev, from)
	for i, en := range next {
		want := entry{kind: secs[i].Kind, id: secs[i].ID, length: uint32(len(secs[i].Body)), from: int32(from[i]), crc: first[i].crc}
		if from[i] >= 0 {
			want.crc = prev[from[i]].crc
		}
		if en != want {
			t.Errorf("later list entry %d = %+v, want %+v", i, en, want)
		}
	}
}

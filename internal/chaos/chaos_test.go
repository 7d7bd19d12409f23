package chaos

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/wire"
)

// frame builds a session- or stream-shaped frame: magic, type, and
// four bytes of body.
func frame(magic, typ uint32) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b, magic)
	binary.BigEndian.PutUint32(b[4:], typ)
	return b
}

// TestParseSpec: a spec names its class by message name; a misspelt or
// retired class is refused with the valid names listed, since its fault
// would never fire and the migration would run clean.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"link@restored:1/after-recv",
			Spec{VictimLink, Point{"restored", 1, AfterRecv}}},
		{"source@announce:2/before-send",
			Spec{VictimSource, Point{"announce", 2, BeforeSend}}},
		{"dest@bodies", // n and when defaulted
			Spec{VictimDest, Point{"bodies", 1, AfterRecv}}},
		{"dest@data:7",
			Spec{VictimDest, Point{"data", 7, AfterRecv}}},
		{"source@commit/before-send",
			Spec{VictimSource, Point{"commit", 1, BeforeSend}}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The canonical form must round-trip.
		again, err := ParseSpec(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q -> %q: %+v err=%v", c.in, got, again, err)
		}
	}
	for _, bad := range []string{
		"",
		"restored:1",                // no victim
		"ghost@restored:1",          // unknown victim
		"link@restored:x",           // non-numeric occurrence
		"link@restored:0",           // occurrences are 1-based
		"link@restored:1/after-rcv", // unknown when
		"link@restord:1/after-recv", // misspelt class
		"link@raw",                  // a class no message carries
	} {
		s, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", bad, s)
		}
	}
	_, err := ParseSpec("link@restord:1/after-recv")
	for _, m := range wire.Messages {
		if err == nil || !strings.Contains(err.Error(), m.Name) {
			t.Errorf("error %v does not list the valid class %q", err, m.Name)
		}
	}
}

// pump runs a scripted exchange over a wrapped pipe: each step sends one
// frame from the named side and receives it on the other, stopping at the
// first error. It returns the step index that failed (-1 if none) and
// which operation saw the error.
func pump(src, dst link.Transport, script []struct {
	fromSource bool
	payload    []byte
}) (failedStep int, sendErr, recvErr error) {
	for i, s := range script {
		from, to := src, dst
		if !s.fromSource {
			from, to = dst, src
		}
		if err := from.Send(s.payload); err != nil {
			return i, err, nil
		}
		if _, err := to.Recv(); err != nil {
			return i, nil, err
		}
	}
	return -1, nil, nil
}

func testScript() []struct {
	fromSource bool
	payload    []byte
} {
	return []struct {
		fromSource bool
		payload    []byte
	}{
		{true, frame(wire.SessionMagic, 1)},  // OFFER
		{false, frame(wire.SessionMagic, 2)}, // ACCEPT
		{true, frame(wire.StreamMagic, 3)},   // DATA 1
		{true, frame(wire.StreamMagic, 3)},   // DATA 2
		{false, frame(wire.SessionMagic, 4)}, // RESTORED
		{true, frame(wire.SessionMagic, 9)},  // COMMIT
		{true, []byte("HPM1xxxx")},           // neither protocol's: raw
	}
}

func TestInjectorBeforeSend(t *testing.T) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	inj := New(Spec{Victim: VictimSource, Point: Point{Class: "data", N: 2, When: BeforeSend}})
	src, dst := inj.Source(a), inj.Dest(b)
	step, sendErr, recvErr := pump(src, dst, testScript())
	if step != 3 || !errors.Is(sendErr, ErrInjected) || recvErr != nil {
		t.Fatalf("fault at step %d send=%v recv=%v; want send ErrInjected at step 3", step, sendErr, recvErr)
	}
	if _, fired := inj.Fired(); !fired {
		t.Error("injector did not report firing")
	}
	// Everything after the kill fails on both wrapped endpoints, and the
	// underlying transports are closed so an unwrapped peer dies too.
	if err := src.Send(frame(wire.SessionMagic, 9)); !errors.Is(err, ErrInjected) {
		t.Errorf("post-fault Send = %v, want ErrInjected", err)
	}
	if _, err := dst.Recv(); !errors.Is(err, ErrInjected) {
		t.Errorf("post-fault Recv = %v, want ErrInjected", err)
	}
	if err := a.Send([]byte("raw")); !errors.Is(err, link.ErrClosed) {
		t.Errorf("underlying transport survived the kill: %v", err)
	}
	// The dropped frame never crossed: only DATA 1 is in the trace.
	var data int
	for _, ev := range inj.Trace() {
		if ev.Class == "data" {
			data++
		}
	}
	if data != 1 {
		t.Errorf("%d DATA frames delivered, want 1 (the killed frame must never cross)", data)
	}
}

func TestInjectorAfterRecv(t *testing.T) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	inj := New(Spec{Victim: VictimDest, Point: Point{Class: "restored", N: 1, When: AfterRecv}})
	src, dst := inj.Source(a), inj.Dest(b)
	step, sendErr, recvErr := pump(src, dst, testScript())
	// The RESTORED frame itself is delivered (step 4 succeeds); the kill
	// lands on the next operation — the COMMIT send at step 5.
	if step != 5 || !errors.Is(sendErr, ErrInjected) {
		t.Fatalf("fault at step %d send=%v recv=%v; want send ErrInjected at step 5", step, sendErr, recvErr)
	}
	last := inj.Trace()[len(inj.Trace())-1]
	if last.Class != "restored" || last.FromSource {
		t.Errorf("last delivered frame = %+v, want the responder's RESTORED", last)
	}
	if !strings.Contains(sendErr.Error(), "restored:1/after-recv") {
		t.Errorf("injected error does not name its boundary: %v", sendErr)
	}
}

func TestInjectorRecordsBoundary(t *testing.T) {
	span := obs.NewTracer().Start("session")
	inj := New(Spec{Victim: VictimLink, Point: Point{Class: "accept", N: 1, When: AfterRecv}})
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	src, dst := inj.Source(a), inj.Dest(b)
	// The session run over an endpoint hands it its span.
	dst.(interface{ SetTrace(*obs.Span) }).SetTrace(span)
	pump(src, dst, testScript())
	var found bool
	for _, ev := range span.Export().Events {
		if ev.Kind == "chaos.inject" && strings.Contains(ev.Detail, "accept:1/after-recv") &&
			strings.Contains(ev.Detail, "link") {
			found = true
		}
	}
	if !found {
		t.Errorf("the session's span lacks the fault's boundary:\n%s", span.Export().Tree())
	}
}

func TestRecordOnlyTrace(t *testing.T) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	rec := NewRecordOnly()
	src, dst := rec.Source(a), rec.Dest(b)
	if step, serr, rerr := pump(src, dst, testScript()); step != -1 {
		t.Fatalf("record-only injector interfered: step %d send=%v recv=%v", step, serr, rerr)
	}
	want := []Event{
		{"offer", 1, true, 12},
		{"accept", 1, false, 12},
		{"data", 1, true, 12},
		{"data", 2, true, 12},
		{"restored", 1, false, 12},
		{"commit", 1, true, 12},
		{"raw", 1, true, 8},
	}
	if got := rec.Trace(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %+v, want %+v", got, want)
	}
	if _, fired := rec.Fired(); fired {
		t.Error("record-only injector fired")
	}
}

func TestPoints(t *testing.T) {
	var trace []Event
	trace = append(trace, Event{Class: "offer", N: 1})
	for i := 1; i <= 10; i++ {
		trace = append(trace, Event{Class: "data", N: i})
	}
	trace = append(trace, Event{Class: "restored", N: 1})
	pts := Points(trace, 3)
	// offer and restored contribute 1 occurrence each, data is thinned to
	// 3; every occurrence yields both sides of the boundary.
	if len(pts) != (1+3+1)*2 {
		t.Fatalf("got %d points, want 10: %+v", len(pts), pts)
	}
	var dataNs []int
	for _, p := range pts {
		if p.Class == "data" && p.When == BeforeSend {
			dataNs = append(dataNs, p.N)
		}
	}
	if !reflect.DeepEqual(dataNs, []int{1, 5, 10}) {
		t.Errorf("thinned data occurrences = %v, want first/middle/last", dataNs)
	}
	// Deterministic: same trace, same points, same order.
	if again := Points(trace, 3); !reflect.DeepEqual(again, pts) {
		t.Errorf("Points is order-unstable:\n%+v\n%+v", pts, again)
	}
	if all := Points(trace, 0); len(all) != (1+10+1)*2 {
		t.Errorf("uncapped Points dropped occurrences: %d", len(all))
	}
}

func TestCells(t *testing.T) {
	pts := []Point{
		{"offer", 1, BeforeSend},
		{"accept", 1, AfterRecv},
	}
	cells := Cells(pts, Victims)
	if len(cells) != len(pts)*len(Victims) {
		t.Fatalf("got %d cells, want %d", len(cells), len(pts)*len(Victims))
	}
}

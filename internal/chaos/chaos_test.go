package chaos

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/obs"
)

// frame builds a session- or stream-shaped frame: magic, type, and
// enough padding that the classifier's length floor is met.
func frame(magic, typ uint32) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint32(b, magic)
	binary.BigEndian.PutUint32(b[4:], typ)
	return b
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    Class
	}{
		{"offer", frame(sessionMagic, 1), ClassOffer},
		{"accept", frame(sessionMagic, 2), ClassAccept},
		{"reject", frame(sessionMagic, 3), ClassReject},
		{"restored", frame(sessionMagic, 4), ClassRestored},
		{"announce", frame(sessionMagic, 5), ClassAnnounce},
		{"want", frame(sessionMagic, 6), ClassWant},
		{"bodies", frame(sessionMagic, 7), ClassBodies},
		{"abort", frame(sessionMagic, 8), ClassAbort},
		{"commit", frame(sessionMagic, 9), ClassCommit},
		{"retired session type", frame(sessionMagic, 12), ClassUnknown},
		{"future session type", frame(sessionMagic, 99), ClassUnknown},
		{"stream data", frame(streamMagic, 3), ClassData},
		{"stream fin", frame(streamMagic, 6), ClassControl},
		{"retired stream done", frame(streamMagic, 7), ClassUnknown},
		{"stream ack, retired", frame(streamMagic, 4), ClassUnknown},
		{"neither magic", []byte("HPM1xxxxxxxxxxxx"), ClassUnknown},
		{"short", []byte{1, 2, 3}, ClassUnknown},
		{"empty", nil, ClassUnknown},
	}
	for _, c := range cases {
		if got := Classify(c.payload); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"link@confirm/restored:1/after-recv",
			Spec{VictimLink, Point{ClassRestored, 1, AfterRecv}}},
		{"source@live/delta:2/before-send",
			Spec{VictimSource, Point{ClassAnnounce, 2, BeforeSend}}},
		{"dest@live/bodies", // n and when defaulted
			Spec{VictimDest, Point{ClassBodies, 1, AfterRecv}}},
		{"dest@transport/data:7",
			Spec{VictimDest, Point{ClassData, 7, AfterRecv}}},
		{"source@confirm/commit/before-send",
			Spec{VictimSource, Point{ClassCommit, 1, BeforeSend}}},
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
		"confirm/restored:1",       // no victim
		"ghost@confirm/restored:1", // unknown victim
		"link@confirm/restored:x",  // non-numeric occurrence
		"link@confirm/restored:0",  // occurrences are 1-based
	} {
		if s, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", bad, s)
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
		{true, frame(sessionMagic, 1)},  // OFFER
		{false, frame(sessionMagic, 2)}, // ACCEPT
		{true, frame(streamMagic, 3)},   // DATA 1
		{true, frame(streamMagic, 3)},   // DATA 2
		{false, frame(sessionMagic, 4)}, // RESTORED
		{true, frame(sessionMagic, 9)},  // COMMIT
	}
}

func TestInjectorBeforeSend(t *testing.T) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	inj := New(Spec{Victim: VictimSource, Point: Point{Class: ClassData, N: 2, When: BeforeSend}})
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
	if err := src.Send(frame(sessionMagic, 9)); !errors.Is(err, ErrInjected) {
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
		if ev.Class == ClassData {
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
	inj := New(Spec{Victim: VictimDest, Point: Point{Class: ClassRestored, N: 1, When: AfterRecv}})
	src, dst := inj.Source(a), inj.Dest(b)
	step, sendErr, recvErr := pump(src, dst, testScript())
	// The RESTORED frame itself is delivered (step 4 succeeds); the kill
	// lands on the next operation — the COMMIT send at step 5.
	if step != 5 || !errors.Is(sendErr, ErrInjected) {
		t.Fatalf("fault at step %d send=%v recv=%v; want send ErrInjected at step 5", step, sendErr, recvErr)
	}
	last := inj.Trace()[len(inj.Trace())-1]
	if last.Class != ClassRestored || last.FromSource {
		t.Errorf("last delivered frame = %+v, want the responder's RESTORED", last)
	}
	if !strings.Contains(sendErr.Error(), "confirm/restored:1/after-recv") {
		t.Errorf("injected error does not name its boundary: %v", sendErr)
	}
}

func TestInjectorRecordsBoundary(t *testing.T) {
	rec := obs.NewFlightRecorder(16)
	inj := New(Spec{Victim: VictimLink, Point: Point{Class: ClassAccept, N: 1, When: AfterRecv}})
	inj.Recorder = rec
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	src, dst := inj.Source(a), inj.Dest(b)
	pump(src, dst, testScript())
	var found bool
	for _, ev := range rec.Events() {
		if ev.Kind == "chaos.inject" && strings.Contains(ev.Detail, "handshake/accept:1/after-recv") &&
			strings.Contains(ev.Detail, "link") {
			found = true
		}
	}
	if !found {
		t.Errorf("flight recording lacks the fault's boundary: %+v", rec.Events())
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
		{ClassOffer, 1, true, 12},
		{ClassAccept, 1, false, 12},
		{ClassData, 1, true, 12},
		{ClassData, 2, true, 12},
		{ClassRestored, 1, false, 12},
		{ClassCommit, 1, true, 12},
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
	trace = append(trace, Event{Class: ClassOffer, N: 1})
	for i := 1; i <= 10; i++ {
		trace = append(trace, Event{Class: ClassData, N: i})
	}
	trace = append(trace, Event{Class: ClassRestored, N: 1})
	pts := Points(trace, 3)
	// offer and restored contribute 1 occurrence each, data is thinned to
	// 3; every occurrence yields both sides of the boundary.
	if len(pts) != (1+3+1)*2 {
		t.Fatalf("got %d points, want 10: %+v", len(pts), pts)
	}
	var dataNs []int
	for _, p := range pts {
		if p.Class == ClassData && p.When == BeforeSend {
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
		{ClassOffer, 1, BeforeSend},
		{ClassAccept, 1, AfterRecv},
	}
	cells := Cells(pts, Victims)
	if len(cells) != len(pts)*len(Victims) {
		t.Fatalf("got %d cells, want %d", len(cells), len(pts)*len(Victims))
	}
}

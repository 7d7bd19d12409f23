// Package chaos is the deterministic fault-injection harness of the
// migration stack. It wraps the two endpoints of a link.Transport
// connection, names every frame that crosses it by the message it carries
// (internal/wire), and kills a configured party — the source,
// the destination, or the connection itself — at a precisely chosen
// protocol boundary: "just before the 2nd round's ANNOUNCE is sent", "just
// after the RESTORED confirmation is received", and so on.
//
// The point of determinism is that a chaos cell is a *name*, not a dice
// roll: the same Spec against the same migration kills the same party
// between the same two frames every run, so the recovery guarantee the
// session layer makes (rollback-or-complete, never a lost or doubled
// process) can be enforced by an exhaustively generated matrix instead of
// a hand-picked sample. Nothing in the harness is random.
//
// # Fault model
//
// Kills happen *between* frames, never inside one: a frame either fully
// crosses the connection or is never sent. BeforeSend of frame k means
// every earlier frame was delivered and frame k never leaves the sender
// (its Send fails with ErrInjected); AfterRecv of frame k means frame k
// is delivered to its receiver and every later operation on either
// endpoint fails. This is the fail-stop-at-frame-boundaries model the
// commit protocol (internal/session) is correct under — the transports
// it abstracts (an in-memory pipe that drains queued frames on close, a
// TCP connection closed gracefully) deliver what Send accepted.
//
// # Hooking a migration
//
//	inj := chaos.New(chaos.Spec{Victim: chaos.VictimLink,
//		Point: chaos.Point{Class: "restored", N: 1, When: chaos.AfterRecv}})
//	a, b := link.Pipe()
//	srcT, dstT := inj.Source(a), inj.Dest(b)
//	// run the session over srcT/dstT; exactly one party survives
//
// A session run over a wrapped endpoint hands it its span (SetTrace), so
// the fault, when it fires, is a "chaos.inject" event naming the boundary
// and the victim in the story of the session whose end hit it: the
// sender's for a before-send boundary, the receiver's for an after-recv
// one.
//
// A nil-spec injector (chaos.NewRecordOnly) observes without killing and
// yields the ordered frame trace; Points derives every legal injection
// point from such a trace, which is how the matrix enumerates itself.
package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrInjected marks every failure caused by an injected fault, so tests
// and the failure classifier can tell deliberate chaos from real bugs.
// It classifies as a transport failure (session.FailTransport).
var ErrInjected = errors.New("chaos: injected fault")

// Victim selects which party an injected fault kills. Killing a party
// closes the connection under it, so the surviving peer observes the
// death as a transport failure on its next operation — the fail-stop
// behaviour of a crashed machine on a real network.
type Victim string

const (
	// VictimSource kills the migration initiator's endpoint.
	VictimSource Victim = "source"
	// VictimDest kills the responder's endpoint.
	VictimDest Victim = "dest"
	// VictimLink cuts the connection; both parties survive but neither
	// can reach the other.
	VictimLink Victim = "link"
)

// Victims enumerates every victim, in matrix order.
var Victims = []Victim{VictimSource, VictimDest, VictimLink}

// classify names the protocol class of one frame: the name internal/wire
// gives the message it carries ("offer" … "commit", "data", "fin"), or
// "raw" for a frame neither protocol names. The class strings are the
// vocabulary of migd's -chaos flag and of every generated matrix cell's
// name.
func classify(frame []byte) string {
	if name := wire.Name(frame); name != "" {
		return name
	}
	return "raw"
}

// When fixes which side of a frame boundary the kill lands on.
type When string

const (
	// BeforeSend kills the victim in place of transmitting the frame:
	// everything earlier was delivered, this frame never leaves.
	BeforeSend When = "before-send"
	// AfterRecv delivers the frame, then kills: this frame and everything
	// earlier arrived, nothing later will.
	AfterRecv When = "after-recv"
)

// Point is one injection point: the boundary before or after the Nth
// occurrence (1-based, counted per class across the whole connection) of
// a frame class.
type Point struct {
	Class string
	N     int
	When  When
}

func (p Point) String() string {
	return fmt.Sprintf("%s:%d/%s", p.Class, p.N, p.When)
}

// Spec pins one fault: kill Victim at Point.
type Spec struct {
	Victim Victim
	Point  Point
}

func (s Spec) String() string {
	return fmt.Sprintf("%s@%s", s.Victim, s.Point)
}

// ParseSpec parses the migd -chaos flag syntax, "victim@class:n/when" —
// e.g. "link@restored:1/after-recv" — where class is a message name of
// internal/wire. n defaults to 1 and when to after-recv when omitted. A
// class no message carries is refused, since its fault would never fire.
func ParseSpec(s string) (Spec, error) {
	victim, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Spec{}, fmt.Errorf("chaos: spec %q: want victim@class:n/when", s)
	}
	v := Victim(victim)
	if !slices.Contains(Victims, v) {
		return Spec{}, fmt.Errorf("chaos: spec %q: unknown victim %q", s, victim)
	}
	rest, when, hasWhen := strings.Cut(rest, "/")
	class, n, hasN := strings.Cut(rest, ":")
	var names []string
	for _, m := range wire.Messages {
		names = append(names, m.Name)
	}
	if !slices.Contains(names, class) {
		return Spec{}, fmt.Errorf("chaos: spec %q: unknown class %q (want one of %s)", s, class, strings.Join(names, ", "))
	}
	pt := Point{Class: class, N: 1, When: AfterRecv}
	if hasN {
		var err error
		if pt.N, err = strconv.Atoi(n); err != nil || pt.N < 1 {
			return Spec{}, fmt.Errorf("chaos: spec %q: bad occurrence %q", s, n)
		}
	}
	if hasWhen {
		if pt.When = When(when); pt.When != BeforeSend && pt.When != AfterRecv {
			return Spec{}, fmt.Errorf("chaos: spec %q: unknown when %q", s, when)
		}
	}
	return Spec{Victim: v, Point: pt}, nil
}

// Event is one delivered frame in a recorded trace.
type Event struct {
	// Class and N identify the frame: the Nth frame of its class that
	// crossed the connection.
	Class string
	N     int
	// FromSource reports the frame's direction.
	FromSource bool
	// Bytes is the frame length.
	Bytes int
}

// Injector wraps the two endpoints of one migration connection and fires
// at most one fault. Zero-valued fields are fine; use New or
// NewRecordOnly.
type Injector struct {
	mu     sync.Mutex
	spec   Spec
	armed  bool
	fired  bool
	sent   map[string]int
	recvd  map[string]int
	trace  []Event
	closer []func()
}

// New returns an injector armed with spec.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, armed: true,
		sent: map[string]int{}, recvd: map[string]int{}}
}

// NewRecordOnly returns an injector that observes and records the frame
// trace without ever killing anything.
func NewRecordOnly() *Injector {
	return &Injector{sent: map[string]int{}, recvd: map[string]int{}}
}

// Fired reports whether the fault has fired, and at which boundary.
func (in *Injector) Fired() (Spec, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.spec, in.fired
}

// Trace returns the ordered delivered-frame trace (receive order per
// direction; classes interleave in global arrival order).
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return slices.Clone(in.trace)
}

// Source wraps the initiator's endpoint.
func (in *Injector) Source(t link.Transport) link.Transport {
	return in.wrap(t, true)
}

// Dest wraps the responder's endpoint.
func (in *Injector) Dest(t link.Transport) link.Transport {
	return in.wrap(t, false)
}

func (in *Injector) wrap(t link.Transport, fromSource bool) link.Transport {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closer = append(in.closer, func() { t.Close() })
	return &end{in: in, t: t, isSource: fromSource}
}

// fire kills the victim: records the boundary in the span of the end
// whose Send or Recv hit it, then closes every wrapped endpoint's
// underlying transport so both parties observe the death. Callers hold
// in.mu.
func (in *Injector) fire(span *obs.Span) {
	in.fired = true
	span.Event("chaos.inject", "killed %s at boundary %s", in.spec.Victim, in.spec.Point)
	for _, c := range in.closer {
		c()
	}
}

func (in *Injector) injectedErr() error {
	return fmt.Errorf("%w: %s killed at boundary %s", ErrInjected, in.spec.Victim, in.spec.Point)
}

// end is one wrapped endpoint.
type end struct {
	in       *Injector
	t        link.Transport
	isSource bool
	// span is the span of the session run over this end (SetTrace).
	span atomic.Pointer[obs.Span]
}

func (e *end) Send(payload []byte) error {
	in := e.in
	c := classify(payload)
	in.mu.Lock()
	if in.fired {
		in.mu.Unlock()
		return in.injectedErr()
	}
	in.sent[c]++
	if in.armed && in.spec.Point.When == BeforeSend &&
		c == in.spec.Point.Class && in.sent[c] == in.spec.Point.N {
		in.fire(e.span.Load())
		in.mu.Unlock()
		return in.injectedErr()
	}
	in.mu.Unlock()
	return e.t.Send(payload)
}

func (e *end) Recv() ([]byte, error) {
	in := e.in
	if _, fired := in.Fired(); fired {
		return nil, in.injectedErr()
	}
	payload, err := e.t.Recv()
	if err != nil {
		if _, fired := in.Fired(); fired {
			return nil, in.injectedErr()
		}
		return nil, err
	}
	c := classify(payload)
	in.mu.Lock()
	in.recvd[c]++
	// The receiving end sees the frame's direction inverted: a frame the
	// source sent is received by the dest endpoint.
	in.trace = append(in.trace, Event{Class: c, N: in.recvd[c], FromSource: !e.isSource, Bytes: len(payload)})
	if in.armed && !in.fired && in.spec.Point.When == AfterRecv &&
		c == in.spec.Point.Class && in.recvd[c] == in.spec.Point.N {
		// Deliver this frame, then kill: the boundary sits after it.
		in.fire(e.span.Load())
	}
	in.mu.Unlock()
	return payload, nil
}

func (e *end) Close() error { return e.t.Close() }

// SetTrace takes the span of the session run over this endpoint: a fault
// this end's Send or Recv fires is recorded there.
func (e *end) SetTrace(s *obs.Span) { e.span.Store(s) }

// Points derives every legal injection point from a recorded trace: each
// delivered frame yields the boundary before its send and the boundary
// after its receipt. perClassCap > 0 bounds how many frames of one class
// contribute points (the first, then evenly through the rest, always
// keeping the last) — bulk-data classes would otherwise dominate the
// matrix with hundreds of equivalent mid-transfer cells.
func Points(trace []Event, perClassCap int) []Point {
	byClass := map[string][]int{}
	for _, ev := range trace {
		byClass[ev.Class] = append(byClass[ev.Class], ev.N)
	}
	var pts []Point
	for cls, ns := range byClass {
		slices.Sort(ns)
		keep := ns
		if perClassCap > 0 && len(ns) > perClassCap {
			keep = thin(ns, perClassCap)
		}
		for _, n := range keep {
			pts = append(pts,
				Point{Class: cls, N: n, When: BeforeSend},
				Point{Class: cls, N: n, When: AfterRecv})
		}
	}
	slices.SortFunc(pts, func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.Class, b.Class), cmp.Compare(a.N, b.N), cmp.Compare(a.When, b.When))
	})
	return pts
}

// thin keeps n entries of ns: the first, the last, and an even spread
// between them.
func thin(ns []int, n int) []int {
	if n <= 1 {
		return ns[:1]
	}
	out := make([]int, 0, n)
	for i := range n {
		out = append(out, ns[i*(len(ns)-1)/(n-1)])
	}
	// Dedup (possible when len(ns) is close to cap).
	return slices.Compact(out)
}

// Cells crosses points with victims into the full matrix cell list.
func Cells(points []Point, victims []Victim) []Spec {
	cells := make([]Spec, 0, len(points)*len(victims))
	for _, p := range points {
		for _, v := range victims {
			cells = append(cells, Spec{Victim: v, Point: p})
		}
	}
	return cells
}

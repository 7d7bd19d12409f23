// Package chaos is the deterministic fault-injection harness of the
// migration stack. It wraps the two endpoints of a link.Transport
// connection, classifies every frame that crosses it against the session
// and stream wire protocols, and kills a configured party — the source,
// the destination, or the connection itself — at a precisely chosen
// protocol boundary: "just before the 2nd round's ANNOUNCE is sent", "just
// after the RESTORED confirmation is received", and so on.
//
// The point of determinism is that a chaos cell is a *name*, not a dice
// roll: the same Spec against the same migration kills the same party
// between the same two frames every run, so the recovery guarantee the
// session layer makes (rollback-or-complete, never a lost or doubled
// process) can be enforced by an exhaustively generated matrix instead of
// a hand-picked sample. Randomness enters only through Sample, which
// draws a bounded, seed-reproducible subset of cells for smoke runs.
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
//		Point: chaos.Point{Class: chaos.ClassRestored, N: 1, When: chaos.AfterRecv}})
//	inj.Recorder = flightRecorder // the fault names its boundary in the dump
//	a, b := link.Pipe()
//	srcT, dstT := inj.Source(a), inj.Dest(b)
//	// run the session over srcT/dstT; exactly one party survives
//
// A nil-spec injector (chaos.NewRecordOnly) observes without killing and
// yields the ordered frame trace; Points derives every legal injection
// point from such a trace, which is how the matrix enumerates itself.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/link"
	"repro/internal/obs"
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

// Class names the protocol meaning of one frame. The classifier decodes
// only the leading magic + type words, so it works below the session
// layer without importing it. The strings are the vocabulary of migd's
// -chaos flag and of every generated matrix cell's name; the round
// exchange keeps the "live/" names it had before a warm transfer became
// one round of it, so existing specs still name the same frames.
type Class string

const (
	ClassOffer    Class = "handshake/offer"
	ClassAccept   Class = "handshake/accept"
	ClassReject   Class = "handshake/reject"
	ClassRestored Class = "confirm/restored"
	ClassCommit   Class = "confirm/commit"
	ClassAnnounce Class = "live/delta"     // ANNOUNCE: one round's section list, by hash or by position
	ClassWant     Class = "live/want"      // WANT: only with a store on both ends
	ClassBodies   Class = "live/bodies"    // BODIES: asked for, or pushed after a position list
	ClassAbort    Class = "live/abort"     // ABORT
	ClassData     Class = "transport/data" // stream DATA chunk
	ClassControl  Class = "transport/ctl"  // stream FIN
	ClassUnknown  Class = "transport/raw"  // anything the classifier cannot name
)

// Wire constants mirrored from the session and stream layers, repeated
// here so the harness sits strictly below the layers it injects faults
// into; internal/session's protocol-table test holds the mirror to the
// original.
const (
	sessionMagic = 0x4d534553 // "MSES"
	streamMagic  = 0x4d535452 // "MSTR"
)

var sessionClasses = map[uint32]Class{
	1: ClassOffer,
	2: ClassAccept,
	3: ClassReject,
	4: ClassRestored,
	5: ClassAnnounce,
	6: ClassWant,
	7: ClassBodies,
	8: ClassAbort,
	9: ClassCommit,
}

var streamClasses = map[uint32]Class{
	3: ClassData,    // DATA
	6: ClassControl, // FIN
}

// Classify names the protocol class of one raw frame.
func Classify(payload []byte) Class {
	if len(payload) < 8 {
		return ClassUnknown
	}
	var classes map[uint32]Class
	switch binary.BigEndian.Uint32(payload) {
	case sessionMagic:
		classes = sessionClasses
	case streamMagic:
		classes = streamClasses
	}
	if c, ok := classes[binary.BigEndian.Uint32(payload[4:])]; ok {
		return c
	}
	return ClassUnknown
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
	Class Class
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

// ParseSpec parses the migd -chaos flag syntax,
// "victim@class:n/when" — e.g. "link@confirm/restored:1/after-recv".
// n defaults to 1 and when to after-recv when omitted.
func ParseSpec(s string) (Spec, error) {
	victim, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Spec{}, fmt.Errorf("chaos: spec %q: want victim@class:n/when", s)
	}
	v := Victim(victim)
	switch v {
	case VictimSource, VictimDest, VictimLink:
	default:
		return Spec{}, fmt.Errorf("chaos: spec %q: unknown victim %q", s, victim)
	}
	pt := Point{N: 1, When: AfterRecv}
	// The class itself contains one "/" (phase/name); the when suffix is
	// the part after the last slash when it parses as a When.
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		if w := When(rest[i+1:]); w == BeforeSend || w == AfterRecv {
			pt.When = w
			rest = rest[:i]
		}
	}
	if cls, n, ok := strings.Cut(rest, ":"); ok {
		v, err := strconv.Atoi(n)
		if err != nil || v < 1 {
			return Spec{}, fmt.Errorf("chaos: spec %q: bad occurrence %q", s, n)
		}
		pt.Class, pt.N = Class(cls), v
	} else {
		pt.Class = Class(rest)
	}
	return Spec{Victim: v, Point: pt}, nil
}

// Event is one delivered frame in a recorded trace.
type Event struct {
	// Class and N identify the frame: the Nth frame of its class that
	// crossed the connection.
	Class Class
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
	// Recorder, when set, receives a "chaos.inject" event naming the
	// boundary and victim the moment the fault fires — the flight
	// recorder contract: every injected fault names its boundary in the
	// dump. Safe to leave nil.
	Recorder *obs.FlightRecorder

	mu     sync.Mutex
	spec   Spec
	armed  bool
	fired  bool
	sent   map[Class]int
	recvd  map[Class]int
	trace  []Event
	closer []func()
}

// New returns an injector armed with spec.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, armed: true,
		sent: map[Class]int{}, recvd: map[Class]int{}}
}

// NewRecordOnly returns an injector that observes and records the frame
// trace without ever killing anything.
func NewRecordOnly() *Injector {
	return &Injector{sent: map[Class]int{}, recvd: map[Class]int{}}
}

// Spec reports the armed fault (zero for a record-only injector).
func (in *Injector) Spec() Spec { return in.spec }

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
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
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

// fire kills the victim: records the boundary, then closes every wrapped
// endpoint's underlying transport so both parties observe the death.
// Callers hold in.mu.
func (in *Injector) fire() {
	in.fired = true
	in.Recorder.Record("chaos.inject", "killed %s at boundary %s", in.spec.Victim, in.spec.Point)
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
}

func (e *end) Send(payload []byte) error {
	in := e.in
	c := Classify(payload)
	in.mu.Lock()
	if in.fired {
		in.mu.Unlock()
		return in.injectedErr()
	}
	in.sent[c]++
	if in.armed && in.spec.Point.When == BeforeSend &&
		c == in.spec.Point.Class && in.sent[c] == in.spec.Point.N {
		in.fire()
		in.mu.Unlock()
		return in.injectedErr()
	}
	in.mu.Unlock()
	return e.t.Send(payload)
}

func (e *end) Recv() ([]byte, error) {
	in := e.in
	in.mu.Lock()
	if in.fired {
		in.mu.Unlock()
		return nil, in.injectedErr()
	}
	in.mu.Unlock()
	payload, err := e.t.Recv()
	if err != nil {
		in.mu.Lock()
		fired := in.fired
		in.mu.Unlock()
		if fired {
			return nil, in.injectedErr()
		}
		return nil, err
	}
	c := Classify(payload)
	in.mu.Lock()
	in.recvd[c]++
	// The receiving end sees the frame's direction inverted: a frame the
	// source sent is received by the dest endpoint.
	in.trace = append(in.trace, Event{Class: c, N: in.recvd[c], FromSource: !e.isSource, Bytes: len(payload)})
	if in.armed && !in.fired && in.spec.Point.When == AfterRecv &&
		c == in.spec.Point.Class && in.recvd[c] == in.spec.Point.N {
		// Deliver this frame, then kill: the boundary sits after it.
		in.fire()
	}
	in.mu.Unlock()
	return payload, nil
}

func (e *end) Close() error { return e.t.Close() }

// Points derives every legal injection point from a recorded trace: each
// delivered frame yields the boundary before its send and the boundary
// after its receipt. perClassCap > 0 bounds how many frames of one class
// contribute points (the first, then evenly through the rest, always
// keeping the last) — bulk-data classes would otherwise dominate the
// matrix with hundreds of equivalent mid-transfer cells.
func Points(trace []Event, perClassCap int) []Point {
	byClass := map[Class][]int{}
	for _, ev := range trace {
		byClass[ev.Class] = append(byClass[ev.Class], ev.N)
	}
	var pts []Point
	for cls, ns := range byClass {
		sort.Ints(ns)
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
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Class != pts[j].Class {
			return pts[i].Class < pts[j].Class
		}
		if pts[i].N != pts[j].N {
			return pts[i].N < pts[j].N
		}
		return pts[i].When < pts[j].When
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
	for i := 0; i < n; i++ {
		idx := i * (len(ns) - 1) / (n - 1)
		out = append(out, ns[idx])
	}
	// Dedup (possible when len(ns) is close to cap).
	dst := out[:1]
	for _, n := range out[1:] {
		if n != dst[len(dst)-1] {
			dst = append(dst, n)
		}
	}
	return dst
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

// Sample draws a deterministic, seed-reproducible subset of n cells —
// the bounded matrix the CI smoke step and quick experiment runs use.
// n >= len(cells) returns every cell in order.
func Sample(cells []Spec, seed int64, n int) []Spec {
	if n >= len(cells) {
		out := make([]Spec, len(cells))
		copy(out, cells)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(cells))[:n]
	sort.Ints(idx)
	out := make([]Spec, 0, n)
	for _, i := range idx {
		out = append(out, cells[i])
	}
	return out
}

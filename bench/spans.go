package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark observes the program from outside: it wraps the transport a
// migration runs over and timestamps every frame, then cuts one migration
// into phases from those timestamps alone. Nothing here knows a wire format.

// transport is the three-method shape of the program's link.Transport; the
// wrapper satisfies it structurally, so this file imports nothing of the
// program.
type transport interface {
	Send(payload []byte) error
	Recv() ([]byte, error)
	Close() error
}

// frameEvent is one Send or Recv call seen by a tapped transport.
type frameEvent struct {
	send       bool
	start, end time.Time
	bytes      int
}

// frameLog collects the events of one migration on one end of the
// connection. The stream layer sends and receives from different
// goroutines, hence the mutex.
type frameLog struct {
	mu     sync.Mutex
	events []frameEvent
	// flipSend, when positive, corrupts one payload byte of the flipSend-th
	// sent frame (1-based) — the self-test's fault.
	flipSend int
	sends    int
}

func (l *frameLog) add(e frameEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// snapshot returns the events in start order.
func (l *frameLog) snapshot() []frameEvent {
	l.mu.Lock()
	ev := append([]frameEvent(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(ev, func(i, j int) bool { return ev[i].start.Before(ev[j].start) })
	return ev
}

// tappedTransport records every frame crossing inner into log.
type tappedTransport struct {
	inner transport
	log   *frameLog
}

func (t *tappedTransport) Send(payload []byte) error {
	l := t.log
	l.mu.Lock()
	l.sends++
	flip := l.flipSend > 0 && l.sends == l.flipSend && len(payload) > 0
	l.mu.Unlock()
	if flip {
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0x40
	}
	start := time.Now()
	err := t.inner.Send(payload)
	l.add(frameEvent{send: true, start: start, end: time.Now(), bytes: len(payload)})
	return err
}

func (t *tappedTransport) Recv() ([]byte, error) {
	start := time.Now()
	b, err := t.inner.Recv()
	t.log.add(frameEvent{start: start, end: time.Now(), bytes: len(b)})
	return b, err
}

func (t *tappedTransport) Close() error { return t.inner.Close() }

// span is one timed interval of the trace: name, start, end, the span that
// caused it, and the migration (op) it belongs to. Times are nanoseconds
// since the run's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTimes are the four instants the harness itself takes around one
// migration: before Dial, after Dial, after Initiate returns, after Close.
type opTimes struct {
	start, dialed, initiated, end time.Time
}

// phases are the blocking steps of one migration as seen from the
// initiator's transport, in milliseconds. They tile [start, end] except for
// the gap between Dial returning and the first frame being sent, which is
// what unattributed reports.
type phases struct {
	dial, handshake, sendPhase, tailWait, commit, close float64
	total, unattributed                                 float64
	sendBusy, recvWait                                  float64
	frames                                              int
	sentBytes                                           int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cutPhases derives the phases of one migration from the initiator-side
// frame events. The first Send/Recv pair is the handshake (OFFER/ACCEPT);
// the last Recv is the RESTORED confirmation; a Send that starts after it is
// the COMMIT; every other Send carries state. ok is false when the log does
// not hold a complete migration.
func cutPhases(t opTimes, ev []frameEvent) (p phases, bounds [5]time.Time, ok bool) {
	var firstSend, firstRecv, lastRecv *frameEvent
	for i := range ev {
		e := &ev[i]
		if e.send {
			p.sendBusy += ms(e.end.Sub(e.start))
			p.sentBytes += e.bytes
			if firstSend == nil {
				firstSend = e
			}
		} else {
			p.recvWait += ms(e.end.Sub(e.start))
			if firstRecv == nil || e.end.Before(firstRecv.end) {
				firstRecv = e
			}
			if lastRecv == nil || e.end.After(lastRecv.end) {
				lastRecv = e
			}
		}
	}
	p.frames = len(ev)
	p.total = ms(t.end.Sub(t.start))
	p.dial = ms(t.dialed.Sub(t.start))
	p.close = ms(t.end.Sub(t.initiated))
	if firstSend == nil || firstRecv == nil || firstRecv == lastRecv {
		return p, bounds, false
	}
	lastData := firstRecv.end
	for i := range ev {
		e := &ev[i]
		if e.send && e.start.Before(lastRecv.end) && e.end.After(lastData) {
			lastData = e.end
		}
	}
	if lastData.After(lastRecv.end) {
		lastData = lastRecv.end
	}
	bounds = [5]time.Time{firstSend.start, firstRecv.end, lastData, lastRecv.end, t.initiated}
	p.handshake = ms(bounds[1].Sub(bounds[0]))
	p.sendPhase = ms(bounds[2].Sub(bounds[1]))
	p.tailWait = ms(bounds[3].Sub(bounds[2]))
	p.commit = ms(bounds[4].Sub(bounds[3]))
	p.unattributed = p.total - p.dial - p.handshake - p.sendPhase - p.tailWait - p.commit - p.close
	return p, bounds, true
}

// traceLog keeps every span of a run in memory; it is written once, at exit.
type traceLog struct {
	epoch time.Time
	spans []span
}

func (l *traceLog) add(parent, op int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// addOp records the span tree of one migration: the op, its phases, the
// initiator's frames under the phase they started in, and the responder's
// frames under one responder span.
func (l *traceLog) addOp(op int, t opTimes, bounds [5]time.Time, client, responder []frameEvent) {
	root := l.add(0, op, "op", t.start, t.end)
	l.add(root, op, "link.dial", t.start, t.dialed)
	names := [4]string{"session.handshake", "session.send_phase", "session.tail_wait", "session.commit"}
	var ids [4]int
	for i, n := range names {
		ids[i] = l.add(root, op, n, bounds[i], bounds[i+1])
	}
	l.add(root, op, "link.close", t.initiated, t.end)
	for _, e := range client {
		// A frame belongs to the phase it started in and is clipped to it.
		i := 3
		for i > 0 && e.start.Before(bounds[i]) {
			i--
		}
		end := e.end
		if end.After(bounds[i+1]) {
			end = bounds[i+1]
		}
		name := "link.recv"
		if e.send {
			name = "link.send"
		}
		l.add(ids[i], op, name, e.start, end)
	}
	if len(responder) == 0 {
		return
	}
	first, last := responder[0].start, responder[0].end
	for _, e := range responder {
		if e.end.After(last) {
			last = e.end
		}
	}
	if first.Before(t.start) {
		first = t.start
	}
	if last.After(t.end) {
		last = t.end
	}
	resp := l.add(root, op, "responder", first, last)
	for _, e := range responder {
		name := "responder.recv"
		if e.send {
			name = "responder.send"
		}
		s, en := e.start, e.end
		if s.Before(first) {
			s = first
		}
		if en.After(last) {
			en = last
		}
		if en.Before(s) {
			continue
		}
		l.add(resp, op, name, s, en)
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children may overlap: Send and Recv run concurrently, so the
// cover is the union of the children clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		c := kids[s.ID]
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range c {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

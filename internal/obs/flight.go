package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// FlightSchema names the JSON schema of a dumped flight recording.
const FlightSchema = "repro-flight/1"

// defaultFlightCapacity bounds a recorder that was created without an
// explicit capacity. A migration session emits tens of events (offer,
// accept, rounds, commit or rollback), so 256 keeps the interesting tail
// with room to spare while bounding memory per in-flight session.
const defaultFlightCapacity = 256

// FlightEvent is one structured entry in a flight recording.
type FlightEvent struct {
	// Seq is the event's 1-based position in the whole recording — gaps
	// at the front reveal how many events the ring overwrote.
	Seq uint64
	// At is the event's offset from the recorder's creation, so a dumped
	// recording is machine-comparable without absolute clocks.
	At     time.Duration
	Kind   string
	Detail string
}

// FlightRecorder is a bounded in-memory ring of structured events kept per
// migration session: handshake and round messages, a rejected chunk, an
// injected fault, the failure classification and the rollback. It
// records always and cheaply, and is read only when the session fails —
// the dump that explains a failure without per-session log volume on the
// success path.
//
// The ring holds the most recent capacity events; older ones are
// overwritten (Total and Dropped account for them). All methods are safe
// for concurrent use and safe on a nil receiver, so every layer can hold
// an optional recorder handle without branching.
type FlightRecorder struct {
	mu    sync.Mutex
	start time.Time
	buf   []FlightEvent // ring storage, len == cap once full
	next  int           // ring write index
	total uint64
}

// NewFlightRecorder returns a recorder keeping the last capacity events
// (<= 0 selects the default of 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{start: time.Now(), buf: make([]FlightEvent, 0, capacity)}
}

// Record appends one event. Nil-safe; the detail is formatted eagerly so
// later mutation of the arguments cannot corrupt the recording.
func (r *FlightRecorder) Record(kind, format string, args ...any) {
	if r == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	r.total++
	ev := FlightEvent{Seq: r.total, At: time.Since(r.start), Kind: kind, Detail: detail}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Total returns how many events were recorded over the recorder's life.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring overwrote.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Events returns the retained events in chronological order.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// FlightEventData is the JSON form of one event.
type FlightEventData struct {
	Seq    uint64 `json:"seq"`
	AtUS   int64  `json:"at_us"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// FlightData is the JSON form of a dumped recording. The recorder fills
// Schema, Total, Dropped, and Events; the dumper adds the correlation
// fields (trace ID, session number, outcome, error).
type FlightData struct {
	Schema  string            `json:"schema"`
	TraceID string            `json:"trace_id,omitempty"`
	Session uint64            `json:"session,omitempty"`
	Outcome string            `json:"outcome,omitempty"`
	Error   string            `json:"error,omitempty"`
	Total   uint64            `json:"total"`
	Dropped uint64            `json:"dropped,omitempty"`
	Events  []FlightEventData `json:"events"`
}

// Export converts the recording to its JSON form. Nil-safe (returns nil).
func (r *FlightRecorder) Export() *FlightData {
	if r == nil {
		return nil
	}
	events := r.Events()
	d := &FlightData{
		Schema:  FlightSchema,
		Total:   r.Total(),
		Dropped: r.Dropped(),
		Events:  make([]FlightEventData, 0, len(events)),
	}
	for _, ev := range events {
		d.Events = append(d.Events, FlightEventData{
			Seq:    ev.Seq,
			AtUS:   ev.At.Microseconds(),
			Kind:   ev.Kind,
			Detail: ev.Detail,
		})
	}
	return d
}

// String renders the retained events as indented log lines — the form the
// daemon prints when a failed session dumps its recording.
func (r *FlightRecorder) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  ... %d earlier events overwritten\n", d)
	}
	for _, ev := range r.Events() {
		fmt.Fprintf(&b, "  %5d  %10.3fms  %-18s %s\n",
			ev.Seq, float64(ev.At.Microseconds())/1000, ev.Kind, ev.Detail)
	}
	return b.String()
}

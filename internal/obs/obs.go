// Package obs is the observability layer of the migration stack: span-based
// phase timers, a monotonic counter/gauge registry, and exporters that
// render either human-readable trees (the migd log) or JSON (one schema
// shared by migbench's BENCH_*.json files and migd's /metrics endpoint).
//
// The paper's evaluation splits every migration into phases — collect,
// encode, transport, restore — and attributes cost to each; Milanés et
// al.'s reflection-based capture work and the x86/ARM migration study make
// the same point: per-phase attribution is what makes a heterogeneous
// migration tunable. This package turns that attribution from experiment
// scaffolding into an always-available subsystem instrumenting all four
// layers of the stack: xdr (encode/decode volume), stream (chunks and
// rejected frames), collect/vm (per-phase and per-section spans
// on capture and restore), and session/migd (per-session traces with the
// negotiated version and classified outcome).
//
// # Disabled cost
//
// Tracing is opt-in and nil-disabled: a nil *Tracer returns nil *Spans,
// and every Span method is a nil-receiver no-op, so an uninstrumented
// migration pays only pointer nil-checks — no allocations, no atomics, no
// time syscalls. BenchmarkObsSpanDisabled and BenchmarkObsCaptureDisabled
// (internal/vm) verify the fast path stays near zero.
//
// Counters are the opposite trade: always on, but updated in bulk — the
// instrumented layers accumulate locally (a plain int in an encoder, a
// stats struct in a stream writer) and flush one atomic add per capture,
// restore, or transfer, so the registry's cost is independent of data
// size.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed phase of a migration, possibly nested: a capture span
// holds partition/encode children; an encode span holds one child per
// snapshot section, carrying the section kind, id, and encoded bytes. A
// span also holds the moments of its phase's story as events (Event): a
// session's root span is that session's record, successful or failed.
//
// All methods are safe on a nil receiver (the disabled fast path) and safe
// for concurrent use, so a parent span can collect children from a worker
// pool.
type Span struct {
	mu       sync.Mutex
	name     string
	kind     string
	id       uint32
	bytes    int64
	attrs    []Attr
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
	// tc and parentSpan carry the distributed-trace identity (set on
	// session root spans); remote holds stitched peer subtrees received
	// over the wire, exported and rendered after the local children.
	tc         TraceContext
	parentSpan uint64
	remote     []*SpanData
	// events are this span's; root is its tree's root span, whose nevents
	// counts the events offered to the whole tree.
	events  []EventData
	root    *Span
	nevents atomic.Int64
}

// maxEvents bounds the events one span tree keeps. A migration session
// records tens (offer, accept, rounds, commit or rollback), so 256 keeps
// them all with room to spare while bounding memory per session; events
// past it are counted as dropped, not kept.
const maxEvents = 256

// newSpan starts a live span at the root of its own tree.
func newSpan(name string) *Span {
	s := &Span{name: name, start: time.Now()}
	s.root = s
	return s
}

// Child starts a nested span. On a nil receiver it returns nil, keeping
// the whole subtree free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	c.root = s.root
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. A second End is a no-op, so deferred and
// explicit ends compose.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Event records one moment of the span's story — a message negotiated, a
// round shipped, a fault injected, a failure classified — stamped with its
// offset from the tree's root. The detail is formatted eagerly, so later
// mutation of the arguments cannot change it. A tree keeps its first
// maxEvents events and counts the rest.
func (s *Span) Event(kind, format string, args ...any) {
	if s == nil || s.root.nevents.Add(1) > maxEvents {
		return
	}
	ev := EventData{AtUS: time.Since(s.root.start).Microseconds(), Kind: kind, Detail: fmt.Sprintf(format, args...)}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// SetBytes records the payload volume the span covered.
func (s *Span) SetBytes(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bytes = n
	s.mu.Unlock()
}

// SetSection tags the span with a snapshot section identity.
func (s *Span) SetSection(kind string, id uint32) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind = kind
	s.id = id
	s.mu.Unlock()
}

// SetAttr attaches (or replaces) a key/value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetTraceContext stamps the span with its distributed-trace identity.
func (s *Span) SetTraceContext(tc TraceContext) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tc = tc
	s.mu.Unlock()
}

// SetParentSpan links the span under a remote parent span ID — the
// responder's session span pointing back at the initiator's.
func (s *Span) SetParentSpan(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.parentSpan = id
	s.mu.Unlock()
}

// AttachRemote grafts an exported peer subtree under this span: the
// destination's restore/confirm spans shipped back on the session's
// confirm leg. The subtree is marked remote and appears after the local
// children in both the rendered tree and the JSON export. Remote start
// offsets stay relative to the remote root — the two machines' clocks are
// not comparable. Nil-safe on both receiver and argument.
func (s *Span) AttachRemote(d *SpanData) {
	if s == nil || d == nil {
		return
	}
	d.Remote = true
	s.mu.Lock()
	s.remote = append(s.remote, d)
	s.mu.Unlock()
}

// SetDuration overrides the span's measured duration — used when a phase
// was timed externally (a section encode measured before its span existed).
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur = d
	s.ended = true
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns the nested spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Find returns the first descendant span (depth-first, including s) with
// the given name, or nil — a test and reporting convenience.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Tracer owns the root spans of one traced unit of work — one migration
// session, one experiment run. A nil *Tracer is the disabled tracer: Start
// returns nil and the whole span tree degenerates to nil-checks.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start opens a root span. Nil-safe.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the root spans in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// Tree renders every root span as a human-readable indented tree, the
// rendering migd prints per session.
func (t *Tracer) Tree() string {
	var b strings.Builder
	for _, d := range t.Export() {
		b.WriteString(d.Tree())
	}
	return b.String()
}

// Tree renders an exported (possibly remote) span tree: each span's
// duration, bytes and attributes, then its events at their offsets. It is
// the one tree layout: live spans reach it through Export, and a failed
// session's journal record is read back through it.
func (d *SpanData) Tree() string {
	var b strings.Builder
	writeDataTree(&b, d, 0)
	return b.String()
}

func writeDataTree(b *strings.Builder, d *SpanData, depth int) {
	label := d.Name
	if d.Kind != "" {
		label = fmt.Sprintf("%s %s #%d", d.Name, d.Kind, d.ID)
	}
	fmt.Fprintf(b, "%s%-18s  %10.4fms", strings.Repeat("  ", depth), label, float64(d.DurUS)/1000)
	if d.Bytes > 0 {
		fmt.Fprintf(b, "  %10d B", d.Bytes)
	}
	if d.TraceID != "" {
		fmt.Fprintf(b, "  trace=%s", d.TraceID)
	}
	if d.Remote {
		b.WriteString("  (remote)")
	}
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "  %s=%s", k, d.Attrs[k])
	}
	b.WriteByte('\n')
	indent := strings.Repeat("  ", depth+1)
	if d.Dropped > 0 {
		fmt.Fprintf(b, "%s... %d later events dropped\n", indent, d.Dropped)
	}
	for _, ev := range d.Events {
		fmt.Fprintf(b, "%s@%9.3fms  %-18s %s\n", indent, float64(ev.AtUS)/1000, ev.Kind, ev.Detail)
	}
	for _, c := range d.Children {
		writeDataTree(b, c, depth+1)
	}
}

// sortedAttrs returns a copy of the attrs sorted by key for stable export.
func (s *Span) sortedAttrs() []Attr {
	s.mu.Lock()
	out := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

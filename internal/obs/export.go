package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// ReportSchema names the JSON schema version shared by every obs export:
// migbench's BENCH_*.json files and migd's /metrics endpoint both emit a
// Report with this marker, so downstream tooling reads one format.
const ReportSchema = "repro-obs/2"

// NodeInfo identifies the node that emitted a Report — the /metrics
// header block, and the node attribute of its journal records. ID is
// stable for the process lifetime; Start and Version let operators spot
// restarts and mixed-version fleets from one read.
type NodeInfo struct {
	ID      string    `json:"id"`
	Machine string    `json:"machine,omitempty"`
	Addr    string    `json:"addr,omitempty"`
	PID     int       `json:"pid,omitempty"`
	Start   time.Time `json:"start,omitempty"`
	Version string    `json:"version,omitempty"`
}

// SpanData is the exported (JSON) form of a Span. Times are microseconds:
// StartUS is the span's offset from its root span's start, DurUS its
// duration, so traces are machine-comparable without absolute clocks.
//
// TraceID/SpanID/ParentSpanID carry the distributed-trace identity on
// session roots; Remote marks a subtree that was exported on another
// machine and stitched in — its StartUS offsets are relative to its own
// root, not the local one (the two clocks are not comparable).
type SpanData struct {
	Name         string            `json:"name"`
	Kind         string            `json:"kind,omitempty"`
	ID           uint32            `json:"id,omitempty"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Remote       bool              `json:"remote,omitempty"`
	StartUS      int64             `json:"start_us"`
	DurUS        int64             `json:"dur_us"`
	Bytes        int64             `json:"bytes,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Events       []EventData       `json:"events,omitempty"`
	// Dropped, on a root, counts the events past the tree's bound.
	Dropped  int64       `json:"dropped_events,omitempty"`
	Children []*SpanData `json:"children,omitempty"`
}

// EventData is one event of a span (Span.Event): AtUS is its offset from
// the tree's root span's start, as StartUS is a span's.
type EventData struct {
	AtUS   int64  `json:"at_us"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Export converts the span tree to its JSON form, with start offsets
// relative to s's own start.
func (s *Span) Export() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	base := s.start
	s.mu.Unlock()
	return s.export(base)
}

func (s *Span) export(base time.Time) *SpanData {
	s.mu.Lock()
	d := &SpanData{
		Name:    s.name,
		Kind:    s.kind,
		ID:      s.id,
		StartUS: s.start.Sub(base).Microseconds(),
		Bytes:   s.bytes,
	}
	if s.tc.Valid() {
		d.TraceID = IDString(s.tc.TraceID)
		d.SpanID = IDString(s.tc.SpanID)
	}
	if s.parentSpan != 0 {
		d.ParentSpanID = IDString(s.parentSpan)
	}
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]*SpanData(nil), s.remote...)
	d.Events = append(d.Events, s.events...)
	s.mu.Unlock()
	if s.root == s {
		d.Dropped = max(0, s.nevents.Load()-maxEvents)
	}
	d.DurUS = dur.Microseconds()
	if attrs := s.sortedAttrs(); len(attrs) > 0 {
		d.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range children {
		d.Children = append(d.Children, c.export(base))
	}
	// Stitched peer subtrees export after the local children.
	d.Children = append(d.Children, remote...)
	return d
}

// Export converts every root span of the tracer.
func (t *Tracer) Export() []*SpanData {
	if t == nil {
		return nil
	}
	roots := t.Roots()
	out := make([]*SpanData, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.Export())
	}
	return out
}

// Report is the one obs schema every machine-readable export flows
// through: experiment rows (BENCH_*.json) and a metrics snapshot, each
// optional.
type Report struct {
	Schema     string           `json:"schema"`
	Node       *NodeInfo        `json:"node,omitempty"`
	Experiment string           `json:"experiment,omitempty"`
	Rows       any              `json:"rows,omitempty"`
	Metrics    *MetricsSnapshot `json:"metrics,omitempty"`
}

// NewReport builds a Report with the schema marker set.
func NewReport(experiment string, rows any) *Report {
	return &Report{Schema: ReportSchema, Experiment: experiment, Rows: rows}
}

// WithMetrics attaches a registry snapshot and returns the report.
func (r *Report) WithMetrics(reg *Registry) *Report {
	snap := reg.Snapshot()
	r.Metrics = &snap
	return r
}

// NodeMetricsHandler serves reg at every request as the obs JSON Report
// — the daemon's /metrics endpoint. A nil registry serves Default. An
// encoding failure is a 500 (the body is staged in memory so the status
// line is still writable). node is invoked per request, before the
// snapshot, so the caller can refresh derived gauges (store usage) and
// return the current identity, which is stamped into the report; nil
// node or a nil return serves a headerless report.
func NodeMetricsHandler(reg *Registry, node func() *NodeInfo) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r := reg
		if r == nil {
			r = Default
		}
		rep := NewReport("", nil)
		if node != nil {
			rep.Node = node()
		}
		rep.WithMetrics(r)
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
}

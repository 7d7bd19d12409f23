package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic counter. The zero value is ready; all methods are
// safe for concurrent use and safe on a nil receiver, so a layer holding
// an optional counter handle needs no branching of its own.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement (sessions in
// flight, pool capacity). Nil-safe and concurrency-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the gauge's current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of counters and gauges — one place the
// daemon, the bench harness, and the /metrics endpoint all read.
// Handles are get-or-create and stable, so hot layers resolve a name once
// and pay only the atomic op afterwards. Safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry the built-in instrumentation
// (stream, vm, session) flushes into. Commands serve or print it;
// libraries only ever add to it in bulk.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use. Nil-safe like Counter and Gauge.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a point-in-time copy of every metric. Counters and
// gauges share one namespace in the export; gauge names keep their
// ".gauge"-free spelling — the schema distinguishes them structurally.
func (r *Registry) Snapshot() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := MetricsSnapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			snap.Histograms[name] = h.Snapshot()
		}
	}
	return snap
}

// MetricsSnapshot is the JSON form of a registry: flat name→value maps
// per metric kind, as the shared obs schema (Report) carries it.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// String renders the snapshot as sorted "name value" lines for logs.
func (m MetricsSnapshot) String() string {
	var b strings.Builder
	writeSorted := func(kind string, vals map[string]int64) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s %d\n", kind, n, vals[n])
		}
	}
	writeSorted("counter", m.Counters)
	writeSorted("gauge", m.Gauges)
	hnames := make([]string, 0, len(m.Histograms))
	for n := range m.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := m.Histograms[n]
		fmt.Fprintf(&b, "histogram %s count %d p50 %dus p90 %dus p99 %dus\n",
			n, h.Count, h.P50US, h.P90US, h.P99US)
	}
	return b.String()
}

// CRC32Bytes counts the bytes the program hands to CRC-32 to check their
// integrity — link's frame checks and snapshot's section checks, on both
// sides of a transfer — so that the CRC passes a payload byte costs can be
// read off one counter.
var CRC32Bytes = Default.Counter("integrity.crc32_bytes")

// SHA256Bytes counts the bytes the program hands to SHA-256: the checkpoint
// store's content addresses (store.HashBytes), computed when a body or a
// manifest is named, checked or read back. Beside CRC32Bytes it tells what a
// transfer pays for naming its bodies by content.
var SHA256Bytes = Default.Counter("integrity.sha256_bytes")

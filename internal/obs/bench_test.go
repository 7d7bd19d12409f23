package obs

import (
	"testing"
	"time"
)

// BenchmarkObsSpanDisabled measures the disabled fast path: a nil span's
// whole child/annotate/end sequence must compile down to nil-checks with
// zero allocations — the cost an uninstrumented migration pays.
func BenchmarkObsSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Start("capture")
		c := root.Child("encode")
		c.SetSection("heap", 1)
		c.SetBytes(1024)
		c.End()
		root.End()
	}
}

// BenchmarkObsSpanEnabled is the enabled counterpart, for the on/off
// comparison E10a reports.
func BenchmarkObsSpanEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewTracer()
		root := tr.Start("capture")
		c := root.Child("encode")
		c.SetSection("heap", 1)
		c.SetBytes(1024)
		c.End()
		root.End()
	}
}

// BenchmarkObsCounterAdd measures the always-on bulk-flush cost: one
// pre-resolved counter add, the per-capture price of the registry.
func BenchmarkObsCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(64)
	}
}

// BenchmarkObsHistogramDisabled measures the disabled latency-histogram
// path: a nil histogram's Observe must compile down to a nil-check with
// zero allocations — the cost an optional handle pays when unset.
func BenchmarkObsHistogramDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkObsHistogramObserve measures the enabled hot path: one bucket
// index computation and three atomic adds, zero allocations — the per-
// phase price of always-on latency recording.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

package obs

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHistogramMergeMatchesSingleRun is the quantile-accuracy gate: the
// snapshots of N histograms merged bucket-wise must be indistinguishable —
// buckets, count, sum, and every quantile — from the snapshot of one
// histogram that observed the union of their samples. The bucket layout is
// shared, so this must be exact, not approximate.
func TestHistogramMergeMatchesSingleRun(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	parts := []*Histogram{{}, {}, {}}
	ref := &Histogram{}
	for i := 0; i < 3000; i++ {
		// Spread across the full bucket range, overflow included.
		d := time.Duration(rng.Int63n(int64(time.Hour))) * time.Duration(1+rng.Intn(200))
		parts[i%len(parts)].Observe(d)
		ref.Observe(d)
	}
	var ms HistogramSnapshot
	for _, p := range parts {
		ms = ms.Merge(p.Snapshot())
	}
	// Each snapshot truncates its sum to whole microseconds, so the merged
	// sum may fall short of the reference's by under one per part.
	rs := ref.Snapshot()
	if short := rs.SumUS - ms.SumUS; short < 0 || short >= int64(len(parts)) {
		t.Errorf("merged sum = %dus, want %dus less under %d", ms.SumUS, rs.SumUS, len(parts))
	}
	if ms.Count != rs.Count || ms.P50US != rs.P50US || ms.P90US != rs.P90US || ms.P99US != rs.P99US {
		t.Fatalf("merged count/p50/p90/p99 = %d/%d/%d/%d, want %d/%d/%d/%d",
			ms.Count, ms.P50US, ms.P90US, ms.P99US, rs.Count, rs.P50US, rs.P90US, rs.P99US)
	}
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		if got, want := ms.Quantile(q), rs.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %v, reference %v", q, got, want)
		}
	}
	if len(ms.Buckets) != len(rs.Buckets) {
		t.Fatalf("bucket sets differ: %v vs %v", ms.Buckets, rs.Buckets)
	}
	for i := range ms.Buckets {
		if ms.Buckets[i] != rs.Buckets[i] {
			t.Errorf("bucket %d: merged %+v, reference %+v", i, ms.Buckets[i], rs.Buckets[i])
		}
	}
}

// TestSnapshotMergeAndQuantile checks the snapshot-level merge — what
// the fleet scraper uses, operating on decoded JSON rather than live
// histograms — against the same single-run reference.
func TestSnapshotMergeAndQuantile(t *testing.T) {
	a, b, ref := &Histogram{}, &Histogram{}, &Histogram{}
	for i := 1; i <= 600; i++ {
		d := time.Duration(i*i) * time.Microsecond
		ref.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	got := a.Snapshot().Merge(b.Snapshot())
	want := ref.Snapshot()
	if got.Count != want.Count || got.SumUS != want.SumUS ||
		got.P50US != want.P50US || got.P90US != want.P90US || got.P99US != want.P99US {
		t.Fatalf("merged snapshot %+v, want %+v", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Errorf("q%.2f: merged %v, reference %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
	// Merging an empty snapshot is the identity.
	if id := want.Merge(HistogramSnapshot{}); id.Count != want.Count || id.P99US != want.P99US {
		t.Errorf("merge with empty changed the snapshot: %+v", id)
	}
}

// TestSnapshotDelta checks the windowing algebra: two snapshots of one
// cumulative histogram subtract to exactly the observations in between,
// and a shrinking counter (node restart between scrapes) clamps to an
// empty window rather than going negative.
func TestSnapshotDelta(t *testing.T) {
	h := &Histogram{}
	h.Observe(3 * time.Microsecond)
	h.Observe(500 * time.Microsecond)
	prev := h.Snapshot()

	h.Observe(20 * time.Millisecond)
	h.Observe(21 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	delta := h.Snapshot().Delta(prev)

	if delta.Count != 3 {
		t.Fatalf("delta count = %d, want 3", delta.Count)
	}
	ref := &Histogram{}
	ref.Observe(20 * time.Millisecond)
	ref.Observe(21 * time.Millisecond)
	ref.Observe(40 * time.Millisecond)
	if want := ref.Snapshot(); delta.P50US != want.P50US || delta.P99US != want.P99US ||
		delta.SumUS != want.SumUS {
		t.Errorf("delta %+v, want %+v", delta, want)
	}

	// Restart: prev ahead of current must clamp, not go negative.
	fresh := (&Histogram{}).Snapshot()
	clamped := fresh.Delta(prev)
	if clamped.Count != 0 || len(clamped.Buckets) != 0 || clamped.SumUS != 0 {
		t.Errorf("post-restart delta not clamped: %+v", clamped)
	}
}

// TestMetricsSnapshotDelta covers the full-snapshot window: counters
// subtract and clamp, gauges stay instantaneous, histograms delta.
func TestMetricsSnapshotDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("session.restored").Add(5)
	reg.Gauge("session.inflight").Set(2)
	reg.Histogram("session.duration").Observe(time.Millisecond)
	prev := reg.Snapshot()

	reg.Counter("session.restored").Add(3)
	reg.Counter("session.failed").Inc()
	reg.Gauge("session.inflight").Set(7)
	reg.Histogram("session.duration").Observe(4 * time.Millisecond)
	d := reg.Snapshot().Delta(prev)

	if d.Counters["session.restored"] != 3 || d.Counters["session.failed"] != 1 {
		t.Errorf("counter deltas = %v", d.Counters)
	}
	if d.Gauges["session.inflight"] != 7 {
		t.Errorf("gauge kept windowed value, want instantaneous: %v", d.Gauges)
	}
	if d.Histograms["session.duration"].Count != 1 {
		t.Errorf("histogram delta = %+v", d.Histograms["session.duration"])
	}

	// A restart (prev ahead) clamps counters at zero.
	clamped := prev.Delta(reg.Snapshot())
	if clamped.Counters["session.restored"] != 0 {
		t.Errorf("clamped counter = %d, want 0", clamped.Counters["session.restored"])
	}
}

// TestPrometheusMergedSnapshotInvariants renders merged and windowed
// snapshots through the Prometheus exposition and checks the two
// invariants scrapers rely on: cumulative le-bucket series never
// decrease, and the +Inf bucket equals the _count sample count.
func TestPrometheusMergedSnapshotInvariants(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 400; i++ {
		a.Observe(time.Duration(i) * 37 * time.Microsecond)
		b.Observe(time.Duration(i) * 11 * time.Millisecond)
	}
	b.Observe(30 * 24 * time.Hour) // force the overflow (+Inf) bucket
	prevSnap := a.Snapshot()
	for i := 0; i < 50; i++ {
		a.Observe(time.Duration(i) * time.Second)
	}

	cases := map[string]HistogramSnapshot{
		"merged": a.Snapshot().Merge(b.Snapshot()),
		"delta":  a.Snapshot().Delta(prevSnap),
	}
	for name, snap := range cases {
		var sb strings.Builder
		m := MetricsSnapshot{Histograms: map[string]HistogramSnapshot{"lat": snap}}
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := sb.String()
		var prev, inf, count int64
		var sawInf, sawCount bool
		for _, line := range strings.Split(out, "\n") {
			switch {
			case strings.HasPrefix(line, "lat_seconds_bucket{"):
				v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				if err != nil {
					t.Fatalf("%s: bad bucket line %q: %v", name, line, err)
				}
				if v < prev {
					t.Errorf("%s: cumulative bucket decreased: %q after %d", name, line, prev)
				}
				prev = v
				if strings.Contains(line, `le="+Inf"`) {
					inf, sawInf = v, true
				}
			case strings.HasPrefix(line, "lat_seconds_count "):
				count, _ = strconv.ParseInt(strings.TrimPrefix(line, "lat_seconds_count "), 10, 64)
				sawCount = true
			}
		}
		if !sawInf || !sawCount {
			t.Fatalf("%s: exposition missing +Inf or _count:\n%s", name, out)
		}
		if inf != count || count != snap.Count {
			t.Errorf("%s: +Inf %d, _count %d, snapshot count %d — want all equal",
				name, inf, count, snap.Count)
		}
	}
}

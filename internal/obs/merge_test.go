package obs

import (
	"testing"
	"time"
)

// TestSnapshotMergeAndQuantile checks that a snapshot's Quantile, read
// back from its buckets, agrees with the summary quantiles it carries.
func TestSnapshotMergeAndQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 600; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	snap := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, snap.P50US}, {0.90, snap.P90US}, {0.99, snap.P99US}} {
		if got := snap.Quantile(c.q).Microseconds(); got != c.want {
			t.Errorf("Quantile(%.2f) = %dus, snapshot carries %dus", c.q, got, c.want)
		}
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("an empty snapshot has a nonzero quantile")
	}
}

// TestSnapshotDelta checks the windowing algebra: two snapshots of one
// cumulative histogram subtract to exactly the observations in between,
// and a snapshot ahead of the current one (a reset in between) clamps to
// an empty window rather than going negative.
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

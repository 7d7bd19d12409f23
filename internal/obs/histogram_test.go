package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 0}, // ceil to 1us -> bucket 0 (le 1us)
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1}, // ceil to 2us -> le 2us
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2}, // le 4us
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},  // le 8us
		{time.Millisecond, 10},     // 1024us bound: 2^10
		{time.Second, 20},          // le 2^20 us = 1.048576s
		{time.Hour, 32},            // 3.6e9 us <= 2^32 us
		{400 * 24 * time.Hour, 40}, // beyond the finite range -> overflow
	}
	for _, c := range cases {
		if got := histBucketIndex(c.d); got != c.want {
			t.Errorf("bucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if b := HistBucketBound(0); b != time.Microsecond {
		t.Errorf("bound(0) = %v, want 1us", b)
	}
	if b := HistBucketBound(10); b != 1024*time.Microsecond {
		t.Errorf("bound(10) = %v, want 1.024ms", b)
	}
	if b := HistBucketBound(histBuckets); b >= 0 {
		t.Errorf("overflow bound = %v, want negative sentinel", b)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// 90 fast observations and 10 slow ones: p50 lands in the fast
	// bucket's bound, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket le 4us
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond) // bucket le 1024us
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50US != 4 || s.Quantile(0.50) != 4*time.Microsecond {
		t.Errorf("p50 = %dus / %v, want 4us", s.P50US, s.Quantile(0.50))
	}
	if s.P99US != 1024 || s.Quantile(0.99) != 1024*time.Microsecond {
		t.Errorf("p99 = %dus / %v, want 1.024ms", s.P99US, s.Quantile(0.99))
	}
	if wantSum := int64(90*3 + 10*900); s.SumUS != wantSum {
		t.Errorf("sum = %dus, want %dus", s.SumUS, wantSum)
	}
}

func TestHistogramSnapshotAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if s := nilH.Snapshot(); s.Count != 0 || s.SumUS != 0 || s.Quantile(0.5) != 0 || len(s.Buckets) != 0 {
		t.Error("nil histogram snapshot not empty")
	}

	h := NewRegistry().Histogram("x")
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(500 * 24 * time.Hour) // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("snapshot count = %d, want 3", s.Count)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("snapshot buckets = %+v, want 3 non-empty", s.Buckets)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.LEUS != -1 || last.Count != 1 {
		t.Errorf("overflow bucket = %+v, want le_us=-1 count=1", last)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*each {
		t.Errorf("count = %d, want %d", got, workers*each)
	}
}

func TestRegistryHistogramSnapshotAndString(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(2)
	reg.Histogram("lat").Observe(3 * time.Microsecond)
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot histograms = %+v", snap.Histograms)
	}
	out := snap.String()
	if !strings.Contains(out, "histogram lat count 1") {
		t.Errorf("snapshot string missing histogram line:\n%s", out)
	}
	var nilReg *Registry
	if nilReg.Histogram("x") != nil {
		t.Error("nil registry returned a histogram")
	}
}

// TestHistogramObserveZeroAlloc is the allocation guard behind the CI
// bench smoke: the hot path must stay allocation-free whether the
// handle is live or nil.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("x")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); n != 0 {
		t.Errorf("enabled Observe allocates %.1f per op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(3 * time.Microsecond) }); n != 0 {
		t.Errorf("nil Observe allocates %.1f per op", n)
	}
}

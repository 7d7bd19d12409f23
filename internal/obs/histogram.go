package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite exponential buckets: bucket i holds
// observations with ceil(d) in (2^(i-1), 2^i] microseconds, so the finite
// range runs from 1µs up to 2^39µs (~6.4 days). One extra overflow slot
// catches anything beyond — the Prometheus +Inf bucket.
const histBuckets = 40

// Histogram is a fixed-bucket exponential latency histogram: per-phase and
// per-section migration latencies, session durations and downtimes.
// The bucket layout is compiled in (powers of two in microseconds), so
// Observe is one bit-length computation and two atomic adds — no locks, no
// allocations, safe for concurrent use, and (like Counter) safe on a nil
// receiver so optional handles need no branching.
//
// Quantiles are read from the bucket counts: the reported pN is the upper
// bound of the bucket the N-th percentile falls in — conservative by at
// most one bucket width (a factor of two), which is the trade for a
// lock-free hot path.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // [histBuckets] is the overflow (+Inf) slot
	sum    atomic.Int64                  // nanoseconds
}

// histBucketIndex maps a duration to its bucket.
func histBucketIndex(d time.Duration) int {
	ns := uint64(d)
	if int64(d) <= 0 {
		return 0
	}
	us := (ns + 999) / 1000 // ceil to microseconds
	i := bits.Len64(us - 1) // us in (2^(i-1), 2^i]
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// HistBucketBound returns bucket i's inclusive upper bound; the overflow
// bucket has no finite bound and reports a negative duration.
func HistBucketBound(i int) time.Duration {
	if i >= histBuckets {
		return -1
	}
	return time.Microsecond << i
}

// Observe records one latency. Nil-safe; zero and negative durations count
// into the first bucket so a snapshot's Count stays an honest observation
// count.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[histBucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// dense loads the bucket counts into a dense array, one atomic load each.
func (h *Histogram) dense() (c [histBuckets + 1]int64) {
	for i := range c {
		c[i] = h.counts[i].Load()
	}
	return c
}

// HistogramBucket is one non-empty bucket in a snapshot. LEUS is the
// bucket's inclusive upper bound in microseconds (-1 for the overflow
// bucket); Count is the bucket's own (not cumulative) count.
type HistogramBucket struct {
	LEUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram: summary quantiles up
// front (what the report tables read) plus the sparse bucket counts (what
// the Prometheus exposition rebuilds its cumulative series from).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumUS   int64             `json:"sum_us"`
	P50US   int64             `json:"p50_us"`
	P90US   int64             `json:"p90_us"`
	P99US   int64             `json:"p99_us"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns a point-in-time copy of the histogram. The individual
// loads are atomic but the set is not a consistent cut; for a completed
// session the difference is nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return snapshotFromDense(h.dense(), h.sum.Load()/1000)
}

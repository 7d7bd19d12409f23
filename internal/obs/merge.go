package obs

import (
	"math/bits"
	"time"
)

// This file is the aggregation algebra the fleet scraper builds on. The
// bucket layout is compiled into every Histogram (powers of two in
// microseconds, see histBuckets), so bucket-wise addition of two
// histograms is exact: the merge reports the same quantiles as one
// histogram that had seen both sides' observations. Subtraction of two
// snapshots of the same cumulative histogram is exact for the same
// reason, which is what turns periodic scrapes into windowed rates.

// histIndexForBoundUS maps a snapshot bucket's upper bound back to its
// bucket index. Bounds that don't match the compiled layout (a peer
// built with a different resolution) clamp to the covering bucket, so a
// merge is never lossy beyond the receiver's own bucket width.
func histIndexForBoundUS(leUS int64) int {
	if leUS < 0 {
		return histBuckets
	}
	if leUS <= 1 {
		return 0
	}
	i := bits.Len64(uint64(leUS) - 1) // smallest i with 2^i >= leUS
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// dense expands the sparse bucket list into the full bucket array.
func (s HistogramSnapshot) dense() (c [histBuckets + 1]int64) {
	for _, b := range s.Buckets {
		c[histIndexForBoundUS(b.LEUS)] += b.Count
	}
	return c
}

// snapshotFromDense builds a HistogramSnapshot — including its summary
// quantiles — from a dense bucket array: a live histogram's (Snapshot), or
// a merged or windowed one's.
func snapshotFromDense(c [histBuckets + 1]int64, sumUS int64) HistogramSnapshot {
	snap := HistogramSnapshot{SumUS: sumUS}
	for i, n := range c {
		if n <= 0 {
			continue
		}
		snap.Count += n
		le := int64(-1)
		if i < histBuckets {
			le = HistBucketBound(i).Microseconds()
		}
		snap.Buckets = append(snap.Buckets, HistogramBucket{LEUS: le, Count: n})
	}
	snap.P50US = quantileFromDense(c, snap.Count, 0.50).Microseconds()
	snap.P90US = quantileFromDense(c, snap.Count, 0.90).Microseconds()
	snap.P99US = quantileFromDense(c, snap.Count, 0.99).Microseconds()
	return snap
}

// quantileFromDense returns the q-quantile (0 < q <= 1) of a dense bucket
// array holding total observations: the upper bound of the bucket the
// quantile falls in, 0 when there are none. The overflow bucket reports
// the largest finite bound.
func quantileFromDense(c [histBuckets + 1]int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i <= histBuckets; i++ {
		seen += c[i]
		if seen >= rank {
			if i >= histBuckets {
				return HistBucketBound(histBuckets - 1)
			}
			return HistBucketBound(i)
		}
	}
	return HistBucketBound(histBuckets - 1)
}

// Quantile re-derives the q-quantile (0 < q <= 1) from the snapshot's
// buckets, so merged and windowed snapshots answer quantile queries the
// same way a live histogram does. Empty snapshots report 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return quantileFromDense(s.dense(), s.Count, q)
}

// Merge returns the bucket-wise sum of s and other — how the fleet
// roll-up combines N nodes' histograms into one distribution. Exact:
// every histogram shares the compiled bucket layout, so the result's
// quantiles equal those of a single histogram that observed both sides.
func (s HistogramSnapshot) Merge(other HistogramSnapshot) HistogramSnapshot {
	c := s.dense()
	for _, b := range other.Buckets {
		c[histIndexForBoundUS(b.LEUS)] += b.Count
	}
	return snapshotFromDense(c, s.SumUS+other.SumUS)
}

// Delta returns the observations s gained since prev: bucket-wise
// subtraction, clamped at zero so a counter reset (node restart between
// scrapes) reads as a fresh window rather than a negative one.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	c := s.dense()
	for _, b := range prev.Buckets {
		i := histIndexForBoundUS(b.LEUS)
		if c[i] -= b.Count; c[i] < 0 {
			c[i] = 0
		}
	}
	sum := s.SumUS - prev.SumUS
	if sum < 0 {
		sum = 0
	}
	return snapshotFromDense(c, sum)
}

// Delta returns the windowed change from prev to m: counters and
// histograms subtract (clamped at zero across a node restart), gauges
// keep m's instantaneous values. The fleet scraper feeds two consecutive
// scrapes of the same node through this to turn cumulative counters into
// per-window rates.
func (m MetricsSnapshot) Delta(prev MetricsSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{}
	if len(m.Counters) > 0 {
		out.Counters = make(map[string]int64, len(m.Counters))
		for name, v := range m.Counters {
			d := v - prev.Counters[name]
			if d < 0 {
				d = 0
			}
			out.Counters[name] = d
		}
	}
	if len(m.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(m.Gauges))
		for name, v := range m.Gauges {
			out.Gauges[name] = v
		}
	}
	if len(m.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(m.Histograms))
		for name, h := range m.Histograms {
			out.Histograms[name] = h.Delta(prev.Histograms[name])
		}
	}
	return out
}

package stream

import "repro/internal/obs"

// Pre-resolved metric handles into the default registry. The hot paths
// accumulate plain ints in the existing stats structs; the whole transfer
// is flushed with a handful of atomic adds when it completes, so the
// per-chunk cost of observability stays at one gauge store.
var (
	mTxChunks = obs.Default.Counter("stream.tx.chunks")
	mTxBytes  = obs.Default.Counter("stream.tx.bytes")
	mRxChunks = obs.Default.Counter("stream.rx.chunks")
	mRxBytes  = obs.Default.Counter("stream.rx.bytes")
	mRxAcks   = obs.Default.Counter("stream.rx.acks")
	mWindow   = obs.Default.Gauge("stream.window.occupancy")
	// mAckRTT observes the send→acknowledge round trip per chunk: the
	// time from a chunk's transmission to the acknowledgement watermark
	// passing it.
	mAckRTT = obs.Default.Histogram("stream.ack.rtt")
)

// flush publishes one completed send-side transfer to the registry.
func (ws WriterStats) flush() {
	mTxChunks.Add(int64(ws.Chunks))
	mTxBytes.Add(ws.Bytes)
}

// flush publishes one completed receive-side transfer to the registry.
func (rs ReaderStats) flush() {
	mRxChunks.Add(int64(rs.Chunks))
	mRxBytes.Add(rs.Bytes)
	mRxAcks.Add(int64(rs.Acks))
}

package stream

import "repro/internal/obs"

// Pre-resolved metric handles into the default registry. The hot paths
// accumulate plain ints in the existing stats structs; the whole transfer
// is flushed with a handful of atomic adds when it completes, so a chunk
// costs observability nothing.
var (
	mTxChunks = obs.Default.Counter("stream.tx.chunks")
	mTxBytes  = obs.Default.Counter("stream.tx.bytes")
	mRxChunks = obs.Default.Counter("stream.rx.chunks")
	mRxBytes  = obs.Default.Counter("stream.rx.bytes")
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
}

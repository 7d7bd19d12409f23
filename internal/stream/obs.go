package stream

import "repro/internal/obs"

// mTxChunks counts the chunks every send-side transfer cut. The hot path
// counts in a plain int; Close publishes the transfer with one atomic add,
// so a chunk costs observability nothing.
var mTxChunks = obs.Default.Counter("stream.tx.chunks")

package vm

import (
	"repro/internal/obs"
)

// Pre-resolved handles into the default registry. The XDR encoder and
// decoder count their operations in plain ints (xdr.Encoder.Calls,
// xdr.Decoder.Calls); the VM flushes them here once per capture or
// restore, so the byte-packing hot path never touches an atomic.
var (
	mCaptures    = obs.Default.Counter("vm.captures")
	mRestores    = obs.Default.Counter("vm.restores")
	mEncodeCalls = obs.Default.Counter("xdr.encode.calls")
	mEncodeBytes = obs.Default.Counter("xdr.encode.bytes")
	mDecodeCalls = obs.Default.Counter("xdr.decode.calls")
	// Per-section latency distributions, the VM's contribution to the
	// phase histograms the obs report quantiles.
	mSectionEncode  = obs.Default.Histogram("vm.section.encode")
	mSectionRestore = obs.Default.Histogram("vm.section.restore")
	// Live pre-copy instrumentation: the dirty-set size each delta round
	// observed when it started.
	mDirtyBlocks = obs.Default.Gauge("vm.dirty.blocks")
)

// flushCapture publishes one completed capture's encoder counters: the
// sum over the section encoders' (framing the bodies into a snapshot is
// not counted).
func flushCapture(calls, bytes int) {
	mCaptures.Inc()
	mEncodeCalls.Add(int64(calls))
	mEncodeBytes.Add(int64(bytes))
}

// flushRestore publishes one completed restore's decoder counters.
func flushRestore(calls int) {
	mRestores.Inc()
	mDecodeCalls.Add(int64(calls))
}

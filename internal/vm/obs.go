package vm

import (
	"time"

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
	mDecodeBytes = obs.Default.Counter("xdr.decode.bytes")
	// Whole-operation and per-section latency distributions, the VM's
	// contribution to the phase histograms the obs report quantiles.
	mCaptureLat     = obs.Default.Histogram("vm.capture.latency")
	mRestoreLat     = obs.Default.Histogram("vm.restore.latency")
	mSectionEncode  = obs.Default.Histogram("vm.section.encode")
	mSectionRestore = obs.Default.Histogram("vm.section.restore")
	// Live pre-copy instrumentation: the dirty-set size each delta round
	// observed when it started.
	mDirtyBlocks = obs.Default.Gauge("vm.dirty.blocks")
)

// flushCapture publishes one completed capture's encoder counters: the
// stream encoder's for a monolithic capture, the sum over the section
// encoders' for a sectioned one (framing the bodies into a snapshot is
// not counted).
func flushCapture(calls, bytes int, elapsed time.Duration) {
	mCaptures.Inc()
	mEncodeCalls.Add(int64(calls))
	mEncodeBytes.Add(int64(bytes))
	mCaptureLat.Observe(elapsed)
}

// flushRestore publishes one completed restore's decoder counters.
func flushRestore(calls, bytes int, elapsed time.Duration) {
	mRestores.Inc()
	mDecodeCalls.Add(int64(calls))
	mDecodeBytes.Add(int64(bytes))
	mRestoreLat.Observe(elapsed)
}

package core

import "repro/internal/obs"

// Pre-resolved latency histograms into the default registry: the
// receive-side split of a cold transfer — how long the wire took versus
// how long rebuilding the process took.
var (
	mRxLat      = obs.Default.Histogram("core.rx.latency")
	mRestoreLat = obs.Default.Histogram("core.restore.latency")
)

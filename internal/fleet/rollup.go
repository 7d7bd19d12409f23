package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Metric names the roll-up reads. The daemon side (internal/session,
// fleet.Tracker, Node.Refresh) writes these; keeping the list here makes
// the scraper's contract with the node explicit.
const (
	mAccepted  = "session.accepted"
	mRestored  = "session.restored"
	mFailed    = "session.failed"
	mBytes     = "session.bytes"
	mDuration  = "session.duration"
	mInflight  = "session.inflight"
	mCapacity  = "session.pool.capacity"
	mFailPfx   = "session.fail."
	mSLOSBurn  = "slo.session.burn"
	mUptimeSec = "node.uptime.seconds"
)

// NodeRow is one node's line in the fleet roll-up.
type NodeRow struct {
	Name    string `json:"name"`
	ID      string `json:"id,omitempty"`
	Ready   bool   `json:"ready"`
	Err     string `json:"err,omitempty"`
	UptimeS int64  `json:"uptime_s"`

	Inflight int64 `json:"inflight"`
	Capacity int64 `json:"capacity"`
	Accepted int64 `json:"accepted"`
	Restored int64 `json:"restored"`
	Failed   int64 `json:"failed"`
	Bytes    int64 `json:"bytes"`

	// Windowed rates (per second over the last scrape interval); zero
	// until two rounds have completed.
	AcceptedRate float64 `json:"accepted_rate"`
	FailedRate   float64 `json:"failed_rate"`

	SessionP50US int64 `json:"session_p50_us"`
	SessionP99US int64 `json:"session_p99_us"`

	SLOSessionBurn int64 `json:"slo_session_burn"`
}

// Rollup is the fleet-wide aggregation of one scrape round: per-node
// rows plus exact bucket-wise merges of every node's latency
// distributions.
type Rollup struct {
	At    time.Time `json:"at"`
	Rows  []NodeRow `json:"rows"`
	Nodes int       `json:"nodes"`
	Ready int       `json:"ready"`

	Accepted int64 `json:"accepted"`
	Restored int64 `json:"restored"`
	Failed   int64 `json:"failed"`
	Bytes    int64 `json:"bytes"`
	Inflight int64 `json:"inflight"`
	Capacity int64 `json:"capacity"`

	// Session is the merged session.duration histogram — fleet-wide
	// quantiles, exact because every node shares the compiled bucket
	// layout.
	Session obs.HistogramSnapshot `json:"session"`

	// FailClasses breaks the failures down by session.fail.<class>.
	FailClasses map[string]int64 `json:"fail_classes,omitempty"`

	SLOSessionBurn int64 `json:"slo_session_burn"`
}

// Rollup aggregates the scraper's most recent round. Unreachable nodes
// contribute a row (with Err set) but no metrics.
func (s *Scraper) Rollup() *Rollup {
	r := &Rollup{FailClasses: map[string]int64{}}
	for _, tgt := range s.Targets {
		s.mu.Lock()
		sm, ok := s.last[tgt.Name]
		s.mu.Unlock()
		if !ok {
			continue
		}
		r.Nodes++
		if r.At.Before(sm.At) {
			r.At = sm.At
		}
		row := NodeRow{Name: tgt.Name, Ready: sm.Ready}
		if sm.Err != nil {
			row.Err = sm.Err.Error()
			row.Ready = false
			r.Rows = append(r.Rows, row)
			continue
		}
		if sm.Ready {
			r.Ready++
		}
		if sm.Node != nil {
			row.ID = sm.Node.ID
		}
		m := sm.Metrics
		row.UptimeS = m.Gauges[mUptimeSec]
		row.Inflight = m.Gauges[mInflight]
		row.Capacity = m.Gauges[mCapacity]
		row.Accepted = m.Counters[mAccepted]
		row.Restored = m.Counters[mRestored]
		row.Failed = m.Counters[mFailed]
		row.Bytes = m.Counters[mBytes]
		row.SLOSessionBurn = m.Counters[mSLOSBurn]
		dur := m.Histograms[mDuration]
		row.SessionP50US = dur.P50US
		row.SessionP99US = dur.P99US

		if prev, _, ok := s.Window(tgt.Name); ok && prev.Err == nil {
			if secs := sm.At.Sub(prev.At).Seconds(); secs > 0 {
				w := m.Delta(prev.Metrics)
				row.AcceptedRate = float64(w.Counters[mAccepted]) / secs
				row.FailedRate = float64(w.Counters[mFailed]) / secs
			}
		}

		r.Accepted += row.Accepted
		r.Restored += row.Restored
		r.Failed += row.Failed
		r.Bytes += row.Bytes
		r.Inflight += row.Inflight
		r.Capacity += row.Capacity
		r.SLOSessionBurn += row.SLOSessionBurn
		r.Session = r.Session.Merge(dur)
		for name, v := range m.Counters {
			if cls, ok := strings.CutPrefix(name, mFailPfx); ok && v > 0 {
				r.FailClasses[cls] += v
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// WriteTable renders the roll-up as the migtop table: one row per node,
// then the fleet summary with merged quantiles, fail classes, and SLO
// burn.
func (r *Rollup) WriteTable(w io.Writer) {
	tbl := &stats.Table{
		Headers: []string{"NODE", "READY", "UP", "INFL", "CAP", "ACC", "REST", "FAIL",
			"ACC/S", "P50", "P99", "BURN"},
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			tbl.AddRow(row.Name, "down", "-", "-", "-", "-", "-", "-", "-", "-", "-", row.Err)
			continue
		}
		ready := "yes"
		if !row.Ready {
			ready = "drain"
		}
		tbl.AddRow(row.Name, ready,
			(time.Duration(row.UptimeS) * time.Second).String(),
			row.Inflight, row.Capacity, row.Accepted, row.Restored, row.Failed,
			fmt.Sprintf("%.1f", row.AcceptedRate),
			durUS(row.SessionP50US), durUS(row.SessionP99US),
			row.SLOSessionBurn)
	}
	fmt.Fprint(w, tbl.String())

	fmt.Fprintf(w, "fleet: %d/%d ready  sessions %d accepted / %d restored / %d failed  inflight %d/%d\n",
		r.Ready, r.Nodes, r.Accepted, r.Restored, r.Failed, r.Inflight, r.Capacity)
	fmt.Fprintf(w, "fleet: session p50 %s p99 %s (n=%d)\n",
		durUS(r.Session.P50US), durUS(r.Session.P99US), r.Session.Count)
	if len(r.FailClasses) > 0 {
		classes := make([]string, 0, len(r.FailClasses))
		for c := range r.FailClasses {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprint(w, "fleet: failures")
		for _, c := range classes {
			fmt.Fprintf(w, "  %s=%d", c, r.FailClasses[c])
		}
		fmt.Fprintln(w)
	}
	if r.SLOSessionBurn > 0 {
		fmt.Fprintf(w, "fleet: slo burn  session=%d\n", r.SLOSessionBurn)
	}
}

func durUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

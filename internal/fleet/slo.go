package fleet

import (
	"time"

	"repro/internal/obs"
)

// SLO is a node's per-observation budget targets. A zero target disables
// that budget entirely (no counters are written), so an un-configured
// node exposes no misleading zero burn.
type SLO struct {
	// Session is the budget for one migration session's total wall time
	// (handshake through restore confirmation).
	Session time.Duration
}

// Tracker counts observations against the SLO into a registry:
//
//	slo.session.total / slo.session.burn
//
// Burn is the number of observations that blew their budget — the
// error-budget spend. Both counters are monotonic, so the fleet
// aggregates them the same way it aggregates everything else (sum across
// nodes, delta across scrapes), and burn/total is the burn rate over any
// window.
type Tracker struct {
	SLO     SLO
	Metrics *obs.Registry // nil selects obs.Default
}

func (t *Tracker) metrics() *obs.Registry {
	if t.Metrics != nil {
		return t.Metrics
	}
	return obs.Default
}

// ObserveSession counts one completed session against the session
// budget. Nil-safe; no-op when the budget is disabled.
func (t *Tracker) ObserveSession(d time.Duration) {
	if t == nil {
		return
	}
	t.observe("slo.session", d, t.SLO.Session)
}

func (t *Tracker) observe(name string, d, target time.Duration) {
	if target <= 0 {
		return
	}
	reg := t.metrics()
	reg.Counter(name + ".total").Inc()
	if d > target {
		reg.Counter(name + ".burn").Inc()
	}
}

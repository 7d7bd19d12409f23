package exper

// E16 — fleet telemetry plane: multi-node aggregation fidelity, drain
// semantics, and SLO burn accounting.
//
// Three in-process daemons — each with its own metrics registry, session
// listener, and HTTP telemetry endpoint (the same fleet.Node mux migd
// serves) — take concurrent migrations, including one guaranteed
// negotiation failure per node. A fleet.Scraper then aggregates the
// three /metrics reports over real HTTP exactly the way migtop does, and
// the rows compare the roll-up against ground truth:
//
//   - counts: the aggregated accepted/restored/failed totals must equal
//     both the sum of the per-node rows and the number of sessions the
//     experiment actually drove;
//   - quantiles: the merged session.duration histogram must agree with a
//     single reference registry that observed the identical samples
//     (every OnSessionEnd feeds both) — within one bucket, per the
//     bucket-wise merge contract;
//   - drain: after node 0's Shutdown, its /readyz flips to 503 while
//     /healthz stays 200, and the next scrape round reports the node as
//     draining without losing its metrics;
//   - SLO: a deliberately unmeetable session budget makes every session
//     burn, so the fleet burn counter must equal the driven total;
//   - journal: every daemon journals to one shared sink; the structured
//     record counts must match the driven totals.
//
// Acceptance gate (gateFleet): every Match column true.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/workload"

	"log/slog"
)

// FleetNodeRow is one node's slice of the E16 roll-up, read back through
// the scraper.
type FleetNodeRow struct {
	Name     string `json:"name"`
	Driven   int    `json:"driven"`
	Accepted int64  `json:"accepted"`
	Restored int64  `json:"restored"`
	Failed   int64  `json:"failed"`
	Ready    bool   `json:"ready"`
	BurnSess int64  `json:"slo_session_burn"`
}

// FleetResult is E16's aggregate outcome with one boolean gate per
// telemetry property.
type FleetResult struct {
	Rows   []FleetNodeRow `json:"rows"`
	Driven int            `json:"driven"` // total sessions driven, failures included

	Accepted int64 `json:"accepted"`
	Restored int64 `json:"restored"`
	Failed   int64 `json:"failed"`

	// Merged (scraped, bucket-wise) vs reference (single registry fed the
	// identical samples) session.duration quantiles.
	MergedCount int64 `json:"merged_count"`
	RefCount    int64 `json:"ref_count"`
	MergedP50US int64 `json:"merged_p50_us"`
	RefP50US    int64 `json:"ref_p50_us"`
	MergedP99US int64 `json:"merged_p99_us"`
	RefP99US    int64 `json:"ref_p99_us"`

	FailClasses map[string]int64 `json:"fail_classes"`

	SLOSessionBurn  int64 `json:"slo_session_burn"`
	JournalRestored int   `json:"journal_restored"`
	JournalFailed   int   `json:"journal_failed"`
	DrainReadyAfter int   `json:"drain_ready_after"` // ready nodes on the post-drain scrape

	CountsMatch    bool `json:"counts_match"`
	QuantilesMatch bool `json:"quantiles_match"`
	DrainMatch     bool `json:"drain_match"`
	SLOMatch       bool `json:"slo_match"`
	JournalMatch   bool `json:"journal_match"`
	OK             bool `json:"ok"`
}

// fleetNode is one in-process daemon plus its telemetry endpoint.
type fleetNode struct {
	metrics *obs.Registry
	daemon  *session.Daemon
	served  chan error
	httpSrv *http.Server
	addr    string // telemetry (HTTP) address
	migAddr string // migration (link) address
}

func (n *fleetNode) close() {
	n.daemon.Shutdown()
	<-n.served // zero immediately if the drain step already joined Serve
	n.httpSrv.Close()
}

// Fleet runs E16. perNode successful migrations plus one forced
// negotiation failure are driven into each of three daemons; the scraper
// aggregates them over HTTP and every gate is checked against ground
// truth.
func Fleet(cfg Config) (*FleetResult, error) {
	perNode := 6
	if cfg.Quick {
		perNode = 3
	}
	const nodes = 3

	e, err := core.NewEngine(workload.ShardedListsSource(2, 12), minic.PollPolicy{})
	if err != nil {
		return nil, err
	}
	// A different program the daemons do not register: offering it fails
	// the handshake deterministically (fail class "negotiation").
	stranger, err := core.NewEngine(`int main() { migrate_here(); return 5; }`, minic.PollPolicy{})
	if err != nil {
		return nil, err
	}

	// One reference registry observes the identical elapsed samples the
	// per-node registries observe — the merged histogram must agree with
	// it. One shared journal sink counts structured records fleet-wide.
	refReg := obs.NewRegistry()
	var journal lockedJournal
	jlog := slog.New(slog.NewJSONHandler(&journal, nil))

	var ns []*fleetNode
	defer func() {
		for _, n := range ns {
			n.close()
		}
	}()
	for i := 0; i < nodes; i++ {
		n, err := startFleetNode(e, refReg, jlog)
		if err != nil {
			return nil, err
		}
		ns = append(ns, n)
	}

	// Drive perNode successes and one failure into every node
	// concurrently — the pool gauges and the journal handler are under
	// real contention, as on a busy daemon.
	var wg sync.WaitGroup
	errc := make(chan error, nodes*(perNode+1))
	for _, n := range ns {
		for range perNode {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				if err := fleetMigrate(addr, e, true); err != nil {
					errc <- err
				}
			}(n.migAddr)
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			if err := fleetMigrate(addr, stranger, false); err != nil {
				errc <- err
			}
		}(n.migAddr)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}

	// The client returns once COMMIT is sent; the daemon's counters and
	// journal land moments later. The SLO total is the last per-session
	// write, so it is the barrier.
	for _, n := range ns {
		if err := waitCounter(n.metrics, "slo.session.total", int64(perNode+1)); err != nil {
			return nil, err
		}
	}

	res := &FleetResult{Driven: nodes * (perNode + 1)}

	var targets []fleet.Target
	for _, n := range ns {
		targets = append(targets, fleet.NormalizeTarget(n.addr))
	}
	sc := &fleet.Scraper{Targets: targets}
	sc.Scrape(context.Background())
	r := sc.Rollup()

	var rowSum int64
	for _, row := range r.Rows {
		res.Rows = append(res.Rows, FleetNodeRow{
			Name: row.Name, Driven: perNode + 1,
			Accepted: row.Accepted, Restored: row.Restored, Failed: row.Failed,
			Ready: row.Ready, BurnSess: row.SLOSessionBurn,
		})
		rowSum += row.Accepted
	}
	res.Accepted, res.Restored, res.Failed = r.Accepted, r.Restored, r.Failed
	res.FailClasses = r.FailClasses
	res.CountsMatch = r.Accepted == int64(res.Driven) &&
		rowSum == r.Accepted &&
		r.Restored == int64(nodes*perNode) &&
		r.Failed == nodes &&
		r.FailClasses["negotiation"] == nodes

	ref := refReg.Snapshot().Histograms["session.duration"]
	res.MergedCount, res.RefCount = r.Session.Count, ref.Count
	res.MergedP50US, res.RefP50US = r.Session.P50US, ref.P50US
	res.MergedP99US, res.RefP99US = r.Session.P99US, ref.P99US
	res.QuantilesMatch = r.Session.Count == ref.Count &&
		withinOneBucket(r.Session.P50US, ref.P50US) &&
		withinOneBucket(r.Session.P99US, ref.P99US)

	// SLO: the 1ns budget is unmeetable, so burn must equal the driven
	// total.
	res.SLOSessionBurn = r.SLOSessionBurn
	res.SLOMatch = r.SLOSessionBurn == int64(res.Driven)

	res.JournalRestored, res.JournalFailed = journal.count()
	res.JournalMatch = res.JournalRestored == nodes*perNode && res.JournalFailed == nodes

	// Drain node 0: its migration listener closes and readiness flips,
	// while liveness — and the telemetry endpoint itself — stay up. The
	// next scrape round must report the node draining with its metrics
	// intact.
	readyBefore, healthBefore, err := probeNode(ns[0].addr)
	if err != nil {
		return nil, err
	}
	ns[0].daemon.Shutdown()
	if err := <-ns[0].served; err != nil {
		return nil, fmt.Errorf("exper: fleet node 0 serve: %w", err)
	}
	close(ns[0].served) // the deferred close re-reads it as an immediate zero
	readyAfter, healthAfter, err := probeNode(ns[0].addr)
	if err != nil {
		return nil, err
	}
	sc.Scrape(context.Background())
	r2 := sc.Rollup()
	res.DrainReadyAfter = r2.Ready
	res.DrainMatch = readyBefore && healthBefore &&
		!readyAfter && healthAfter &&
		r2.Ready == nodes-1 && r2.Nodes == nodes &&
		r2.Accepted == r.Accepted

	res.OK = res.CountsMatch && res.QuantilesMatch && res.DrainMatch &&
		res.SLOMatch && res.JournalMatch
	return res, nil
}

// startFleetNode builds one daemon with its own registry, serving
// migrations on a link listener and telemetry on an HTTP listener.
func startFleetNode(e *core.Engine, refReg *obs.Registry, jlog *slog.Logger) (*fleetNode, error) {
	metrics := obs.NewRegistry()
	sreg := session.NewRegistry()
	sreg.Add("prog", e)
	tracker := &fleet.Tracker{SLO: fleet.SLO{Session: time.Nanosecond}, Metrics: metrics}

	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &session.Daemon{
		Registry: sreg, Mach: arch.SPARC20, Metrics: metrics,
		MaxConcurrent: 4,
		Journal:       jlog,
		OnSessionEnd: func(_ session.Info, elapsed time.Duration, _ error) {
			tracker.ObserveSession(elapsed)
			refReg.Histogram("session.duration").Observe(elapsed)
		},
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(l) }()

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, err
	}
	node := fleet.NewNode(arch.SPARC20.Name, hln.Addr().String(), metrics)
	node.Ready = func() bool { return !d.Draining() }
	srv := &http.Server{Handler: node.Mux()}
	go srv.Serve(hln)

	return &fleetNode{
		metrics: metrics, daemon: d, served: served, httpSrv: srv,
		addr: hln.Addr().String(), migAddr: l.Addr().String(),
	}, nil
}

// fleetMigrate drives one client migration to addr. wantOK selects
// whether the session is expected to restore or to be rejected.
func fleetMigrate(addr string, e *core.Engine, wantOK bool) error {
	p, _, err := stopAtMigration(e, arch.DEC5000)
	if err != nil {
		return err
	}
	conn, err := link.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = session.Initiate(conn, e, p.Mach, "prog", p, session.Config{})
	if wantOK && err != nil {
		return fmt.Errorf("exper: fleet migration failed: %w", err)
	}
	if !wantOK && err == nil {
		return fmt.Errorf("exper: fleet migration of unregistered program succeeded")
	}
	return nil
}

// waitCounter polls reg's counter until it reaches want — the barrier
// between client-side completion and the daemon's asynchronous
// bookkeeping.
func waitCounter(reg *obs.Registry, name string, want int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("exper: counter %s = %d, want %d (daemon bookkeeping stalled)",
		name, reg.Counter(name).Value(), want)
}

// probeNode GETs a node's /readyz and /healthz, reporting each as ok/not.
func probeNode(addr string) (ready, healthy bool, err error) {
	for _, p := range []struct {
		path string
		dst  *bool
	}{{"/readyz", &ready}, {"/healthz", &healthy}} {
		resp, gerr := http.Get("http://" + addr + p.path)
		if gerr != nil {
			return false, false, gerr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		*p.dst = resp.StatusCode == http.StatusOK
	}
	return ready, healthy, nil
}

// withinOneBucket reports whether two bucket-quantized microsecond values
// agree to one power-of-two bucket — the merge contract's tolerance.
// (With identical samples they agree exactly; the tolerance keeps the
// gate honest about what bucket-wise merging promises.)
func withinOneBucket(a, b int64) bool {
	if a == b {
		return true
	}
	if a > b {
		a, b = b, a
	}
	return a > 0 && b <= 2*a
}

// lockedJournal is a concurrency-safe journal sink that counts the
// structured lifecycle records written to it.
type lockedJournal struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (j *lockedJournal) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf.Write(p)
}

func (j *lockedJournal) count() (restored, failed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.buf.String()
	return strings.Count(s, `"msg":"session.restored"`),
		strings.Count(s, `"msg":"session.failed"`)
}

// gateFleet is the E16 gate: the scraped roll-up agrees with ground truth
// on every telemetry property.
func gateFleet(r *FleetResult) error {
	if !r.OK {
		return fmt.Errorf("counts=%v quantiles=%v drain=%v slo=%v journal=%v — the scraped roll-up must agree with ground truth",
			r.CountsMatch, r.QuantilesMatch, r.DrainMatch, r.SLOMatch, r.JournalMatch)
	}
	return nil
}

// PrintFleet renders the E16 aggregation-fidelity table and gate
// summary.
func PrintFleet(w io.Writer, r *FleetResult) {
	t := stats.Table{
		Title:   "E16 (fleet): 3-daemon aggregation fidelity, drain semantics, SLO burn",
		Headers: []string{"Node", "Driven", "Acc", "Rest", "Fail", "Ready", "Burn"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Driven, row.Accepted, row.Restored, row.Failed,
			row.Ready, row.BurnSess)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "counts:    driven %d = aggregated %d (restored %d, failed %d, negotiation %d)  match=%v\n",
		r.Driven, r.Accepted, r.Restored, r.Failed, r.FailClasses["negotiation"], r.CountsMatch)
	fmt.Fprintf(w, "quantiles: merged p50 %s p99 %s (n=%d) vs reference p50 %s p99 %s (n=%d)  match=%v\n",
		durUS(r.MergedP50US), durUS(r.MergedP99US), r.MergedCount,
		durUS(r.RefP50US), durUS(r.RefP99US), r.RefCount, r.QuantilesMatch)
	fmt.Fprintf(w, "drain:     node 0 readyz flipped 200 -> 503 with healthz 200; %d/%d ready after  match=%v\n",
		r.DrainReadyAfter, len(r.Rows), r.DrainMatch)
	fmt.Fprintf(w, "slo:       1ns budget burned %d of %d sessions  match=%v\n",
		r.SLOSessionBurn, r.Driven, r.SLOMatch)
	fmt.Fprintf(w, "journal:   %d restored + %d failed structured records  match=%v\n",
		r.JournalRestored, r.JournalFailed, r.JournalMatch)
	fmt.Fprintln(w)
}

func durUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

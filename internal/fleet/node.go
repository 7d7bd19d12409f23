// Package fleet is the telemetry plane above internal/obs: per-node
// identity and health endpoints, the structured slog session journal,
// and the reader over the journals and failed-session dumps that migtop
// prints.
//
// The split mirrors the rest of the tree: internal/session is mechanism
// (it writes one journal record per session and dumps a failed one's span
// tree, and knows nothing about fleets), this package is
// where migd and migtop wire those mechanisms in.
package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Node is one daemon's telemetry identity: the /metrics node header,
// the node.store.* gauges derived on demand, and the
// health endpoints a load balancer or drain controller probes.
type Node struct {
	Info    obs.NodeInfo
	Metrics *obs.Registry
	// Store, when set, feeds the node.store.blobs / node.store.bytes
	// gauges on every refresh.
	Store *store.Store
	// Ready reports readiness; nil means always ready. migd points this
	// at the daemon's drain state so /readyz flips the instant SIGTERM
	// starts the drain while /healthz keeps answering ok.
	Ready func() bool
}

// NewNode mints a node identity: a stable `<hostname>-<8 hex>` ID (fresh
// per process, so a restart is a new node), the process start time, PID,
// and build version. reg (nil = obs.Default) receives the node.store.*
// gauges; machine and addr label the simulated architecture and the
// daemon's listen address.
func NewNode(machine, addr string, reg *obs.Registry) *Node {
	if reg == nil {
		reg = obs.Default
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var suffix [4]byte
	rand.Read(suffix[:])
	n := &Node{
		Info: obs.NodeInfo{
			ID:      host + "-" + hex.EncodeToString(suffix[:]),
			Machine: machine,
			Addr:    addr,
			PID:     os.Getpid(),
			Start:   time.Now(),
			Version: buildVersion(),
		},
		Metrics: reg,
	}
	n.Refresh()
	return n
}

// buildVersion reports the main module's version from the embedded build
// info — "devel" for plain `go build` trees.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// Refresh recomputes the derived gauges: when a store is attached, its
// blob count and bytes. The metrics handler calls this before every
// snapshot so /metrics always reads current values.
func (n *Node) Refresh() *obs.NodeInfo {
	g := n.Metrics
	if n.Store != nil {
		blobs, bytes := n.Store.Usage()
		g.Gauge("node.store.blobs").Set(blobs)
		g.Gauge("node.store.bytes").Set(bytes)
	}
	return &n.Info
}

// ready resolves the readiness hook (nil = ready).
func (n *Node) ready() bool {
	return n.Ready == nil || n.Ready()
}

// Routes registers the node's telemetry endpoints on mux (nil =
// http.DefaultServeMux, so migd's pprof handlers share the same server):
//
//	/metrics  — obs report (JSON with node header)
//	/healthz  — liveness: 200 while the process can serve HTTP at all
//	/readyz   — readiness: 200 "ready", or 503 "draining" once the
//	            daemon has begun its SIGTERM drain
//
// The liveness/readiness split is what lets an orchestrator drain a node
// without restarting it: health stays ok so the process is not killed,
// readiness goes false so no new sessions are routed to it.
func (n *Node) Routes(mux *http.ServeMux) {
	if mux == nil {
		mux = http.DefaultServeMux
	}
	mux.Handle("/metrics", obs.NodeMetricsHandler(n.Metrics, n.Refresh))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !n.ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
}

package session

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// Registry holds the pre-distributed programs a daemon serves, keyed by
// program digest — the paper's "transformed source compiled on every
// potential destination machine", generalized to many programs behind one
// daemon. Beside each program it keeps the fork of the program's last
// committed warm restore (swap), so the next warm session of it restores
// only what changed. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	byDigest map[uint32]registered
	// keep is false for a registry that dies with the session it serves
	// (Transfer's), which no later session restores out of: it keeps no
	// fork.
	keep bool
}

type registered struct {
	engine *core.Engine
	name   string
	kept   *vm.Process // see swap
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byDigest: map[uint32]registered{}, keep: true}
}

// Add registers an engine under a diagnostic name. A later Add with the
// same program digest replaces the earlier entry, and drops its kept fork.
func (r *Registry) Add(name string, e *core.Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byDigest[e.Digest()] = registered{engine: e, name: name}
}

// Lookup resolves a program digest to its engine and name.
func (r *Registry) Lookup(digest uint32) (*core.Engine, string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byDigest[digest]
	return reg.engine, reg.name, ok
}

// swap puts p in the place of the fork kept for e's program — the Fork of
// its last committed warm restore, which its next warm session restores
// into — unless Add replaced e meanwhile, and returns the one it held.
func (r *Registry) swap(e *core.Engine, p *vm.Process) (kept *vm.Process) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg := r.byDigest[e.Digest()]; reg.engine == e {
		kept, reg.kept = reg.kept, p
		r.byDigest[e.Digest()] = reg
	}
	return kept
}

// shell is the process a session of e's program restores into on m: for a
// warm session the kept fork, taken so that a concurrent session finds
// none, when there is one for m; else a new process.
func (r *Registry) shell(e *core.Engine, m *arch.Machine, warm bool) (*vm.Process, error) {
	if warm {
		if p := r.swap(e, nil); p != nil && p.Mach == m {
			return p, nil
		}
	}
	return e.NewProcess(m)
}

// Info identifies one inbound session in diagnostics and callbacks.
type Info struct {
	// ID is the daemon-assigned session number (0 for Respond outside a
	// daemon).
	ID uint64
	// Program is the registry name of the matched program.
	Program string
	// SrcMachine is the machine name the initiator declared.
	SrcMachine string
	// Params is the negotiated outcome.
	Params Params
	// Trace is this side's distributed-trace identity: the trace ID the
	// initiator offered, or one minted here when the offer is missing,
	// unreadable or names none, and this side's own span ID.
	Trace obs.TraceContext
	// Timing is this side's share of the migration: the wire bytes
	// received, and the restore time once the restore finished.
	Timing core.Timing
	// Warm is the account of a warm transfer's round, Live of a live
	// transfer's rounds; nil for the other shapes.
	Warm, Live *Exchange
}

// How names the transfer shape the session negotiated: cold, warm or live.
func (i Info) How() string { return i.Params.How() }

// Respond serves exactly one inbound migration session on t: it reads the
// offer, negotiates against cfg and the registry, receives the state in
// the agreed shape, restores the process on machine m, and confirms with
// RESTORED. It then holds the restored process until the initiator's
// COMMIT arrives, returning it — ready to activate — only once the source
// has provably relinquished; a session that fails before that point
// returns no process, and the initiator rolls its source back instead. A
// program digest the registry does not hold is reported to the peer
// (REJECT) and returned. A committed warm session leaves reg a fork of
// what it restored, which the program's next warm session restores into.
// The Info is the responder's whole account of the session, as far as it
// got: identity, shape, Timing and Exchange.
func Respond(t link.Transport, reg *Registry, m *arch.Machine, cfg Config) (Info, *vm.Process, error) {
	cfg.traceTransport(t)
	info, engine, traced, err := respondHandshake(t, reg, cfg)
	if err != nil {
		return info, nil, err
	}
	shell, err := receive(t, reg, engine, m, cfg, &info)
	if err != nil {
		cfg.Trace.Event("session.fail", "receive/restore: %v", err)
		return info, nil, err
	}
	cfg.observePhase("restore", info.Timing.Restore)
	cfg.Trace.Event("session.restored", "%d bytes restored in %v", info.Timing.Bytes, info.Timing.Restore)
	defer cfg.phase("confirm")()
	// When the initiator traces, ship our exported span tree back on the
	// confirmation so it can stitch the two into one. The export
	// necessarily precedes the send, so the confirm span appears in-flight
	// (near-zero duration) in the shipped tree.
	var spans []byte
	if traced && cfg.Trace != nil {
		spans, _ = json.Marshal(cfg.Trace.Export())
	}
	if err := t.Send(marshalRestored(uint64(info.Timing.Bytes), spans)); err != nil {
		return info, nil, fmt.Errorf("session: restored send: %w", err)
	}
	// Hold the restored process inactive until the initiator commits the
	// handoff. No COMMIT means the initiator never saw RESTORED (or could
	// not answer): it is rolling the source back, so this copy must be
	// discarded — activating both would double the process; activating
	// neither would lose it.
	if _, _, err := recvMessage(t, wire.Commit); err != nil {
		cfg.Trace.Event("session.discard", "no commit after RESTORED; discarding restored process: %v", err)
		return info, nil, err
	}
	cfg.Trace.Event("session.commit", "handoff committed; activating restored process")
	// The next warm session of the program restores into a fork of this
	// shell, taken here, before the process is handed over and runs, and
	// timed as a "fork" child of the confirm span. One that cannot be
	// taken leaves that session to restore from its store.
	if info.Params.Warm && reg.keep {
		span := cfg.Trace.Find("confirm").Child("fork")
		fork, err := shell.Fork()
		span.End()
		if err == nil {
			reg.swap(engine, fork)
			cfg.Trace.Event("session.keep", "kept a fork of the restored shell for the next warm session")
		}
	}
	return info, shell.Process(), nil
}

// respondHandshake reads the OFFER, resolves the program, intersects the
// capabilities, and answers ACCEPT — or REJECT, for a digest the registry
// does not hold. traced reports whether the initiator offered a span to
// stitch this side's tree under.
func respondHandshake(t link.Transport, reg *Registry, cfg Config) (info Info, engine *core.Engine, traced bool, err error) {
	hsStart := time.Now()
	hs := cfg.Trace.Child("handshake")
	defer hs.End()
	msg, _, err := recvMessage(t, wire.Offer)
	// Adopt the initiator's trace: same trace ID, our own span ID,
	// parented under the initiator's session span. A session whose offer
	// is missing, unreadable or names no trace gets a trace of its own, so
	// its journal record and its dump are found by it all the same.
	o := msg.offer
	info.Trace = obs.NewTraceContext()
	if o.traceID != 0 {
		info.Trace.TraceID = o.traceID
	}
	cfg.Trace.SetTraceContext(info.Trace)
	cfg.Trace.SetParentSpan(o.spanID)
	if err != nil {
		return info, nil, false, err
	}
	info.SrcMachine = o.machine
	cfg.Trace.Event("session.offer", "program %q digest %08x from %s trace %s", o.program, o.digest, o.machine, info.Trace)
	engine, name, ok := reg.Lookup(o.digest)
	if !ok {
		err = fmt.Errorf("%w: digest %08x (program %q) not pre-distributed here", ErrUnknownProgram, o.digest, o.program)
		cfg.Trace.Event("session.reject", "%v", err)
		t.Send(marshalReason(wire.Reject, err.Error()))
		return info, nil, false, err
	}
	info.Program, info.Params = name, negotiate(o, cfg)
	cfg.Trace.SetAttr("how", info.How())
	cfg.Trace.SetAttr("program", name)
	cfg.Trace.Event("session.accept", "program %q %s", name, info.How())
	err = t.Send(marshalAccept(info.Params))
	cfg.observePhase("handshake", time.Since(hsStart))
	if err != nil {
		return info, nil, false, fmt.Errorf("session: accept send: %w", err)
	}
	return info, engine, o.spanID != 0, nil
}

// receive accepts the inbound state in the shape info.Params selects and
// restores the process on machine m, filling in info's account.
func receive(t link.Transport, reg *Registry, e *core.Engine, m *arch.Machine, cfg Config, info *Info) (*vm.Restore, error) {
	if info.Params.rounds() {
		return receiveRounds(t, reg, e, m, cfg, info)
	}
	return receiveCold(stream.NewReader(t, stream.Config{}), e, m, cfg.Trace, &info.Timing)
}

// receiveCold restores the process a cold stream carries on machine m,
// consuming the stream as it arrives: every section is decoded straight
// out of the chunk payloads into a vm.Restore — exec first, which pushes
// the frames, then the heap components, frames and globals, each into
// place — with its CRC compared at its trailer. No chunk is joined or
// parsed twice; after the last one only the globals and the FIN remain.
// The phases are children of span (nil disables tracing): "transport" is
// the time spent waiting for chunks, "restore" the sum of the apply steps,
// and tm.Restore the latter; tm.Bytes counts what arrived. A failure
// returns no process.
func receiveCold(r *stream.Reader, e *core.Engine, m *arch.Machine, span *obs.Span, tm *core.Timing) (*vm.Restore, error) {
	p, err := e.NewProcess(m)
	if err != nil {
		return nil, err
	}
	p.Obs = span
	// Every body lands in the process's own memory, so once the restore
	// returns no chunk frame is referenced and the next stream reuses them.
	defer r.Recycle()
	rx, shell := span.Child("transport"), p.NewRestore()
	var waited time.Duration
	var broken error // the stream's own failure, which outranks what a decoder made of it
	in := xdr.NewFeedDecoder(-1, func() ([]byte, error) {
		start := time.Now()
		b, err := obs.PhaseOf("transport", r.Next)
		d := time.Since(start)
		waited += d
		shell.Idle(d)
		if err != nil && err != io.EOF {
			broken = err
		}
		return b, err
	})
	if err = shell.Read(in); err == nil {
		err = shell.Finish()
	}
	tm.Bytes = in.Offset()
	rx.SetBytes(int64(tm.Bytes))
	rx.SetDuration(waited)
	if broken != nil {
		err = broken
	}
	if err != nil {
		return nil, err
	}
	tm.Restore = p.RestoreElapsed()
	return shell, nil
}

// Daemon is the persistent, concurrent migration daemon: an accept loop
// feeding a bounded worker pool, a program registry, per-session IDs and
// timeouts, and graceful drain. Configure the exported fields before
// calling Serve; they must not change afterwards.
type Daemon struct {
	// Registry holds the programs this daemon can restore.
	Registry *Registry
	// Mach is the machine restored processes run on.
	Mach *arch.Machine
	// Config is the daemon's posture: the capabilities it advertises
	// (a checkpoint store, live rounds).
	Config Config
	// MaxConcurrent bounds the worker pool; excess accepted connections
	// wait for a free worker. Zero or negative selects 4.
	MaxConcurrent int
	// Timeout bounds each session's total wall time (handshake through
	// restoration) when the transport supports deadlines. Zero disables.
	Timeout time.Duration
	// Logf receives the per-session span trees (a failed session's always,
	// a successful one's when Trace is set); nil discards them.
	Logf func(format string, args ...any)
	// OnRestored is invoked — concurrently, from the session's worker —
	// with every successfully restored process, and Info.Timing beside it.
	// Typically it runs the process to completion. Nil leaves the process
	// to the counters only.
	OnRestored func(Info, *vm.Process, core.Timing)
	// Metrics receives the daemon's lifecycle counters (session.accepted,
	// session.restored, session.failed, session.bytes, and a
	// session.fail.<class> counter per failure classification), the
	// session.duration end-to-end latency histogram, and the pool gauges
	// (session.inflight, session.pool.capacity). Nil selects obs.Default
	// — the registry /metrics serves.
	Metrics *obs.Registry
	// Journal, when set, receives one structured record per completed
	// session — msg "session.restored" or "session.failed" with session
	// ID, program, peer, negotiated shape, trace ID, byte and
	// duration attributes, and (on failure) the fail class and the dump
	// path. It is the one end-of-session record; nil writes none.
	// Written concurrently from session workers — slog handlers serialize
	// internally.
	Journal *slog.Logger
	// OnSessionEnd, when set, is invoked after every session — restored
	// or failed, before OnRestored runs the process — with the session's
	// Info, its total wall time, and its error (nil on success): the hook
	// a caller that counts or gates sessions attaches to without the
	// session layer depending on it. Called concurrently from session
	// workers.
	OnSessionEnd func(Info, time.Duration, error)
	// Trace logs each successful session's span tree through Logf. Every
	// session runs under its own span tree either way — its phases and
	// events are its one story — and a failed one's is always logged.
	Trace bool
	// TraceDir, when non-empty, is where failed sessions dump their span
	// trees as JSON (flight-<traceID>.json, a fleet.Dump); successful
	// sessions never dump.
	TraceDir string
	// WrapTransport, when set, wraps each accepted connection before the
	// session protocol runs on it — the hook the chaos harness (and any
	// other transport middleware) injects through. Called concurrently.
	WrapTransport func(link.Transport) link.Transport

	nextID   atomic.Uint64
	closing  atomic.Bool
	aborting atomic.Bool
	listener atomic.Pointer[link.Listener]
	wg       sync.WaitGroup

	connMu sync.Mutex
	conns  map[*link.Conn]struct{}
}

// metrics resolves the registry the daemon publishes to, as a session's
// Config does.
func (d *Daemon) metrics() *obs.Registry { return Config{Metrics: d.Metrics}.metrics() }

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Shutdown begins a graceful drain: the accept loop stops, in-flight
// sessions run to completion, and Serve returns once the pool is idle.
// Safe to call from a signal handler goroutine, and more than once.
func (d *Daemon) Shutdown() {
	if d.closing.CompareAndSwap(false, true) {
		if l := d.listener.Load(); l != nil {
			l.Close()
		}
	}
}

// Draining reports whether Shutdown has begun. This is the daemon's
// readiness signal: a draining daemon still answers health checks and
// finishes its in-flight sessions, but routes (/readyz) should stop
// sending it new ones.
func (d *Daemon) Draining() bool { return d.closing.Load() }

// Abort is the hard stop: Shutdown, plus every in-flight session's
// connection is closed under it. In-flight sessions fail with a
// transport-classified error (FailTransport) — never an unclassified one
// — and their initiators roll their sources back; the commit handshake
// guarantees no process is lost or doubled by the cut. Safe from a
// signal handler goroutine (migd aborts on a second SIGTERM), and more
// than once.
func (d *Daemon) Abort() {
	d.Shutdown()
	if !d.aborting.CompareAndSwap(false, true) {
		return
	}
	d.connMu.Lock()
	for conn := range d.conns {
		conn.Close()
	}
	d.connMu.Unlock()
}

// track registers an in-flight session's connection for Abort; it
// reports false — and closes the connection — when the daemon is already
// aborting.
func (d *Daemon) track(conn *link.Conn) bool {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.aborting.Load() {
		conn.Close()
		return false
	}
	if d.conns == nil {
		d.conns = map[*link.Conn]struct{}{}
	}
	d.conns[conn] = struct{}{}
	return true
}

func (d *Daemon) untrack(conn *link.Conn) {
	d.connMu.Lock()
	delete(d.conns, conn)
	d.connMu.Unlock()
}

// Serve accepts migration sessions on l until Shutdown (returning nil once
// drained) or until Accept fails for another reason (returning that
// error). Each session runs on its own worker: handshake, negotiated
// transfer, restoration, and the OnRestored callback, bounded by
// MaxConcurrent in flight at once.
func (d *Daemon) Serve(l *link.Listener) error {
	d.listener.Store(l)
	if d.closing.Load() {
		// Shutdown raced Serve: close the freshly stored listener too.
		l.Close()
	}
	maxc := d.MaxConcurrent
	if maxc <= 0 {
		maxc = 4
	}
	d.metrics().Gauge("session.pool.capacity").Set(int64(maxc))
	sem := make(chan struct{}, maxc)
	for {
		conn, err := l.Accept()
		if err != nil {
			d.wg.Wait()
			if d.closing.Load() {
				return nil
			}
			return err
		}
		d.metrics().Counter("session.accepted").Inc()
		sem <- struct{}{}
		d.wg.Add(1)
		go func() {
			defer func() { <-sem; d.wg.Done() }()
			d.handle(conn)
		}()
	}
}

// handle runs one session to completion on a worker.
func (d *Daemon) handle(conn *link.Conn) {
	id := d.nextID.Add(1)
	defer conn.Close()
	// The in-flight gauge brackets the whole worker — including the
	// failure paths and the OnRestored run — so pool occupancy on
	// /metrics is what a placement policy actually competes with.
	inflight := d.metrics().Gauge("session.inflight")
	inflight.Add(1)
	defer inflight.Add(-1)
	if !d.track(conn) {
		return
	}
	defer d.untrack(conn)
	if d.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(d.Timeout))
	}
	var t link.Transport = conn
	if d.WrapTransport != nil {
		t = d.WrapTransport(conn)
	}
	cfg := d.Config
	cfg.Trace = obs.NewTracer().Start("session")
	cfg.Metrics = d.metrics()
	start := time.Now()
	info, p, err := Respond(t, d.Registry, d.Mach, cfg)
	info.ID = id
	elapsed := time.Since(start)
	reg := d.metrics()
	reg.Histogram("session.duration").Observe(elapsed)
	if err != nil {
		class := ClassifyFailure(err)
		reg.Counter("session.failed").Inc()
		reg.Counter("session.fail." + string(class)).Inc()
		cfg.Trace.Event("session.classify", "%s: %v", class, err)
		cfg.Trace.SetAttr("outcome", string(class))
		cfg.Trace.End()
		tree := cfg.Trace.Export()
		d.logf("session %d trace:\n%s", id, strings.TrimRight(tree.Tree(), "\n"))
		dump := d.dump(fleet.Dump{Schema: fleet.DumpSchema, TraceID: obs.IDString(info.Trace.TraceID),
			Session: id, Outcome: string(class), Error: err.Error(), Tree: tree})
		d.journalSession(info, elapsed, class, dump, err)
		if d.OnSessionEnd != nil {
			d.OnSessionEnd(info, elapsed, err)
		}
		return
	}
	reg.Counter("session.restored").Inc()
	reg.Counter("session.bytes").Add(int64(info.Timing.Bytes))
	cfg.Trace.SetAttr("outcome", "restored")
	cfg.Trace.End()
	if d.Trace && d.Logf != nil {
		d.logf("session %d trace:\n%s", id, strings.TrimRight(cfg.Trace.Export().Tree(), "\n"))
	}
	d.journalSession(info, elapsed, "", "", nil)
	if d.OnSessionEnd != nil {
		d.OnSessionEnd(info, elapsed, nil)
	}
	if d.OnRestored != nil {
		d.OnRestored(info, p, info.Timing)
	}
}

// journalSession writes one fleet.Record for a completed session. The
// record names the session's trace ID and dump, so one command
// (migtop explain, through fleet.Explain) goes from the journal line
// straight to the dump.
func (d *Daemon) journalSession(info Info, elapsed time.Duration, class FailureClass, dump string, cause error) {
	if d.Journal == nil {
		return
	}
	rec := fleet.Record{
		Msg:       "session.restored",
		Session:   info.ID,
		Program:   info.Program,
		Peer:      info.SrcMachine,
		How:       info.How(),
		Bytes:     int64(info.Timing.Bytes),
		ElapsedUS: elapsed.Microseconds(),
		RestoreUS: info.Timing.Restore.Microseconds(),
	}
	if info.Trace.Valid() {
		rec.Trace = obs.IDString(info.Trace.TraceID)
	}
	if info.Live != nil {
		rec.PrecopyRounds = len(info.Live.Rounds)
	}
	if cause != nil {
		rec.Msg, rec.FailClass, rec.Error, rec.Flight = "session.failed", string(class), cause.Error(), dump
	}
	rec.Log(d.Journal)
}

// dump writes a failed session's story to TraceDir as flight-<trace>.json
// and returns its path, which the journal record names ("" when nothing
// was written). Called only on failure, so a successful session pays for
// its tree in memory only.
func (d *Daemon) dump(data fleet.Dump) string {
	if d.TraceDir == "" {
		return ""
	}
	path := filepath.Join(d.TraceDir, "flight-"+data.TraceID+".json")
	b, err := json.MarshalIndent(data, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		d.logf("session %d: dump: %v", data.Session, err)
		return ""
	}
	d.logf("session %d: dumped to %s", data.Session, path)
	return path
}

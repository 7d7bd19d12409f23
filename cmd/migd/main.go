// migd demonstrates real heterogeneous process migration between OS
// processes over TCP, following the paper's workflow: the migratable
// programs are pre-distributed (both sides read the same source files);
// the destination daemon waits for execution and memory states; a source
// process runs until the requested poll-point, collects its state,
// transmits it, and terminates; the daemon restores the state and resumes
// execution from the migration point.
//
// The daemon is persistent and concurrent: it serves many migrations —
// sequential or simultaneous, bounded by -max-concurrent — and many
// pre-distributed programs (-program is repeatable in serve mode), until
// SIGTERM/SIGINT starts a graceful drain.
//
// Destination (start first):
//
//	migd serve -addr 127.0.0.1:7464 -machine sparc20 -program prog.mc -program other.mc
//
// Source:
//
//	migd run -addr 127.0.0.1:7464 -machine dec5000 -program prog.mc -after-polls 3
//
// Each migration opens with a handshake (internal/session) that carries
// identity and capabilities: the client offers its program digest and
// whether it holds a checkpoint store (-store) and runs live rounds
// (-live), and the daemon answers with the capabilities both ends hold,
// which select the transfer shape — cold (a sectioned chunk stream, the
// default), warm or live. Nothing has to be flag-matched across operators:
// cold, warm and live clients can migrate into the same daemon back to
// back or at the same time. -chunk is how the source cuts a cold stream;
// the daemon takes any. -retry and -retry-timeout let the source wait for
// a daemon that has not started listening yet; -session-timeout bounds
// either side's wait on a peer that stops answering.
//
// With -live on both sides the state crosses as pre-copy rounds: the
// source keeps executing while the heap ships, re-sending only dirtied
// sections in iterative rounds (-precopy-rounds, -dirty-threshold tune
// the convergence cutoff), and pauses only for the final one — bounded
// downtime instead of a full stop-and-copy stall. A -live client against
// a daemon without -live (or vice versa) falls back to the ordinary
// transfer.
//
// Every session, on either side, records one story: its span tree, whose
// spans time its phases and carry its events (offer, accept, rounds,
// commit, an injected fault, the failure, the rollback). The daemon writes
// one journal record per session on stderr (-journal-dir also appends it
// to journal-<node-id>.jsonl); a failed session's record carries its tree,
// which is not logged a second time (-trace logs every session's). A
// failed source prints its own tree before it rolls back. migtop reads the
// journals:
//
//	migtop -journals DIR[,DIR...]
//	migtop explain -journals DIR[,DIR...] TRACE-ID
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/vm"
)

// options collects the command line shared by both modes.
type options struct {
	addr           string
	maxSteps       int64
	afterPolls     int
	chunkSize      int
	retries        int
	retryTimeout   time.Duration
	maxConcurrent  int
	sessionTimeout time.Duration
	pprofAddr      string
	trace          bool
	journalDir     string
	nodeID         string
	store          *store.Store
	live           bool
	precopyRounds  int
	dirtyThreshold int
	chaos          *chaos.Spec
}

// namedEngine pairs a compiled engine with its registry name (the program
// file's base name).
type namedEngine struct {
	name   string
	engine *core.Engine
}

// programList is the repeatable -program flag.
type programList []string

func (p *programList) String() string { return strings.Join(*p, ",") }

func (p *programList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	mode := os.Args[1]
	switch mode {
	case "serve", "run":
	case "-h", "-help", "--help", "help":
		usage()
	default:
		// A valid-looking typo gets a diagnostic, not the usage screen.
		fmt.Fprintf(os.Stderr, "migd: unknown mode %q (want \"serve\" or \"run\")\n", mode)
		os.Exit(2)
	}

	fs := flag.NewFlagSet("migd "+mode, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7464", "daemon address")
	machineName := fs.String("machine", "ultra5", "machine this node simulates")
	var programs programList
	fs.Var(&programs, "program", "pre-distributed MigC source file (repeatable in serve mode)")
	afterPolls := fs.Int("after-polls", 1, "run: migrate at the N-th poll-point")
	maxSteps := fs.Int64("max-steps", 4_000_000_000, "statement budget")
	chunkSize := fs.Int("chunk", 0, "run: chunk size in bytes the source cuts a cold transfer's stream into (0: the stream's default, 64 KiB)")
	retries := fs.Int("retry", 0, "run: extra dial attempts while the destination is not listening yet")
	retryTimeout := fs.Duration("retry-timeout", 30*time.Second, "run: give up redialing after this long")
	maxConcurrent := fs.Int("max-concurrent", 4, "serve: migrations handled simultaneously")
	sessionTimeout := fs.Duration("session-timeout", 2*time.Minute, "per-session wall-time bound, handshake through restoration and commit (0 disables)")
	pprofAddr := fs.String("pprof", "", "serve: HTTP address for net/http/pprof and the /metrics JSON endpoint (empty disables)")
	trace := fs.Bool("trace", false, "serve: log every session's span tree, not only a failed one's")
	journalDir := fs.String("journal-dir", "", "serve: also append the session journal (JSONL, one record per session, a failed one's with its span tree) to journal-<nodeID>.jsonl in this directory")
	nodeID := fs.String("node-id", "", "serve: override the minted node identity on /metrics and in the journal")
	storeDir := fs.String("store", "", "checkpoint store directory enabling warm (dedup'd) transfers with store-equipped peers (empty disables)")
	live := fs.Bool("live", false, "offer the live pre-copy path: overlap execution with the transfer, pausing only for the final delta round (falls back when the peer lacks -live)")
	precopyRounds := fs.Int("precopy-rounds", 0, "live: delta rounds before the forced final pause (0 = default)")
	dirtyThreshold := fs.Int("dirty-threshold", 0, "live: pause for the final round once this few blocks are dirty (0 = default)")
	chaosSpec := fs.String("chaos", "",
		"dev: inject a deterministic fault, \"victim@class:n/when\" (e.g. link@restored:1/after-recv; class is a message name from DESIGN.md §8's frame table, and a misspelt one is refused) — kills that party at that protocol boundary to rehearse rollback-or-complete recovery")
	fs.Parse(os.Args[2:])
	var spec *chaos.Spec
	if *chaosSpec != "" {
		sp, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "migd:", err)
			os.Exit(2)
		}
		spec = &sp
	}

	m := lookupMachine(*machineName)
	engines := loadEngines(programs, mode)

	opts := options{
		addr:           *addr,
		maxSteps:       *maxSteps,
		afterPolls:     *afterPolls,
		chunkSize:      *chunkSize,
		retries:        *retries,
		retryTimeout:   *retryTimeout,
		maxConcurrent:  *maxConcurrent,
		sessionTimeout: *sessionTimeout,
		pprofAddr:      *pprofAddr,
		trace:          *trace,
		journalDir:     *journalDir,
		nodeID:         *nodeID,
		live:           *live,
		precopyRounds:  *precopyRounds,
		dirtyThreshold: *dirtyThreshold,
		chaos:          spec,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "migd:", err)
			os.Exit(1)
		}
		opts.store = st
	}
	if mode == "serve" {
		serve(engines, m, opts)
	} else {
		run(engines[0], m, opts)
	}
	if opts.store != nil {
		opts.store.Close()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  migd serve -addr HOST:PORT -machine NAME -program FILE [-program FILE ...]
             [-max-concurrent N] [-session-timeout D]
             [-pprof HOST:PORT] [-trace] [-store DIR]
             [-journal-dir DIR] [-node-id ID]
             [-live] [-chaos SPEC]
  migd run   -addr HOST:PORT -machine NAME -program FILE -after-polls N
             [-chunk N] [-retry N -retry-timeout D] [-session-timeout D]
             [-store DIR] [-live [-precopy-rounds N] [-dirty-threshold N]]
             [-chaos SPEC]`)
	os.Exit(2)
}

// lookupMachine resolves the simulated machine or exits with a diagnostic.
func lookupMachine(name string) *arch.Machine {
	m := arch.Lookup(name)
	if m == nil {
		fmt.Fprintf(os.Stderr, "migd: unknown machine %q\n", name)
		os.Exit(2)
	}
	return m
}

// loadEngines compiles every pre-distributed program — the engine
// construction boilerplate shared by serve and run. run takes exactly one
// program; serve takes one or more.
func loadEngines(paths programList, mode string) []namedEngine {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "migd: -program is required")
		os.Exit(2)
	}
	if mode == "run" && len(paths) > 1 {
		fmt.Fprintln(os.Stderr, "migd: run migrates one program; pass -program once")
		os.Exit(2)
	}
	engines := make([]namedEngine, 0, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "migd:", err)
			os.Exit(1)
		}
		engine, err := core.NewEngine(string(src), minic.DefaultPolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		engines = append(engines, namedEngine{name: filepath.Base(path), engine: engine})
	}
	return engines
}

// sessionConfig builds this side's posture from the flags.
func (o options) sessionConfig() session.Config {
	return session.Config{
		ChunkSize: o.chunkSize, Store: o.store,
		Live: o.live, PrecopyRounds: o.precopyRounds, DirtyThreshold: o.dirtyThreshold,
	}
}

// dialRetry dials the daemon, retrying with backoff while the destination
// is not listening yet (connection refused is expected when the daemon is
// started a moment later).
func dialRetry(addr string, retries int, timeout time.Duration) (*link.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		t, err := link.Dial(addr)
		if err == nil {
			return t, nil
		}
		if attempt >= retries || !time.Now().Before(deadline) {
			return nil, fmt.Errorf(
				"cannot reach destination daemon at %s after %d attempt(s): %v\n"+
					"  start the destination first (migd serve -addr %s -machine NAME -program FILE)\n"+
					"  or let the source wait for it with -retry N [-retry-timeout D]",
				addr, attempt+1, err, addr)
		}
		fmt.Fprintf(os.Stderr, "[migd] destination %s not ready (%v); retrying in %v\n", addr, err, backoff)
		time.Sleep(backoff)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// serve runs the persistent daemon: every inbound connection negotiates a
// session, restores its process, and runs it to completion on a bounded
// worker pool. SIGTERM/SIGINT drains in-flight sessions before exiting.
func serve(engines []namedEngine, m *arch.Machine, o options) {
	l, err := link.Listen(o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	reg := session.NewRegistry()
	names := make([]string, 0, len(engines))
	for _, ne := range engines {
		reg.Add(ne.name, ne.engine)
		names = append(names, fmt.Sprintf("%s(%08x)", ne.name, ne.engine.Digest()))
	}

	// Node identity: the /metrics header, the journal's node attribute,
	// and the derived node.store.* gauges.
	node := fleet.NewNode(m.Name, o.addr, obs.Default)
	if o.nodeID != "" {
		node.Info.ID = o.nodeID
	}
	node.Store = o.store

	// The session journal: one JSON record per session on stderr, plus —
	// with -journal-dir — an append-only JSONL file that survives the
	// process and that migtop reads.
	journal, err := fleet.NewJournal(os.Stderr, o.journalDir, node.Info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	defer journal.Close()
	if journal.Path() != "" {
		fmt.Printf("[migd %s] session journal at %s\n", m.Name, journal.Path())
	}

	d := &session.Daemon{
		Registry:      reg,
		Mach:          m,
		Config:        o.sessionConfig(),
		MaxConcurrent: o.maxConcurrent,
		Timeout:       o.sessionTimeout,
		Trace:         o.trace,
		Journal:       journal,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[migd %s] %s\n", m.Name, fmt.Sprintf(format, args...))
		},
		OnRestored: func(info session.Info, p *vm.Process, timing core.Timing) {
			fmt.Printf("[migd %s] session %d: restored %q (%d bytes in %.4fs); resuming\n",
				m.Name, info.ID, info.Program, timing.Bytes, timing.Restore.Seconds())
			if x := cmp.Or(info.Warm, info.Live); x != nil {
				fmt.Printf("[migd %s] session %d: %s transfer: %s\n", m.Name, info.ID, info.How(), x)
			}
			p.Stdout = os.Stdout
			p.MaxSteps = o.maxSteps
			res, err := p.Run()
			if err != nil {
				fmt.Fprintf(os.Stderr, "[migd %s] session %d: %v\n", m.Name, info.ID, err)
				return
			}
			fmt.Printf("[migd %s] session %d: process completed with exit code %d\n",
				m.Name, info.ID, res.ExitCode)
		},
	}

	// Readiness follows the drain: the moment SIGTERM starts it, /readyz
	// flips to 503 while /healthz keeps answering ok, so an orchestrator
	// stops routing to this node without restarting it.
	node.Ready = func() bool { return !d.Draining() }

	if o.pprofAddr != "" {
		// Diagnostics endpoint: net/http/pprof registers its handlers on
		// http.DefaultServeMux at import; the node's telemetry routes
		// (/metrics with the node header, /healthz, /readyz) share it.
		node.Routes(nil)
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "[migd %s] pprof endpoint: %v\n", m.Name, err)
			}
		}()
		fmt.Printf("[migd %s] pprof, /metrics, /healthz, /readyz on http://%s (node %s)\n",
			m.Name, o.pprofAddr, node.Info.ID)
	}

	if o.chaos != nil {
		// Every accepted session gets its own armed injector wrapping its
		// transport; the fault, when it fires, is a chaos.inject event in
		// that session's tree, logged and journalled with it.
		spec := *o.chaos
		d.WrapTransport = func(t link.Transport) link.Transport { return chaos.New(spec).Dest(t) }
		fmt.Printf("[migd %s] CHAOS armed: %s\n", m.Name, spec)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "[migd %s] %v: draining in-flight sessions (again to abort)\n", m.Name, s)
		d.Shutdown()
		s = <-sigc
		// The second signal is the hard stop: cut every in-flight
		// session's connection. Each fails with a classified transport
		// error and its initiator rolls its source back.
		fmt.Fprintf(os.Stderr, "[migd %s] %v: aborting in-flight sessions\n", m.Name, s)
		d.Abort()
	}()

	fmt.Printf("[migd %s] serving %s on %s (max %d concurrent)\n",
		m.Name, strings.Join(names, ", "), l.Addr(), o.maxConcurrent)
	if err := d.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	count := func(name string) int64 { return obs.Default.Counter("session." + name).Value() }
	fmt.Printf("[migd %s] drained: accepted=%d restored=%d failed=%d bytes=%d\n",
		m.Name, count("accepted"), count("restored"), count("failed"), count("bytes"))
	if snap := obs.Default.Snapshot().String(); snap != "" {
		fmt.Printf("[migd %s] metrics:\n%s", m.Name, snap)
	}
}

// run executes the program locally until the N-th poll-point, then
// migrates it to the daemon through a negotiated session.
func run(ne namedEngine, m *arch.Machine, o options) {
	p, err := ne.engine.NewProcess(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	p.Stdout = os.Stdout
	p.MaxSteps = o.maxSteps
	// >= rather than ==: the live driver resumes the source between delta
	// rounds, and every poll after the N-th must pause again to bound the
	// round. A stop-and-copy run only ever reaches the N-th.
	var polls atomic.Int64
	p.PollHook = func(*vm.Process, *minic.Site) bool {
		return polls.Add(1) >= int64(o.afterPolls)
	}
	res, err := p.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	if !res.Migrated {
		fmt.Printf("[migd %s] process completed locally with exit code %d (no migration)\n",
			m.Name, res.ExitCode)
		os.Exit(res.ExitCode)
	}

	conn, err := dialRetry(o.addr, o.retries, o.retryTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd:", err)
		os.Exit(1)
	}
	defer conn.Close()
	// The same bound the daemon puts on its side: a peer that accepts and
	// then stops answering fails the session, and the failure path below
	// rolls the paused source back instead of stranding it.
	if o.sessionTimeout > 0 {
		conn.SetDeadline(time.Now().Add(o.sessionTimeout))
	}
	var t link.Transport = conn
	if o.chaos != nil {
		t = chaos.New(*o.chaos).Source(t)
		fmt.Printf("[migd %s] CHAOS armed: %s\n", m.Name, *o.chaos)
	}
	// The source records its side of the session — phases and events, an
	// injected fault among them — and prints it if the migration fails.
	// Its tree is the trace the daemon's stitches under.
	cfg := o.sessionConfig()
	tr := obs.NewTracer()
	cfg.Trace = tr.Start("migration")
	sres, err := session.Initiate(t, ne.engine, m, ne.name, p, cfg)
	if errors.Is(err, session.ErrSourceExited) {
		// The program finished between pre-copy rounds: nothing left to
		// migrate. Not a failure — report it like a local completion.
		fmt.Printf("[migd %s] process completed locally during pre-copy (no migration needed)\n", m.Name)
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "migd: migration failed:", err)
		// The migration did not happen, so this side still owns the
		// process: roll it back and run it to completion locally instead
		// of stranding it paused (or losing it by exiting).
		p.PollHook = nil
		rres, rerr := session.Rollback(p, cfg)
		cfg.Trace.End()
		fmt.Fprintf(os.Stderr, "[migd %s] session trace:\n%s", m.Name, tr.Tree())
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "migd: rollback failed:", rerr)
			os.Exit(1)
		}
		fmt.Printf("[migd %s] rolled back: process completed locally with exit code %d\n",
			m.Name, rres.ExitCode)
		os.Exit(rres.ExitCode)
	}
	how := sres.Params.How()
	if x := cmp.Or(sres.Warm, sres.Live); x != nil {
		how = fmt.Sprintf("%s, %s", how, x)
	}
	fmt.Printf("[migd %s] migrated %d bytes (%s; collect %.4fs, tx %.4fs); terminating\n",
		m.Name, sres.Timing.Bytes, how, sres.Timing.Collect.Seconds(), sres.Timing.Tx.Seconds())
}

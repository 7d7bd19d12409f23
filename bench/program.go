package main

// program.go is the only file of the benchmark that imports the program
// under test. Everything the harness does to the migration system goes
// through the functions here, so the surface a later change may not break
// without editing the benchmark is readable in one place (see README.md,
// "Program surface").

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// The paper's heterogeneous pair: a little-endian source, a big-endian
// destination.
var (
	srcMachine = arch.DEC5000
	dstMachine = arch.SPARC20
)

// sessionTimeout bounds one inbound session on the daemon and how long the
// harness waits for the daemon's verdict on an op.
const sessionTimeout = 60 * time.Second

// workloadSpec is one benchmark workload: a generated MigC program and the
// transfer path it is migrated over.
type workloadSpec struct {
	name string
	// source generates the program from the seed; quick selects the tiny
	// input the catalog test runs.
	source func(seed int64, quick bool) string
	// warm gives both ends a checkpoint store (HAVE/WANT path); live selects
	// the pre-copy path.
	warm, live bool
	// advances marks programs that reach another migrate_here() when
	// resumed: between ops the source runs one mutation round.
	advances bool
}

// mutationLists is the heap shard count of the warm and live programs; the
// seed picks how many of the lists are rewritten before the first op.
const mutationLists = 16

var workloadSpecs = []workloadSpec{
	{
		name: "cold_array",
		source: func(_ int64, quick bool) string {
			if quick {
				return workload.LinpackSource(48, false)
			}
			return workload.LinpackSource(768, false)
		},
	},
	{
		name: "cold_pointer",
		source: func(seed int64, quick bool) string {
			if quick {
				return workload.BitonicSource(256, int(seed))
			}
			return workload.BitonicSource(16384, int(seed))
		},
	},
	{
		name: "warm_mutated",
		source: func(_ int64, quick bool) string {
			if quick {
				return workload.MutatingShardsSource(mutationLists, 12, 1<<30)
			}
			return workload.MutatingShardsSource(mutationLists, 750, 1<<30)
		},
		warm: true, advances: true,
	},
	{
		name: "live_writer",
		source: func(_ int64, quick bool) string {
			if quick {
				return workload.WriteRateSource(mutationLists, 12, 2, 1<<30)
			}
			return workload.WriteRateSource(mutationLists, 750, 2, 1<<30)
		},
		live: true, advances: true,
	},
}

// subject is one workload set up for migration: the compiled program, the
// source process paused at a poll point, the destination's registry and,
// on the warm path, both stores.
type subject struct {
	spec  workloadSpec
	seed  int64
	quick bool
	dir   string // scratch directory for stores; removed by teardown

	eng      *core.Engine
	reg      *session.Registry
	src      *vm.Process
	srcStore *store.Store
	dstStore *store.Store
	srv      *server

	// respLog receives the responder-side frame events of the op in flight
	// when the serving daemon was started with a tap.
	respLog atomic.Pointer[frameLog]

	compile time.Duration
}

// server is one in-process daemon on a loopback listener.
type server struct {
	d        *session.Daemon
	addr     string
	done     chan error
	outcomes chan outcome
}

// outcome is the daemon's verdict on one session: the restored process, or
// why there is none.
type outcome struct {
	q       *vm.Process
	restore time.Duration
	err     error
}

func (s *subject) initiatorConfig() session.Config {
	cfg := session.Config{Store: s.srcStore}
	if s.spec.live {
		cfg.Live = true
		cfg.PrecopyRounds = 4
		cfg.DirtyThreshold = 4
	}
	return cfg
}

// serve starts a daemon restoring on the destination machine. tap wraps
// every accepted connection with a frame tap feeding respLog; programTrace
// turns the program's own per-session tracing on.
func (s *subject) serve(tap, programTrace bool) (*server, error) {
	ln, err := link.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := &server{
		addr: ln.Addr().String(),
		done: make(chan error, 1),
		// One connection at a time, one verdict per connection.
		outcomes: make(chan outcome, 1),
	}
	sv.d = &session.Daemon{
		Registry:      s.reg,
		Mach:          dstMachine,
		Config:        session.Config{Store: s.dstStore, Live: s.spec.live},
		MaxConcurrent: 1,
		Timeout:       sessionTimeout,
		Trace:         programTrace,
		OnSessionEnd: func(_ session.Info, _ time.Duration, err error) {
			if err != nil {
				sv.outcomes <- outcome{err: err}
			}
		},
		OnRestored: func(_ session.Info, q *vm.Process, t core.Timing) {
			sv.outcomes <- outcome{q: q, restore: t.Restore}
		},
	}
	if tap {
		sv.d.WrapTransport = func(t link.Transport) link.Transport {
			if l := s.respLog.Load(); l != nil {
				return &tappedTransport{inner: t, log: l}
			}
			return t
		}
	}
	go func() { sv.done <- sv.d.Serve(ln) }()
	return sv, nil
}

// stop drains the daemon: the listener closes, the in-flight session (there
// is none between ops) finishes, Serve returns.
func (sv *server) stop() error {
	sv.d.Shutdown()
	return <-sv.done
}

// setup builds the subject from nothing — compile, stores, daemon, a run of
// the program to its first poll point, the seed's mutation rounds and one
// priming migration — and returns how long that took.
func (s *subject) setup() (time.Duration, error) {
	start := time.Now()
	eng, err := core.NewEngine(s.spec.source(s.seed, s.quick), minic.PollPolicy{})
	if err != nil {
		return 0, fmt.Errorf("compile: %w", err)
	}
	s.compile = time.Since(start)
	s.eng = eng
	s.reg = session.NewRegistry()
	s.reg.Add(s.spec.name, eng)
	if s.spec.warm {
		if s.srcStore, err = store.Open(filepath.Join(s.dir, "src"), nil); err != nil {
			return 0, err
		}
		if s.dstStore, err = store.Open(filepath.Join(s.dir, "dst"), nil); err != nil {
			return 0, err
		}
	}
	if s.srv, err = s.serve(false, false); err != nil {
		return 0, err
	}
	p, err := eng.NewProcess(srcMachine)
	if err != nil {
		return 0, err
	}
	// Stop at every poll without capturing: the process stays paused and
	// resumable, so the same source is migrated again and again.
	p.NoAutoCapture = true
	p.PollHook = func(*vm.Process, *minic.Site) bool { return true }
	res, err := p.Run()
	if err != nil {
		return 0, fmt.Errorf("run to first poll: %w", err)
	}
	if !res.Migrated {
		return 0, fmt.Errorf("program exited (code %d) before its first poll", res.ExitCode)
	}
	s.src = p
	if s.spec.advances {
		for i := int64(0); i < s.seed%mutationLists; i++ {
			if err := s.advance(); err != nil {
				return 0, err
			}
		}
	}
	// The priming migration fills the destination store on the warm path
	// and faults in every code path once.
	op := s.migrate(s.srv, nil, false)
	if op.err != nil {
		return 0, fmt.Errorf("priming migration: %w", op.err)
	}
	if err := s.verify(op.q); err != nil {
		return 0, fmt.Errorf("priming migration: %w", err)
	}
	return time.Since(start), nil
}

// teardown drains the daemon and removes the stores.
func (s *subject) teardown() error {
	var err error
	if s.srv != nil {
		err = s.srv.stop()
		s.srv = nil
	}
	s.src, s.eng, s.srcStore, s.dstStore = nil, nil, nil, nil
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// advance resumes the paused source to its next migrate_here().
func (s *subject) advance() error {
	res, err := s.src.ResumeRun()
	if err != nil {
		return fmt.Errorf("resume source: %w", err)
	}
	if !res.Migrated {
		return fmt.Errorf("source exited (code %d) instead of reaching its next poll", res.ExitCode)
	}
	return nil
}

// opResult is what one migration produced.
type opResult struct {
	t        opTimes
	err      error
	q        *vm.Process // the restored process, handed back by the daemon
	wire     int
	downtime time.Duration
	collect  time.Duration
	restore  time.Duration
	// Live and warm path outcomes (zero elsewhere).
	liveRounds, liveFinalBytes, warmSectionsSent int
}

// migrate runs one op: dial, negotiate and transfer the paused source, wait
// for RESTORED and COMMIT, close. tap, when set, records the initiator's
// frames; programTrace turns the program's own span tree on for this
// session. The daemon's verdict is collected after the timed interval.
func (s *subject) migrate(sv *server, tap *frameLog, programTrace bool) opResult {
	cfg := s.initiatorConfig()
	if programTrace {
		cfg.Trace = obs.NewTracer().Start("migration")
	}
	var r opResult
	r.t.start = time.Now()
	conn, err := link.Dial(sv.addr)
	r.t.dialed = time.Now()
	if err != nil {
		r.t.initiated, r.t.end = r.t.dialed, r.t.dialed
		r.err = fmt.Errorf("dial: %w", err)
		return r
	}
	var t link.Transport = conn
	if tap != nil {
		t = &tappedTransport{inner: conn, log: tap}
	}
	var res *session.Result
	if s.spec.live {
		res, err = session.InitiateLive(t, s.eng, srcMachine, s.spec.name, s.src, cfg)
	} else {
		res, err = session.Initiate(t, s.eng, srcMachine, s.spec.name, s.src, cfg)
	}
	r.t.initiated = time.Now()
	conn.Close()
	r.t.end = time.Now()
	cfg.Trace.End()

	var o outcome
	patience := time.NewTimer(sessionTimeout + 5*time.Second)
	select {
	case o = <-sv.outcomes:
	case <-patience.C:
		o.err = errors.New("daemon reported no outcome for the session")
	}
	patience.Stop()
	switch {
	case err != nil:
		r.err = fmt.Errorf("initiate: %w", err)
	case o.err != nil:
		r.err = fmt.Errorf("respond: %w", o.err)
	}
	if r.err != nil {
		return r
	}
	r.q, r.restore = o.q, o.restore
	r.wire = res.Timing.Bytes
	r.collect = res.Timing.Collect
	r.downtime = r.t.end.Sub(r.t.start)
	if res.Live != nil {
		r.downtime = res.Live.Downtime
		r.liveRounds = len(res.Live.Rounds)
		r.liveFinalBytes = res.Live.Rounds[len(res.Live.Rounds)-1].Bytes
	}
	if res.Warm != nil {
		r.warmSectionsSent = res.Warm.SectionsSent
	}
	return r
}

// verify is the correctness oracle: the restored process, re-collected on
// the destination machine, must yield the same machine-independent stream
// as the paused source re-collected where it stands.
func (s *subject) verify(q *vm.Process) error {
	want, err := s.src.Recapture()
	if err != nil {
		return fmt.Errorf("recapture source: %w", err)
	}
	got, err := q.Recapture()
	if err != nil {
		return fmt.Errorf("recapture restored process: %w", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("restored state differs from the source (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// stateBytes is the size of the source's machine-independent state.
func (s *subject) stateBytes() (int, error) {
	b, err := s.src.Recapture()
	return len(b), err
}

// layerCounts are the program's own public counters the traced pass reads
// as per-op deltas.
type layerCounts struct {
	xdrEncodeCalls, xdrEncodeBytes, xdrDecodeCalls int64
	chunks, retransmits, storeWritten              int64
}

func readCounts() layerCounts {
	c := func(name string) int64 { return obs.Default.Counter(name).Value() }
	return layerCounts{
		xdrEncodeCalls: c("xdr.encode.calls"), xdrEncodeBytes: c("xdr.encode.bytes"),
		xdrDecodeCalls: c("xdr.decode.calls"),
		chunks:         c("stream.tx.chunks"), retransmits: c("stream.tx.retransmits"),
		storeWritten: c("store.bytes.written"),
	}
}

func (c layerCounts) sub(o layerCounts) layerCounts {
	return layerCounts{c.xdrEncodeCalls - o.xdrEncodeCalls, c.xdrEncodeBytes - o.xdrEncodeBytes,
		c.xdrDecodeCalls - o.xdrDecodeCalls, c.chunks - o.chunks, c.retransmits - o.retransmits,
		c.storeWritten - o.storeWritten}
}

func (c layerCounts) add(o layerCounts) layerCounts {
	return layerCounts{c.xdrEncodeCalls + o.xdrEncodeCalls, c.xdrEncodeBytes + o.xdrEncodeBytes,
		c.xdrDecodeCalls + o.xdrDecodeCalls, c.chunks + o.chunks, c.retransmits + o.retransmits,
		c.storeWritten + o.storeWritten}
}

// readAckRTT snapshots the stream layer's acknowledgement round-trip
// histogram; ackRTTp50us is its median since an earlier snapshot.
func readAckRTT() obs.HistogramSnapshot { return obs.Default.Histogram("stream.ack.rtt").Snapshot() }

func ackRTTp50us(prev obs.HistogramSnapshot) float64 {
	d := readAckRTT().Delta(prev)
	if d.Count == 0 {
		return 0
	}
	return float64(d.Quantile(0.5)) / float64(time.Microsecond)
}

// timeMedian runs f reps times and returns the median duration in
// milliseconds.
func timeMedian(reps int, f func() error) (float64, error) {
	v := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(start)))
	}
	return median(v), nil
}

func mbPerS(n int, millis float64) float64 {
	if millis <= 0 {
		return 0
	}
	return float64(n) / 1e6 / (millis / 1e3)
}

// probes measures single layers by calling their public functions directly
// on the paused source and its captured snapshot. reps is the repetition
// count behind each median.
func (s *subject) probes(reps int) (map[string]float64, error) {
	m := map[string]float64{"core.compile_ms": ms(s.compile)}
	p := s.src

	// vm + collect: the three capture shapes.
	var snap []byte
	var err error
	if m["vm.capture_mono_ms"], err = timeMedian(reps, func() (err error) { _, err = p.Recapture(); return }); err != nil {
		return nil, err
	}
	save := p.CaptureStats().Save
	m["collect.blocks_saved"] = float64(save.Blocks)
	m["collect.pointers_saved"] = float64(save.Pointers)
	m["collect.msrlt_searches"] = float64(save.Searches)
	m["collect.search_steps"] = float64(save.SearchSteps)
	m["collect.data_bytes"] = float64(save.DataBytes)
	if save.Blocks > 0 {
		m["collect.ns_per_block"] = m["vm.capture_mono_ms"] * 1e6 / float64(save.Blocks)
	}
	if m["vm.capture_sections_ms"], err = timeMedian(reps, func() (err error) { snap, err = p.CaptureSections(0); return }); err != nil {
		return nil, err
	}
	if m["vm.capture_sections_serial_ms"], err = timeMedian(reps, func() (err error) { _, err = p.CaptureSections(1); return }); err != nil {
		return nil, err
	}

	// vm restore, pooled and serial, on the destination machine.
	var restored *vm.Process
	restore := func(workers int) func() error {
		return func() error {
			q, err := s.eng.NewProcess(dstMachine)
			if err != nil {
				return err
			}
			q.RestoreWorkers = workers
			restored = q
			return q.RestoreInto(snap)
		}
	}
	if m["vm.restore_sections_serial_ms"], err = timeMedian(reps, restore(1)); err != nil {
		return nil, err
	}
	if m["vm.restore_sections_ms"], err = timeMedian(reps, restore(0)); err != nil {
		return nil, err
	}

	// msr: address -> (block, ordinal) on the source table, and back on the
	// restored one, over every block's first and last scalar.
	blocks := p.Table.Blocks()
	m["msr.blocks"] = float64(p.Table.Len())
	refs := make([]msr.Ref, 0, 2*len(blocks))
	addrs := make([]memory.Address, 0, 2*len(blocks))
	for _, b := range blocks {
		for _, ord := range []int{0, b.ScalarCount() - 1} {
			r := msr.Ref{ID: b.ID, Ordinal: ord}
			a, err := msr.AddrOf(p.Table, p.Mach, r)
			if err != nil {
				return nil, fmt.Errorf("msr.AddrOf %v: %w", r, err)
			}
			refs, addrs = append(refs, r), append(addrs, a)
		}
	}
	perCall := func(f func() error) (float64, error) {
		t, err := timeMedian(reps, f)
		return t * 1e6 / float64(len(refs)), err
	}
	if m["msr.resolve_ns"], err = perCall(func() error {
		for _, a := range addrs {
			if _, err := msr.Resolve(p.Table, p.Mach, a); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if m["msr.addrof_ns"], err = perCall(func() error {
		for _, r := range refs {
			if _, err := msr.AddrOf(restored.Table, restored.Mach, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// memory: raw reads of every registered block.
	read := 0
	t, err := timeMedian(reps, func() error {
		read = 0
		for _, b := range blocks {
			n := b.Size(b.Type.SizeOf(p.Mach))
			if _, err := p.Space.ReadBytes(b.Addr, n); err != nil {
				return err
			}
			read += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["memory.read_mb_per_s"] = mbPerS(read, t)

	// snapshot: section framing with CRC verification, and back.
	var secs []snapshot.Section
	if m["snapshot.decode_ms"], err = timeMedian(reps, func() error {
		r, err := snapshot.NewReader(xdr.NewDecoder(snap))
		if err != nil {
			return err
		}
		secs, err = r.ReadAll()
		return err
	}); err != nil {
		return nil, err
	}
	m["snapshot.sections"] = float64(len(secs))
	if m["snapshot.encode_ms"], err = timeMedian(reps, func() error {
		if !bytes.Equal(snapshot.Encode(secs), snap) {
			return errors.New("snapshot.Encode does not reproduce the captured snapshot")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// link and stream: the captured snapshot over a fresh loopback pair.
	if err := s.probeWire(m, snap, reps); err != nil {
		return nil, err
	}

	// vm live rounds + memory dirty tracking: a full round, one mutation
	// round of the program (none on the cold programs, which never poll
	// again), then the delta round.
	lc := p.NewLiveCapture(0)
	full, err := lc.Round()
	if err != nil {
		lc.Close()
		return nil, err
	}
	m["vm.live_round_full_ms"] = ms(full.Elapsed)
	if s.spec.advances {
		if err := s.advance(); err != nil {
			lc.Close()
			return nil, err
		}
	}
	scanStart := time.Now()
	dirty := lc.DirtyBlocks()
	m["memory.dirty_scan_us"] = float64(time.Since(scanStart)) / float64(time.Microsecond)
	m["memory.dirty_blocks_per_round"] = float64(dirty)
	delta, err := lc.Round()
	lc.Close()
	if err != nil {
		return nil, err
	}
	m["vm.live_round_delta_ms"] = ms(delta.Elapsed)

	// store: a scratch store that already holds the pre-mutation snapshot
	// takes the post-mutation one (1 of 16 heap sections new on the
	// mutating programs, none new on the cold ones).
	if err := s.probeStore(m, snap, delta.Snapshot(), reps); err != nil {
		return nil, err
	}
	return m, nil
}

// probeWire measures the link and stream layers alone: payload as one
// frame, a 64-byte ping-pong, and payload through the chunk stream.
func (s *subject) probeWire(m map[string]float64, payload []byte, reps int) error {
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		return err
	}
	defer cleanup()
	echo := func(f func() error) error {
		errc := make(chan error, 1)
		go func() { errc <- f() }()
		_, rerr := srv.Recv()
		if rerr == nil {
			rerr = srv.Send(nil)
		}
		if err := <-errc; err != nil {
			return err
		}
		return rerr
	}
	t, err := timeMedian(reps, func() error {
		return echo(func() error {
			if err := cli.Send(payload); err != nil {
				return err
			}
			_, err := cli.Recv()
			return err
		})
	})
	if err != nil {
		return err
	}
	m["link.frame_mb_per_s"] = mbPerS(len(payload), t)

	const pings = 200
	small := make([]byte, 64)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < pings*reps; i++ {
			b, err := srv.Recv()
			if err == nil {
				err = srv.Send(b)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	t, err = timeMedian(reps, func() error {
		for i := 0; i < pings; i++ {
			if err := cli.Send(small); err != nil {
				return err
			}
			if _, err := cli.Recv(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := <-errc; err != nil {
		return err
	}
	m["link.small_frame_rtt_us"] = t * 1e3 / pings

	t, err = timeMedian(reps, func() error {
		errc := make(chan error, 1)
		go func() {
			got, err := stream.NewReader(srv, stream.Config{}).ReadAll()
			if err == nil && len(got) != len(payload) {
				err = fmt.Errorf("stream delivered %d of %d bytes", len(got), len(payload))
			}
			errc <- err
		}()
		w := stream.NewWriter(cli, stream.Config{})
		_, werr := w.Write(payload)
		if cerr := w.Close(); werr == nil {
			werr = cerr
		}
		if err := <-errc; err != nil {
			return err
		}
		return werr
	})
	if err != nil {
		return err
	}
	m["stream.push_mb_per_s"] = mbPerS(len(payload), t)
	return nil
}

// probeStore measures the checkpoint store alone, in a scratch store under
// the subject's directory.
func (s *subject) probeStore(m map[string]float64, before, after []byte, reps int) error {
	var ckpt, mat, missing []float64
	var stats store.CheckpointStats
	for i := 0; i < reps; i++ {
		dir := filepath.Join(s.dir, fmt.Sprintf("probe-%d", i))
		st, err := store.Open(dir, nil)
		if err != nil {
			return err
		}
		if _, _, _, err := st.CheckpointRef("probe", before, s.eng.Digest(), srcMachine.Name); err != nil {
			return err
		}
		empty, err := store.Open(filepath.Join(dir, "empty"), nil)
		if err != nil {
			return err
		}
		start := time.Now()
		man, h, cst, err := st.CheckpointRef("probe", after, s.eng.Digest(), srcMachine.Name)
		if err != nil {
			return err
		}
		ckpt = append(ckpt, ms(time.Since(start)))
		stats = cst
		start = time.Now()
		got, err := st.Materialize(h)
		if err != nil {
			return err
		}
		mat = append(mat, ms(time.Since(start)))
		if !bytes.Equal(got, after) {
			return errors.New("store.Materialize does not reproduce the checkpointed snapshot")
		}
		start = time.Now()
		if n := len(empty.Missing(man)); n != len(man.Entries) {
			return fmt.Errorf("empty store misses %d of %d sections", n, len(man.Entries))
		}
		missing = append(missing, float64(time.Since(start))/float64(time.Microsecond))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	m["store.checkpoint_ms"] = median(ckpt)
	m["store.materialize_ms"] = median(mat)
	m["store.missing_us"] = median(missing)
	if stats.SnapshotBytes > 0 {
		m["store.dedup_ratio"] = float64(stats.DedupedBytes) / float64(stats.SnapshotBytes)
	}
	return nil
}

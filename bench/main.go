// Command bench is the repository's migration benchmark: real migrations
// over loopback TCP between an in-process daemon and one closed-loop client,
// reported as end-to-end metrics (tracing off) and, from a separate traced
// pass, per-layer metrics measured from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// timedRounds is fixed: a shorter budget shortens the rounds, never their
	// number, so the median of round medians keeps its meaning.
	timedRounds = 6
	// oracleEvery is the spacing of correctness checks inside a round, on top
	// of its first and last op.
	oracleEvery = 16
	// setupRepeats is how many times a run sets the subject up from nothing;
	// setup_s is their median.
	setupRepeats = 5
	// calibPerOp units of reference work follow every op: about 3 ms against
	// ops of 50-170 ms.
	calibPerOp = 3
)

// plan is how one run spends its time, per workload.
type plan struct {
	quick     bool
	setups    int
	warmup    time.Duration
	rounds    int
	round     time.Duration
	traced    bool
	benchSpan time.Duration // slice with the benchmark's own transport taps on
	progSpan  time.Duration // slice with the program's own tracing on
	probeReps int
}

// newPlan splits seconds of measuring into six timed rounds and, when traced,
// the two traced slices, in the proportions of the default run (6 x 5 s of
// rounds, 5 s of benchmark spans, 3 s of program tracing).
func newPlan(seconds float64, traced, quick bool) plan {
	if quick {
		d := 150 * time.Millisecond
		return plan{quick: true, setups: 1, warmup: d / 3, rounds: 1, round: d,
			traced: traced, benchSpan: d, progSpan: d, probeReps: 1}
	}
	p := plan{setups: setupRepeats, warmup: 2 * time.Second, rounds: timedRounds, traced: traced, probeReps: 5}
	total := time.Duration(seconds * float64(time.Second))
	if !traced {
		p.round = total / timedRounds
		return p
	}
	p.round = total * 30 / 38 / timedRounds
	p.benchSpan = total * 5 / 38
	p.progSpan = total * 3 / 38
	return p
}

// roundStats is one timed round.
type roundStats struct {
	opMs, downMs, wire []float64
	timed              time.Duration // sum of op times
	speed              float64       // the round's speed factor
	proc               procDelta
}

// runner drives one workload through set-up, warm-up, timed rounds and the
// traced pass, and accumulates what the result reports.
type runner struct {
	sub   *subject
	plan  plan
	cal   *calibrator
	trace traceLog

	setupS     []float64
	rounds     []roundStats
	attempted  int
	failed     int
	oracle     int
	failures   []string // first few failure messages, for the report
	stateBytes int
	layer      map[string]float64
	nextOp     int
}

// sliceKind selects what is switched on around the ops of one slice.
type sliceKind int

const (
	slicePlain   sliceKind = iota // nothing: warm-up and timed rounds
	sliceBench                    // the benchmark's transport taps
	sliceProgram                  // the program's own tracing
)

// opRecord is one op of a slice with what was observed around it.
type opRecord struct {
	res    opResult
	phases phases
	cut    bool // phases holds a complete cut
	counts layerCounts
}

// sliced is what one slice produced: its ops and the reference work timed
// between them.
type sliced struct {
	recs  []opRecord
	calMs []float64
}

// opMs returns the times of the slice's successful ops.
func (s sliced) opMs() []float64 {
	var v []float64
	for _, rec := range s.recs {
		if rec.res.err == nil {
			v = append(v, ms(rec.res.t.end.Sub(rec.res.t.start)))
		}
	}
	return v
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// slice runs ops back to back for d against sv. The first and last op and
// every oracleEvery-th between are checked by the oracle; failures are
// counted and the slice goes on. A returned error is one the harness cannot
// continue past.
func (r *runner) slice(d time.Duration, sv *server, kind sliceKind) (sliced, error) {
	var s sliced
	start := time.Now()
	for i := 0; ; i++ {
		var tap *frameLog
		if kind == sliceBench {
			tap = &frameLog{}
		}
		rec := r.op(sv, tap, kind == sliceProgram)
		last := time.Since(start) >= d
		r.account(&rec, i == 0 || i%oracleEvery == 0 || last)
		s.recs = append(s.recs, rec)
		var err error
		if s.calMs, err = r.cal.sample(s.calMs, calibPerOp); err != nil {
			return s, err
		}
		if r.sub.spec.advances {
			if err := r.sub.advance(); err != nil {
				return s, err
			}
		}
		if last {
			return s, nil
		}
	}
}

// op runs one migration. With a tap, both ends of the connection are
// recorded, the op is cut into phases and its span tree is kept.
func (r *runner) op(sv *server, tap *frameLog, programTrace bool) opRecord {
	r.nextOp++
	var rec opRecord
	if tap == nil {
		rec.res = r.sub.migrate(sv, nil, programTrace)
		return rec
	}
	responder := &frameLog{}
	r.sub.respLog.Store(responder)
	before := readCounts()
	rec.res = r.sub.migrate(sv, tap, programTrace)
	rec.counts = readCounts().sub(before)
	r.sub.respLog.Store(nil)
	events := tap.snapshot()
	var bounds [5]time.Time
	rec.phases, bounds, rec.cut = cutPhases(rec.res.t, events)
	if rec.cut {
		r.trace.addOp(r.nextOp, rec.res.t, bounds, events, responder.snapshot())
	}
	return rec
}

// account counts one op: attempted, failed when the migration errored, and
// when check is set failed also when the oracle rejects the restored
// process. The restored process is dropped afterwards.
func (r *runner) account(rec *opRecord, check bool) {
	r.attempted++
	switch {
	case rec.res.err != nil:
		r.fail("op %d: %v", r.nextOp, rec.res.err)
	case check:
		r.oracle++
		if err := r.sub.verify(rec.res.q); err != nil {
			rec.res.err = err
			r.fail("op %d: %v", r.nextOp, err)
		}
	}
	rec.res.q = nil
}

func (r *runner) setup(outDir string) error {
	for i := 0; i < r.plan.setups; i++ {
		if i > 0 {
			if err := r.sub.teardown(); err != nil {
				return err
			}
		}
		dir, err := os.MkdirTemp(outDir, "store-"+r.sub.spec.name+"-")
		if err != nil {
			return err
		}
		r.sub.dir = dir
		d, err := r.sub.setup()
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, d.Seconds())
	}
	var err error
	r.stateBytes, err = r.sub.stateBytes()
	return err
}

func (r *runner) warmup() error {
	attempted, failed, oracle := r.attempted, r.failed, r.oracle
	_, err := r.slice(r.plan.warmup, r.sub.srv, slicePlain)
	// Warm-up ops are discarded from the counts, but a failure in them
	// stays counted: it is a failure of the program.
	r.attempted, r.oracle = attempted+(r.failed-failed), oracle
	return err
}

func (r *runner) timedRound() error {
	before := readProc()
	s, err := r.slice(r.plan.round, r.sub.srv, slicePlain)
	if err != nil {
		return err
	}
	rs := roundStats{proc: readProc().sub(before), speed: speedFactor(s.calMs)}
	for _, rec := range s.recs {
		if rec.res.err != nil {
			continue
		}
		d := rec.res.t.end.Sub(rec.res.t.start)
		rs.timed += d
		rs.opMs = append(rs.opMs, ms(d))
		rs.downMs = append(rs.downMs, ms(rec.res.downtime))
		rs.wire = append(rs.wire, float64(rec.res.wire))
	}
	r.rounds = append(r.rounds, rs)
	return nil
}

// pooled returns a per-op series over every timed round.
func (r *runner) pooled(pick func(roundStats) []float64) []float64 {
	var v []float64
	for _, rs := range r.rounds {
		v = append(v, pick(rs)...)
	}
	return v
}

// tracedPass produces the per-layer metrics: a slice with the benchmark's
// taps on both ends of the connection, a slice with the program's own
// tracing on, and the direct-call probes.
func (r *runner) tracedPass() error {
	m := map[string]float64{}
	// The untraced reference of both overhead figures: the timed rounds'
	// median op time, scaled like the traced slices' to the reference host
	// so that host drift between the slices is not read as overhead.
	var roundP50 []float64
	var calAll []float64
	for _, rs := range r.rounds {
		if len(rs.opMs) > 0 {
			roundP50 = append(roundP50, median(rs.opMs)*rs.speed)
			calAll = append(calAll, calibNominalMs/rs.speed)
		}
	}
	timedP50 := median(roundP50)
	m["bench.calibration_ms"] = median(calAll)

	ackBefore := readAckRTT()
	sv, err := r.sub.serve(true, false)
	if err != nil {
		return err
	}
	tapped, err := r.slice(r.plan.benchSpan, sv, sliceBench)
	if serr := sv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	m["stream.ack_rtt_us_p50"] = ackRTTp50us(ackBefore)

	var ph []phases
	var collect, restore, liveRounds, liveFinal, warmSent []float64
	var counts layerCounts
	for _, rec := range tapped.recs {
		if rec.res.err != nil || !rec.cut {
			continue
		}
		ph = append(ph, rec.phases)
		collect = append(collect, ms(rec.res.collect))
		restore = append(restore, ms(rec.res.restore))
		liveRounds = append(liveRounds, float64(rec.res.liveRounds))
		liveFinal = append(liveFinal, float64(rec.res.liveFinalBytes))
		warmSent = append(warmSent, float64(rec.res.warmSectionsSent))
		counts = counts.add(rec.counts)
		// The initiator's own byte count cannot exceed what crossed the
		// tapped transport.
		if rec.res.wire > rec.phases.sentBytes {
			r.fail("initiator reports %d wire bytes, transport saw %d", rec.res.wire, rec.phases.sentBytes)
		}
	}
	if len(ph) == 0 {
		return fmt.Errorf("%s: traced slice completed no migration", r.sub.spec.name)
	}
	col := func(pick func(phases) float64) []float64 {
		v := make([]float64, len(ph))
		for i, p := range ph {
			v[i] = pick(p)
		}
		return v
	}
	m["link.dial_ms"] = median(col(func(p phases) float64 { return p.dial }))
	m["link.send_busy_ms"] = median(col(func(p phases) float64 { return p.sendBusy }))
	m["link.recv_wait_ms"] = median(col(func(p phases) float64 { return p.recvWait }))
	m["link.sent_bytes_per_migration"] = mean(col(func(p phases) float64 { return float64(p.sentBytes) }))
	m["session.handshake_ms"] = median(col(func(p phases) float64 { return p.handshake }))
	m["session.send_phase_ms"] = median(col(func(p phases) float64 { return p.sendPhase }))
	m["session.tail_wait_ms"] = median(col(func(p phases) float64 { return p.tailWait }))
	m["session.commit_ms"] = median(col(func(p phases) float64 { return p.commit }))
	m["session.frames_per_migration"] = mean(col(func(p phases) float64 { return float64(p.frames) }))
	m["session.unattributed_pct"] = median(col(func(p phases) float64 { return 100 * p.unattributed / p.total }))
	m["session.migrate_ms_p90"] = percentile(r.pooled(func(rs roundStats) []float64 { return rs.opMs }), 90)
	m["session.live_rounds"] = mean(liveRounds)
	m["session.live_final_bytes"] = mean(liveFinal)
	m["session.warm_sections_sent"] = mean(warmSent)
	m["vm.collect_ms"] = median(collect)
	m["vm.restore_ms"] = median(restore)
	n := float64(len(ph))
	m["stream.chunks_per_migration"] = float64(counts.chunks) / n
	m["stream.retransmits_per_migration"] = float64(counts.retransmits) / n
	m["xdr.encode_calls_per_migration"] = float64(counts.xdrEncodeCalls) / n
	m["xdr.encode_bytes_per_migration"] = float64(counts.xdrEncodeBytes) / n
	m["xdr.decode_calls_per_migration"] = float64(counts.xdrDecodeCalls) / n
	m["store.bytes_written_per_migration"] = float64(counts.storeWritten) / n
	m["bench.trace_overhead_pct"] = 100 * (median(tapped.opMs())*speedFactor(tapped.calMs) - timedP50) / timedP50

	if sv, err = r.sub.serve(false, true); err != nil {
		return err
	}
	traced, err := r.slice(r.plan.progSpan, sv, sliceProgram)
	if serr := sv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	m["obs.program_trace_overhead_pct"] = 100 * (median(traced.opMs())*speedFactor(traced.calMs) - timedP50) / timedP50

	var ops float64
	var proc procDelta
	for _, rs := range r.rounds {
		ops += float64(len(rs.opMs))
		proc = proc.add(rs.proc)
	}
	m["proc.cpu_ms_per_migration"] = ms(proc.cpu) / ops
	m["proc.alloc_mb_per_migration"] = float64(proc.allocBytes) / 1e6 / ops
	m["proc.allocs_per_migration"] = float64(proc.allocs) / ops
	m["proc.gc_cycles_per_migration"] = float64(proc.gcCycles) / ops
	m["proc.heap_peak_mb"] = float64(readProc().heapSys) / 1e6

	pm, err := r.sub.probes(r.plan.probeReps)
	if err != nil {
		return fmt.Errorf("%s: layer probes: %w", r.sub.spec.name, err)
	}
	for k, v := range pm {
		m[k] = v
	}
	r.layer = m
	return nil
}

// procSample is the process-wide resource reading taken around each round.
type procSample struct {
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	heapSys    uint64
}

type procDelta = procSample

func readProc() procSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := procSample{allocBytes: mem.TotalAlloc, allocs: mem.Mallocs, gcCycles: mem.NumGC, heapSys: mem.HeapSys}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func (s procSample) sub(prev procSample) procDelta {
	return procDelta{cpu: s.cpu - prev.cpu, allocBytes: s.allocBytes - prev.allocBytes,
		allocs: s.allocs - prev.allocs, gcCycles: s.gcCycles - prev.gcCycles}
}

func (s procDelta) add(o procDelta) procDelta {
	return procDelta{cpu: s.cpu + o.cpu, allocBytes: s.allocBytes + o.allocBytes,
		allocs: s.allocs + o.allocs, gcCycles: s.gcCycles + o.gcCycles}
}

// value is one reported metric. For an end-to-end metric Value is scaled to
// the reference host (calib.go), Raw is the same statistic as the clock read
// it, and Rounds holds the scaled per-round values -compare reads the spread
// from.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Raw    float64   `json:"raw,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Why          string           `json:"why,omitempty"`
	Samples      int              `json:"samples"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	FailedOpsPct float64          `json:"failed_ops_pct"`
	OracleChecks int              `json:"oracle_checks"`
	StateBytes   int              `json:"state_bytes"`
	Failures     []string         `json:"failures,omitempty"`
	EndToEnd     map[string]value `json:"end_to_end"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
}

type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
}

// result is result.json: what one run of the harness measured.
type result struct {
	Schema       string                    `json:"schema"`
	Seed         int64                     `json:"seed"`
	Rounds       int                       `json:"rounds"`
	RoundSeconds float64                   `json:"round_seconds"`
	Quick        bool                      `json:"quick,omitempty"`
	Host         hostInfo                  `json:"host"`
	Workloads    map[string]workloadResult `json:"workloads"`
}

func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report folds the runner's rounds into the end-to-end metrics.
func (r *runner) report(why string) workloadResult {
	w := workloadResult{
		Why: why, Attempted: r.attempted, Failed: r.failed, OracleChecks: r.oracle,
		StateBytes: r.stateBytes, Failures: r.failures,
		EndToEnd: map[string]value{},
	}
	if r.attempted > 0 {
		w.FailedOpsPct = 100 * float64(r.failed) / float64(r.attempted)
	}
	// Per-round statistics, as measured and scaled to the reference host.
	var op, down, rate, wire, opRaw, downRaw, rateRaw []float64
	for _, rs := range r.rounds {
		w.Samples += len(rs.opMs)
		if len(rs.opMs) == 0 {
			continue
		}
		perS := float64(len(rs.opMs)) / rs.timed.Seconds()
		opRaw = append(opRaw, median(rs.opMs))
		downRaw = append(downRaw, median(rs.downMs))
		rateRaw = append(rateRaw, perS)
		op = append(op, median(rs.opMs)*rs.speed)
		down = append(down, median(rs.downMs)*rs.speed)
		rate = append(rate, perS/rs.speed)
		wire = append(wire, mean(rs.wire))
	}
	put := func(name string, v, raw float64, rounds []float64) {
		for _, d := range endToEndDefs {
			if d.Name == name {
				w.EndToEnd[name] = value{Value: v, Unit: d.Unit, Raw: raw, Rounds: rounds}
			}
		}
	}
	put("migrate_ms_p50", median(op), median(opRaw), op)
	put("downtime_ms_p50", median(down), median(downRaw), down)
	put("migrations_per_s", median(rate), median(rateRaw), rate)
	wireMean := mean(r.pooled(func(rs roundStats) []float64 { return rs.wire }))
	put("wire_bytes_per_migration", wireMean, wireMean, wire)
	// Set-up is not scaled: reference work timed around it tracked its drift
	// no better than chance (README.md, "Noise policy").
	put("setup_s", median(r.setupS), median(r.setupS), r.setupS)
	if r.layer != nil {
		w.PerLayer = map[string]value{}
		for _, d := range perLayerDefs {
			w.PerLayer[d.Name] = value{Value: r.layer[d.Name], Unit: d.Unit}
		}
	}
	return w
}

// run measures the given workloads with their rounds interleaved, so a noisy
// stretch on a shared host lands on every workload alike.
func run(specs []workloadSpec, seed int64, p plan, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	why := map[string]string{}
	if c, err := loadCatalog(); err == nil {
		for _, w := range c.Workloads {
			why[w.Name] = w.Why
		}
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	epoch := time.Now()
	runners := make([]*runner, len(specs))
	for i, spec := range specs {
		runners[i] = &runner{sub: &subject{spec: spec, seed: seed, quick: p.quick}, plan: p, cal: cal, trace: traceLog{epoch: epoch}}
	}
	// Whatever happens, leave no goroutine, daemon, listener or store behind.
	defer func() {
		for _, r := range runners {
			r.sub.teardown()
		}
		cal.close()
	}()
	each := func(step string, f func(*runner) error) error {
		for _, r := range runners {
			if err := f(r); err != nil {
				return fmt.Errorf("%s: %s: %w", r.sub.spec.name, step, err)
			}
		}
		return nil
	}
	if err := each("set-up", func(r *runner) error { return r.setup(outDir) }); err != nil {
		return nil, err
	}
	if err := each("warm-up", (*runner).warmup); err != nil {
		return nil, err
	}
	for i := 0; i < p.rounds; i++ {
		if err := each(fmt.Sprintf("round %d", i+1), (*runner).timedRound); err != nil {
			return nil, err
		}
	}
	if p.traced {
		if err := each("traced pass", (*runner).tracedPass); err != nil {
			return nil, err
		}
	}
	res := &result{
		Schema: "repro-bench/1", Seed: seed, Rounds: p.rounds, RoundSeconds: p.round.Seconds(),
		Quick: p.quick, Host: readHost(), Workloads: map[string]workloadResult{},
	}
	for _, r := range runners {
		res.Workloads[r.sub.spec.name] = r.report(why[r.sub.spec.name])
		if p.traced {
			doc := struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
				Spans    []span `json:"spans"`
			}{r.sub.spec.name, seed, r.trace.spans}
			if err := writeJSON(filepath.Join(outDir, "trace-"+r.sub.spec.name+".json"), doc, false); err != nil {
				return nil, err
			}
		}
	}
	if err := each("tear-down", func(r *runner) error { return r.sub.teardown() }); err != nil {
		return nil, err
	}
	return res, writeJSON(filepath.Join(outDir, "result.json"), res, true)
}

func writeJSON(path string, v any, indent bool) error {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the one-object summary the benchmark driver reads from the
// last line of standard output.
func driverLine(w workloadResult, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	src := w.EndToEnd
	if traced {
		src = w.PerLayer
	}
	for k, v := range src {
		metrics[k] = metric{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print the driver's one-line result (default: all four, interleaved, traced)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: bitonic's data, and how many mutation rounds warm/live advance before the first op")
	seconds := fs.Float64("seconds", 38, "seconds of measuring per workload: six timed rounds, plus the traced slices when tracing")
	trace := fs.Int("trace", 1, "0: timed rounds only, end-to-end metrics; 1: add the traced pass, per-layer metrics")
	quick := fs.Bool("quick", false, "tiny inputs, one 0.15 s round: the catalog test's mode")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	out := fs.String("out", "out", "directory for result.json, traces and scratch stores")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	specs := workloadSpecs
	if *workload != "" {
		specs = nil
		for _, s := range workloadSpecs {
			if s.name == *workload {
				specs = []workloadSpec{s}
			}
		}
		if specs == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
	}
	res, err := run(specs, *seed, newPlan(*seconds, *trace != 0, *quick), *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *workload == "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(b))
	} else {
		line, err := driverLine(res.Workloads[*workload], *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	for name, w := range res.Workloads {
		if w.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed: %s\n", name, w.Failed, w.Attempted, strings.Join(w.Failures, "; "))
		}
	}
	return 0
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

func keys[V any](m map[string]V) []string {
	k := make([]string, 0, len(m))
	for name := range m {
		k = append(k, name)
	}
	sort.Strings(k)
	return k
}

func names(defs []metricDef) []string {
	k := make([]string, len(defs))
	for i, d := range defs {
		k[i] = d.Name
	}
	sort.Strings(k)
	return k
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCatalog runs the whole harness on tiny inputs and holds what it emits
// against BENCHMARK.json: every workload and metric named there is emitted
// and nothing else is.
func TestCatalog(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res, err := run(workloadSpecs, 1, newPlan(0, true, true), out)
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(cat.Workloads) != 4 || len(cat.EndToEnd) > 16 || len(cat.PerLayer) > 128 {
		t.Errorf("catalog holds %d workloads, %d end-to-end and %d per-layer metrics; want 4, <= 16, <= 128",
			len(cat.Workloads), len(cat.EndToEnd), len(cat.PerLayer))
	}
	var catWorkloads []string
	for _, w := range cat.Workloads {
		catWorkloads = append(catWorkloads, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	sort.Strings(catWorkloads)
	if got := keys(res.Workloads); !sameStrings(got, catWorkloads) {
		t.Errorf("workloads emitted %v, catalog names %v", got, catWorkloads)
	}

	var catE2E []metricDef
	sawSetup := false
	for _, d := range cat.EndToEnd {
		catE2E = append(catE2E, d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("catalog lacks setup_s in s, lower is better")
	}
	for _, pair := range []struct {
		kind     string
		cat, own []metricDef
	}{{"end_to_end", catE2E, endToEndDefs}, {"per_layer", cat.PerLayer, perLayerDefs}} {
		byName := map[string]metricDef{}
		for _, d := range pair.own {
			byName[d.Name] = d
		}
		for _, d := range pair.cat {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s metric %q: bad name", pair.kind, d.Name)
			}
			if own, ok := byName[d.Name]; ok && own != d {
				t.Errorf("%s metric %s: catalog says %+v, harness emits %+v", pair.kind, d.Name, d, own)
			}
		}
		if c, o := names(pair.cat), names(pair.own); !sameStrings(c, o) {
			t.Errorf("%s metrics: catalog %v, harness %v", pair.kind, c, o)
		}
	}

	for name, w := range res.Workloads {
		if got := keys(w.EndToEnd); !sameStrings(got, names(endToEndDefs)) {
			t.Errorf("%s emits end-to-end metrics %v", name, got)
		}
		if got := keys(w.PerLayer); !sameStrings(got, names(perLayerDefs)) {
			t.Errorf("%s emits per-layer metrics %v", name, got)
		}
		for _, k := range keys(w.EndToEnd) {
			if v := w.EndToEnd[k].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v; an end-to-end metric is never 0", name, k, v)
			}
		}
		if w.Failed != 0 || w.Samples == 0 || w.OracleChecks < 2 {
			t.Errorf("%s: %d failed of %d attempted, %d samples, %d oracle checks: %v",
				name, w.Failed, w.Attempted, w.Samples, w.OracleChecks, w.Failures)
		}
		if u := w.PerLayer["session.unattributed_pct"].Value; math.IsNaN(u) || u < 0 || u > 50 {
			t.Errorf("%s: session.unattributed_pct = %v", name, u)
		}
		if down, total := w.EndToEnd["downtime_ms_p50"].Value, w.EndToEnd["migrate_ms_p50"].Value; (down < total) != (name == "live_writer") {
			t.Errorf("%s: downtime %v ms, migration %v ms", name, down, total)
		}

		// The driver's one-line form holds exactly one of the two sets.
		for traced, want := range map[bool][]metricDef{false: endToEndDefs, true: perLayerDefs} {
			line, err := driverLine(w, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted < 1 || !sameStrings(keys(got.Metrics), names(want)) {
				t.Errorf("%s driver line (trace %v): %s", name, traced, line)
			}
		}

		// The span tree on disk: children inside parents, self-times >= 0.
		b, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s: empty trace", name)
		}
		for id, self := range selfTimes(doc.Spans) {
			if self < 0 {
				t.Errorf("%s: span %d (%s) has self-time %d ns", name, id, doc.Spans[id-1].Name, self)
			}
		}
	}

	// The run leaves only its result and traces behind: no store directory.
	left, err := filepath.Glob(filepath.Join(out, "store-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch stores left behind: %v (%v)", left, err)
	}
}

// TestCorruptedFrameCountsAsFailed flips one payload byte of a state-bearing
// frame on every path. The program must reject the transfer, the harness
// must count the op failed — not panic, not pass — and the paused source
// must migrate cleanly afterwards.
func TestCorruptedFrameCountsAsFailed(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			r := &runner{sub: &subject{spec: spec, seed: 1, quick: true, dir: t.TempDir()}, trace: traceLog{epoch: time.Now()}}
			if _, err := r.sub.setup(); err != nil {
				t.Fatal(err)
			}
			defer r.sub.teardown()

			// Frame 1 is the OFFER; frame 2 is the first to carry state.
			rec := r.op(r.sub.srv, &frameLog{flipSend: 2}, false)
			r.account(&rec, true)
			if r.attempted != 1 || r.failed != 1 {
				t.Fatalf("corrupted op: attempted %d, failed %d, err %v", r.attempted, r.failed, rec.res.err)
			}
			t.Logf("rejected with: %v", rec.res.err)

			rec = r.op(r.sub.srv, &frameLog{}, false)
			r.account(&rec, true)
			if r.attempted != 2 || r.failed != 1 {
				t.Fatalf("clean op after the fault: attempted %d, failed %d: %v", r.attempted, r.failed, r.failures)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 || median([]float64{1, 2}) != 1.5 {
		t.Error("percentile edge cases")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{58, 61, 57, 70, 66, 59}, 57.75, 67},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 140, 70, 100, 150, 60}
	for _, c := range []struct {
		name           string
		better         string
		parent, change float64
		rounds         []float64
		want           string
	}{
		{"within bound", "lower", 100, 108, steady, verdictOK},
		{"slower beyond bound", "lower", 100, 115, steady, verdictRegressed},
		{"faster", "lower", 100, 50, steady, verdictOK},
		{"throughput down", "higher", 10, 8, steady, verdictRegressed},
		{"throughput up", "higher", 10, 12, steady, verdictOK},
		{"noise wider than bound", "lower", 100, 115, noisy, verdictUnresolved},
		{"beyond bound and noise", "lower", 100, 200, noisy, verdictRegressed},
	} {
		if _, got := judge(c.better, 0.10, c.parent, c.change, c.rounds, c.rounds); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCutPhases cuts a synthetic cold migration: OFFER/ACCEPT, two chunks
// with an ack received while the second is being sent, RESTORED, COMMIT.
func TestCutPhases(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := []frameEvent{
		{send: true, start: at(2), end: at(3), bytes: 100},    // OFFER
		{start: at(3), end: at(5), bytes: 20},                 // ACCEPT
		{send: true, start: at(6), end: at(10), bytes: 1000},  // chunk
		{start: at(6), end: at(12), bytes: 8},                 // ack, concurrent
		{send: true, start: at(10), end: at(14), bytes: 1000}, // chunk
		{start: at(14), end: at(30), bytes: 16},               // RESTORED
		{send: true, start: at(30), end: at(31), bytes: 8},    // COMMIT
	}
	times := opTimes{start: at(0), dialed: at(1), initiated: at(32), end: at(33)}
	p, bounds, ok := cutPhases(times, ev)
	if !ok {
		t.Fatal("no cut")
	}
	want := phases{dial: 1, handshake: 3, sendPhase: 9, tailWait: 16, commit: 2, close: 1,
		total: 33, unattributed: 1, sendBusy: 10, recvWait: 24, frames: 7, sentBytes: 2108}
	if p != want {
		t.Errorf("phases\n got %+v\nwant %+v", p, want)
	}

	l := traceLog{epoch: t0}
	l.addOp(1, times, bounds, ev, []frameEvent{{start: at(2), end: at(3), bytes: 100}, {send: true, start: at(29), end: at(30), bytes: 16}})
	self := selfTimes(l.spans)
	byName := map[string]int64{}
	for _, s := range l.spans {
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Errorf("span %d has parent %d", s.ID, s.Parent)
		}
		if self[s.ID] < 0 {
			t.Errorf("span %d (%s): self-time %d", s.ID, s.Name, self[s.ID])
		}
		byName[s.Name] += self[s.ID]
	}
	// Send phase 5..14 ms: covered 6..14 by the union of its three frames.
	if got := byName["session.send_phase"]; got != int64(time.Millisecond) {
		t.Errorf("send phase self-time %d ns, want 1 ms", got)
	}
	// The op's own self-time is the unattributed gap: here the responder
	// span lies inside the phases' cover.
	if got := byName["op"]; got != int64(time.Millisecond) {
		t.Errorf("op self-time %d ns, want 1 ms", got)
	}

	if _, _, ok := cutPhases(times, ev[:2]); ok {
		t.Error("a handshake alone is not a complete migration")
	}
}

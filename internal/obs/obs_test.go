package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.Start("root")
	if s != nil {
		t.Fatalf("nil tracer produced a span")
	}
	// Every span method must be callable on nil without effect.
	c := s.Child("child")
	if c != nil {
		t.Fatalf("nil span produced a child")
	}
	s.End()
	s.SetBytes(5)
	s.SetSection("heap", 1)
	s.SetAttr("k", "v")
	s.SetDuration(time.Second)
	if s.Name() != "" || s.Children() != nil {
		t.Fatalf("nil span reported state")
	}
	if s.Find("x") != nil || s.Export() != nil {
		t.Fatalf("nil span exported data")
	}
	if tr.Roots() != nil || tr.Tree() != "" || tr.Export() != nil {
		t.Fatalf("nil tracer exported data")
	}
}

func TestSpanNestingAndExport(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("session")
	root.SetAttr("version", "3")
	enc := root.Child("encode")
	sec := enc.Child("section")
	sec.SetSection("heap", 2)
	sec.SetBytes(1024)
	sec.End()
	enc.End()
	root.End()

	if got := len(tr.Roots()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}
	if root.Find("section") != sec {
		t.Fatalf("Find did not locate the nested span")
	}

	d := root.Export()
	if d.Name != "session" || d.Attrs["version"] != "3" {
		t.Fatalf("root export wrong: %+v", d)
	}
	if len(d.Children) != 1 || len(d.Children[0].Children) != 1 {
		t.Fatalf("export lost nesting: %+v", d)
	}
	leaf := d.Children[0].Children[0]
	if leaf.Kind != "heap" || leaf.ID != 2 || leaf.Bytes != 1024 {
		t.Fatalf("leaf export wrong: %+v", leaf)
	}
	if leaf.StartUS < 0 {
		t.Fatalf("leaf start offset negative: %d", leaf.StartUS)
	}

	// The exported trees must round-trip through JSON.
	raw, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	var back []*SpanData
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Name != "session" || back[0].Children[0].Children[0].Bytes != 1024 {
		t.Fatalf("span export round-trip wrong: %+v", back)
	}
}

func TestSpanEndIdempotentAndSetDuration(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("x")
	s.SetDuration(42 * time.Millisecond)
	first := s.Export().DurUS
	s.End() // must not overwrite the explicit duration
	if first != 42000 || s.Export().DurUS != first {
		t.Fatalf("duration moved after End: %dus -> %dus", first, s.Export().DurUS)
	}
}

func TestTreeRendering(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("capture")
	c := root.Child("encode")
	c.SetSection("frame", 1)
	c.SetBytes(256)
	c.End()
	root.End()
	tree := tr.Tree()
	// A section span's label is its name, kind and id, padded as one.
	for _, want := range []string{"capture", "encode frame #1  ", "256 B"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if !strings.HasPrefix(strings.Split(tree, "\n")[1], "  ") {
		t.Fatalf("child not indented:\n%s", tree)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("encode")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("section")
				c.SetSection("heap", id)
				c.SetBytes(1)
				c.End()
			}
		}(uint32(i))
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	c.Add(-17) // monotonic: ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatalf("counter handle not stable")
	}
	g := r.Gauge("w")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counters["a.b"] != 5 || snap.Gauges["w"] != 5 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	if s := snap.String(); !strings.Contains(s, "counter a.b 5") || !strings.Contains(s, "gauge w 5") {
		t.Fatalf("snapshot render wrong:\n%s", s)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatalf("nil registry recorded values")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("nil registry snapshot non-empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits").Inc()
				r.Gauge("depth").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("session.restored").Add(3)
	srv := httptest.NewServer(NodeMetricsHandler(r, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Metrics == nil || rep.Metrics.Counters["session.restored"] != 3 {
		t.Fatalf("metrics wrong: %+v", rep.Metrics)
	}
}

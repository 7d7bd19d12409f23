package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceContextIdentity(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Error("zero context is valid")
	}
	tc := NewTraceContext()
	if !tc.Valid() || tc.SpanID == 0 {
		t.Fatalf("new context = %+v", tc)
	}
	other := NewTraceContext()
	if tc.TraceID == other.TraceID {
		t.Error("two minted trace IDs collided")
	}
	if len(IDString(tc.TraceID)) != 16 {
		t.Errorf("IDString = %q, want 16 hex chars", IDString(tc.TraceID))
	}
	if NewSpanID() == 0 {
		t.Error("NewSpanID returned zero")
	}
}

func TestSpanTraceContextExport(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("session")
	tc := TraceContext{TraceID: 0xabc, SpanID: 0xdef}
	root.SetTraceContext(tc)
	root.Child("collect").End()
	root.End()

	d := root.Export()
	if d.TraceID != IDString(0xabc) || d.SpanID != IDString(0xdef) {
		t.Errorf("export ids = %q/%q", d.TraceID, d.SpanID)
	}
	if !strings.Contains(tr.Tree(), "trace="+IDString(0xabc)) {
		t.Errorf("tree missing trace id:\n%s", tr.Tree())
	}

	// Nil safety.
	var nilSpan *Span
	nilSpan.SetTraceContext(tc)
	nilSpan.SetParentSpan(1)
	nilSpan.AttachRemote(&SpanData{Name: "x"})
	if nilSpan.Export() != nil {
		t.Error("nil span leaked trace state")
	}
}

func TestAttachRemoteExportsUnderSpan(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("session")
	root.AttachRemote(&SpanData{Name: "peer", DurUS: 10})
	root.End()
	d := root.Export()
	if len(d.Children) != 1 || d.Children[0].Name != "peer" || !d.Children[0].Remote {
		t.Fatalf("remote child not exported: %+v", d.Children)
	}
	if !strings.Contains(tr.Tree(), "(remote)") {
		t.Errorf("live tree missing remote subtree:\n%s", tr.Tree())
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("session.ok").Add(3)
	reg.Gauge("stream.window").Set(8)
	h := reg.Histogram("session.phase.restore")
	h.Observe(3 * time.Microsecond)    // le 4us bucket
	h.Observe(1500 * time.Microsecond) // le 2048us bucket
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE session_ok counter\nsession_ok 3\n",
		"# TYPE stream_window gauge\nstream_window 8\n",
		"# TYPE session_phase_restore_seconds histogram\n",
		`session_phase_restore_seconds_bucket{le="4e-06"} 1`,
		`session_phase_restore_seconds_bucket{le="0.002048"} 2`,
		`session_phase_restore_seconds_bucket{le="+Inf"} 2`,
		"session_phase_restore_seconds_sum 0.001503",
		"session_phase_restore_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"session.phase.restore": "session_phase_restore",
		"fail.corrupt-stream":   "fail_corrupt_stream",
		"9lives":                "_lives",
		"a:b_c9":                "a:b_c9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsHandlerNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Inc()
	reg.Histogram("lat").Observe(time.Millisecond)
	srv := httptest.NewServer(NodeMetricsHandler(reg, nil))
	defer srv.Close()

	get := func(path, accept string) (*http.Response, string) {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	// Default is the JSON obs report.
	resp, body := get("/metrics", "")
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("default: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var rep Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("default body not a report: %v", err)
	}
	if rep.Schema != ReportSchema || rep.Metrics == nil || rep.Metrics.Counters["a.b"] != 1 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Metrics.Histograms["lat"].Count != 1 {
		t.Errorf("report missing histogram: %+v", rep.Metrics.Histograms)
	}

	// ?format=prometheus and Accept: text/plain both select the exposition.
	for _, probe := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain"},
		{"/metrics", "application/openmetrics-text"},
	} {
		resp, body = get(probe.path, probe.accept)
		if resp.StatusCode != 200 {
			t.Fatalf("%+v: status %d", probe, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("%+v: content-type %q", probe, ct)
		}
		if !strings.Contains(body, "a_b 1") || !strings.Contains(body, "lat_seconds_count 1") {
			t.Errorf("%+v: exposition body:\n%s", probe, body)
		}
	}

	// ?format=json wins over a prometheus Accept header.
	resp, _ = get("/metrics?format=json", "text/plain")
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("format=json override: content-type %q", resp.Header.Get("Content-Type"))
	}

	// Unknown format is a client error.
	resp, _ = get("/metrics?format=xml", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml: status %d, want 400", resp.StatusCode)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestParseReportUnknownSchema pins the failure mode for foreign
// documents: parse errors, not silent misreads.
func TestParseReportUnknownSchema(t *testing.T) {
	// The schema before this one (nothing writes it any more) and one
	// that does not exist yet.
	for _, version := range []int{1, 99} {
		doc := fmt.Sprintf(`{"schema":"repro-obs/%d"}`, version)
		if _, err := ParseReport([]byte(doc)); err == nil {
			t.Fatalf("%s accepted", doc)
		}
	}
	if _, err := ParseReport([]byte(`not json`)); err == nil {
		t.Fatal("malformed document accepted")
	}
}

// TestNodeMetricsHandler checks the v2 endpoint: the JSON report carries
// the schema marker and the node identity header, the refresh hook runs
// per request, the Prometheus exposition stays header-free, and an
// unknown ?format= is still a 400.
func TestNodeMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("session.restored").Add(4)
	refreshes := 0
	start := time.Now().Add(-time.Minute)
	srv := httptest.NewServer(NodeMetricsHandler(reg, func() *NodeInfo {
		refreshes++
		return &NodeInfo{ID: "host-abcd1234", Machine: "sparc20", Start: start, Version: "devel"}
	}))
	defer srv.Close()

	body := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, js := body(srv.URL)
	if code != 200 {
		t.Fatalf("json status %d", code)
	}
	rep, err := ParseReport([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Node == nil || rep.Node.ID != "host-abcd1234" || rep.Node.Machine != "sparc20" {
		t.Fatalf("node header = %+v", rep.Node)
	}
	if rep.Metrics.Counters["session.restored"] != 4 {
		t.Errorf("metrics = %+v", rep.Metrics)
	}
	if refreshes != 1 {
		t.Errorf("refresh hook ran %d times, want 1", refreshes)
	}

	if code, text := body(srv.URL + "?format=prometheus"); code != 200 ||
		!strings.Contains(text, "session_restored 4") || strings.Contains(text, "host-abcd1234") {
		t.Errorf("prometheus exposition wrong (status %d):\n%s", code, text)
	}
	if code, _ := body(srv.URL + "?format=xml"); code != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", code)
	}
}

// TestReportJSONRoundTrip pins that a v2 report with a node header
// survives encode → ParseReport unchanged.
func TestReportJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat").Observe(3 * time.Millisecond)
	rep := NewReport("", nil).WithMetrics(reg)
	rep.Node = &NodeInfo{ID: "n1", PID: 42, Version: "v0"}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node.ID != "n1" || back.Node.PID != 42 {
		t.Errorf("node header lost: %+v", back.Node)
	}
	if back.Metrics.Histograms["lat"].Count != 1 {
		t.Errorf("metrics lost: %+v", back.Metrics)
	}
}

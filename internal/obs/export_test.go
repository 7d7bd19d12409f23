package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestNodeMetricsHandler checks the v2 endpoint: the JSON report carries
// the schema marker and the node identity header, and the refresh hook
// runs per request.
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
	var rep Report
	if err := json.Unmarshal([]byte(js), &rep); err != nil {
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
}

// TestReportJSONRoundTrip pins that a v2 report with a node header
// survives encode → decode unchanged.
func TestReportJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat").Observe(3 * time.Millisecond)
	rep := NewReport("", nil).WithMetrics(reg)
	rep.Node = &NodeInfo{ID: "n1", PID: 42, Version: "v0"}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Node.ID != "n1" || back.Node.PID != 42 {
		t.Errorf("node header lost: %+v", back.Node)
	}
	if back.Metrics.Histograms["lat"].Count != 1 {
		t.Errorf("metrics lost: %+v", back.Metrics)
	}
}

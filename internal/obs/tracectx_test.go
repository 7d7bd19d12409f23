package obs

import (
	"strings"
	"testing"
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

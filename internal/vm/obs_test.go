package vm

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCaptureSpans checks the phase-span shape of both capture formats:
// a sectioned capture records collect/partition/encode with per-section
// children, a monolithic capture records a bare collect span.
func TestCaptureSpans(t *testing.T) {
	p, _, _, _ := stopSectioned(t, workload.ShardedListsSource(4, 30))
	tr := obs.NewTracer()
	p.Obs = tr.Start("capture")
	if _, err := p.CaptureSections(0); err != nil {
		t.Fatal(err)
	}
	p.Obs.End()
	spans := tr.Export()
	if len(spans) != 1 {
		t.Fatalf("exported %d roots, want 1", len(spans))
	}
	collect := spans[0].Children[0]
	if collect.Name != "collect" || collect.Attrs["format"] != "sectioned" {
		t.Fatalf("first child = %q (%v), want sectioned collect", collect.Name, collect.Attrs)
	}
	names := map[string]bool{}
	sections := 0
	for _, c := range collect.Children {
		names[c.Name] = true
		if c.Name == "section" {
			sections++
		}
	}
	if !names["partition"] || !names["encode"] {
		t.Errorf("collect children %v missing partition/encode", names)
	}
	if sections == 0 {
		t.Error("no per-section spans recorded")
	}
	if collect.Bytes == 0 {
		t.Error("collect span has no byte count")
	}

	tr2 := obs.NewTracer()
	p.Obs = tr2.Start("capture")
	if _, err := p.Recapture(); err != nil {
		t.Fatal(err)
	}
	p.Obs.End()
	mono := tr2.Export()[0].Children[0]
	if mono.Name != "collect" || mono.Attrs["format"] != "mono" {
		t.Errorf("mono capture span = %q (%v), want mono collect", mono.Name, mono.Attrs)
	}
}

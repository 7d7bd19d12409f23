package vm

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCaptureSpans checks the phase-span shape of a capture: it records
// collect/partition/encode with per-section children.
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
}

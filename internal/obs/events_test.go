package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanEventsBasics(t *testing.T) {
	var nilSpan *Span
	nilSpan.Event("x", "must not panic")

	root := NewTracer().Start("session")
	root.Event("phase", "collect -> transport")
	root.Child("restore").Event("retransmit", "chunk %d attempt %d", 7, 2)
	d := root.Export()
	if len(d.Events) != 1 || d.Events[0].Kind != "phase" || d.Events[0].Detail != "collect -> transport" {
		t.Fatalf("root events = %+v", d.Events)
	}
	evs := d.Children[0].Events
	if len(evs) != 1 || evs[0].Detail != "chunk 7 attempt 2" {
		t.Fatalf("child events = %+v, want the formatted detail on the child", evs)
	}
	// Both offsets count from the root's start, as span starts do.
	if evs[0].AtUS < d.Events[0].AtUS {
		t.Error("events out of chronological order")
	}
}

// TestSpanEventsBoundPerTree: a tree keeps its first maxEvents events,
// wherever in it they are recorded, and its root counts the rest.
func TestSpanEventsBoundPerTree(t *testing.T) {
	root := NewTracer().Start("session")
	child := root.Child("transport")
	for i := 0; i < maxEvents+10; i++ {
		span := root
		if i%2 == 1 {
			span = child
		}
		span.Event("tick", "n=%d", i)
	}
	d := root.Export()
	if kept := len(d.Events) + len(d.Children[0].Events); kept != maxEvents {
		t.Fatalf("kept %d events, want %d", kept, maxEvents)
	}
	if d.Dropped != 10 || d.Children[0].Dropped != 0 {
		t.Fatalf("dropped = %d on the root, %d on the child; want 10 and 0", d.Dropped, d.Children[0].Dropped)
	}
	if last := d.Children[0].Events[len(d.Children[0].Events)-1]; last.Detail != "n=255" {
		t.Errorf("last kept event = %q, want n=255", last.Detail)
	}
	if !strings.Contains(d.Tree(), "10 later events dropped") {
		t.Errorf("tree missing the dropped note:\n%s", d.Tree())
	}
}

func TestSpanEventsExport(t *testing.T) {
	root := NewTracer().Start("session")
	root.Event("session.fail", "restore: checksum mismatch")
	root.End()
	// The export must round-trip as JSON (a failed session's dump is one)
	// and render through the one tree layout.
	b, err := json.Marshal(root.Export())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SpanData
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Events) != 1 || back.Events[0].Kind != "session.fail" || back.Events[0].Detail != "restore: checksum mismatch" {
		t.Errorf("round-trip events = %+v", back.Events)
	}
	if tree := back.Tree(); !strings.Contains(tree, "session.fail") || !strings.Contains(tree, "checksum mismatch") {
		t.Errorf("rendered tree lacks the event:\n%s", tree)
	}
}

// TestSpanEventsConcurrent records from several goroutines into one tree;
// run with -race this verifies the locking discipline.
func TestSpanEventsConcurrent(t *testing.T) {
	root := NewTracer().Start("session")
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			span := root.Child("worker")
			for i := 0; i < each; i++ {
				span.Event("k", "w%d i%d", w, i)
			}
		}(w)
	}
	wg.Wait()
	d := root.Export()
	kept := 0
	for _, c := range d.Children {
		kept += len(c.Events)
	}
	if kept != maxEvents || d.Dropped != workers*each-maxEvents {
		t.Errorf("kept %d, dropped %d; want %d and %d", kept, d.Dropped, maxEvents, workers*each-maxEvents)
	}
}

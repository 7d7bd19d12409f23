package exper

import (
	"bytes"
	"strings"
	"testing"
)

func TestDedupAblation(t *testing.T) {
	rows, err := DedupAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	on, off := rows[0], rows[1]
	// Without visit marking, the diamond DAG stream explodes.
	if off.Value < 20*on.Value {
		t.Errorf("ablated stream %.0f bytes vs %.0f: blowup not visible", off.Value, on.Value)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "D1", rows)
	if !strings.Contains(buf.String(), "visit marking") {
		t.Error("render problem")
	}
}

func TestMSRLTIndexAblation(t *testing.T) {
	rows, err := MSRLTIndexAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	search, hash := rows[0], rows[1]
	if search.Value == 0 {
		t.Error("binary-search configuration recorded no steps")
	}
	// The hash index should eliminate nearly all search steps for
	// bitonic (all pointers target block bases).
	if hash.Value*10 > search.Value {
		t.Errorf("hash residual steps %.0f vs search %.0f", hash.Value, search.Value)
	}
	// The counts are one capture's, however many the timing repeats.
	again, err := MSRLTIndexAblation(quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i].Value != again[i].Value || rows[i].Detail != again[i].Detail {
			t.Errorf("row %d: %v (%s), then %v (%s)", i, rows[i].Value, rows[i].Detail, again[i].Value, again[i].Detail)
		}
	}
}

// TestPointerEncodingCost holds D2's composition to the bodies it reads
// them off: scalar data, the three reference forms, the directories and
// the live-reference lists sum exactly to the heap, frame and globals
// bodies, and on bitonic, whose every heap pointer stays in its section,
// one-word references carry the pointers.
func TestPointerEncodingCost(t *testing.T) {
	rows, err := PointerEncodingCost(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	total, bodies := rows[0].Value, rows[1].Value
	sum := 0.0
	for _, r := range rows[2:8] {
		sum += r.Value
	}
	if sum != bodies || bodies >= total {
		t.Errorf("composition %.0f, bodies %.0f, stream %.0f: want the parts to sum to the bodies, inside the stream", sum, bodies, total)
	}
	if same, cross := rows[3].Value, rows[4].Value; same < total/10 || cross > same {
		t.Errorf("same-section refs %.0f, cross-section %.0f of %.0f total; expected the one-word form to carry the tree", same, cross, total)
	}
}

func TestChainExperiment(t *testing.T) {
	r, err := Chain(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Errorf("chain self-check failed: exit %d", r.ExitCode)
	}
	if len(r.Hops) != 6 { // 7 machines, 6 hops
		t.Errorf("hops = %d", len(r.Hops))
	}
	var buf bytes.Buffer
	PrintChain(&buf, r)
	if !strings.Contains(buf.String(), "PASS") {
		t.Errorf("render:\n%s", buf.String())
	}
}

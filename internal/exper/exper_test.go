package exper

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

var quick = Config{Quick: true, Repeats: 1}

func TestHeterogeneityAllPass(t *testing.T) {
	rows, err := Heterogeneity(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s failed with exit %d", r.Program, r.ExitCode)
		}
		if r.StateBytes == 0 {
			t.Errorf("%s transferred no bytes", r.Program)
		}
	}
	var buf bytes.Buffer
	PrintHeterogeneity(&buf, rows)
	if !strings.Contains(buf.String(), "test_pointer") || !strings.Contains(buf.String(), "PASS") {
		t.Errorf("render:\n%s", buf.String())
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Collect <= 0 || r.Restore <= 0 || r.Tx <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Program, r)
		}
	}
	// Linpack transfers far more bytes than quick bitonic, so its Tx
	// must dominate (Tx is bandwidth-bound).
	if rows[0].Bytes > rows[1].Bytes && rows[0].Tx <= rows[1].Tx {
		t.Errorf("Tx not monotone in bytes: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Linpack") {
		t.Error("render missing linpack row")
	}
}

func TestFig2aLinearity(t *testing.T) {
	res, err := Fig2aLinpack(Config{Quick: true, Repeats: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The paper's claim: collection and restoration scale linearly with
	// the size of live data. A test holds the half of it that does not
	// read a clock — the data to move grows with the square of n (16x
	// across the quick sweep) while the block count stays put — and only
	// logs the growth exponents: a quick-size restore takes 40-160 µs,
	// less than one scheduler blip on a shared host, so no band around 1
	// is both meaningful and stable. `go run -C bench repro/bench` is the
	// timing instrument.
	t.Logf("growth exponents: collect %.2f, restore %.2f (expected ~1)",
		res.CollectSeries().GrowthExponent(), res.RestoreSeries().GrowthExponent())
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if ratio := float64(last.Bytes) / float64(first.Bytes); ratio < 15 || ratio > 17 {
		t.Errorf("data bytes grew %.1fx (%d -> %d) across a 4x span of n, want ~16x",
			ratio, first.Bytes, last.Bytes)
	}
	// Block count must stay constant as the problem scales (no dynamic
	// allocation in linpack) — the paper's explanation for the constant
	// MSRLT term.
	for _, p := range res.Points[1:] {
		if p.Blocks != res.Points[0].Blocks {
			t.Errorf("linpack blocks changed with size: %d vs %d", p.Blocks, res.Points[0].Blocks)
		}
	}
	var buf bytes.Buffer
	PrintScaling(&buf, "fig2a", res)
	if !strings.Contains(buf.String(), "Data bytes") {
		t.Error("render problem")
	}
}

func TestFig2bBlocksGrow(t *testing.T) {
	res, err := Fig2bBitonic(Config{Quick: true, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	// In bitonic both n (blocks) and total bytes grow with problem size.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Blocks <= res.Points[i-1].Blocks {
			t.Errorf("blocks not increasing: %+v", res.Points)
		}
		if res.Points[i].SearchSteps <= res.Points[i-1].SearchSteps {
			t.Errorf("search steps not increasing: %+v", res.Points)
		}
	}
	// Search steps per block must grow (log n term).
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if float64(last.SearchSteps)/float64(last.Blocks) <=
		float64(first.SearchSteps)/float64(first.Blocks) {
		t.Error("per-block search work did not grow with n (no log n term visible)")
	}
}

func TestBreakdown(t *testing.T) {
	rows, err := Breakdown(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	lin, bit := rows[0], rows[1]
	// The claims are stated in the counts the rows carry, never in their
	// times: encoded bytes stand for the encode work, counted bisection
	// steps for the search work.
	// Linpack: few blocks, encode dominates search overwhelmingly — under
	// one search step per KiB encoded.
	if lin.Blocks > 20 {
		t.Errorf("linpack blocks = %d", lin.Blocks)
	}
	if lin.SearchSteps*1024 > int64(lin.Bytes) {
		t.Errorf("linpack takes %d search steps for %d encoded bytes; encode should dominate", lin.SearchSteps, lin.Bytes)
	}
	// Bitonic: thousands of blocks; search work is substantial — at least
	// one step per block.
	if bit.Blocks < 1000 {
		t.Errorf("bitonic blocks = %d", bit.Blocks)
	}
	if bit.SearchSteps < bit.Blocks {
		t.Errorf("bitonic takes %d search steps over %d blocks; want at least one per block", bit.SearchSteps, bit.Blocks)
	}
	var buf bytes.Buffer
	PrintBreakdown(&buf, rows)
	if !strings.Contains(buf.String(), "Search") {
		t.Error("render problem")
	}
}

func TestPollPlacementOverhead(t *testing.T) {
	rows, err := PollPlacementOverhead(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, outer, inner := rows[0], rows[1], rows[2]
	if base.PollChecks != 0 {
		t.Errorf("baseline polled %d times", base.PollChecks)
	}
	if outer.PollChecks == 0 || inner.PollChecks <= outer.PollChecks {
		t.Errorf("poll counts: outer=%d inner=%d", outer.PollChecks, inner.PollChecks)
	}
	// The inner-kernel placement must check polls at least an order of
	// magnitude more often than the outer placement.
	if inner.PollChecks < 10*outer.PollChecks {
		t.Errorf("kernel placement polls only %dx more", inner.PollChecks/max64(outer.PollChecks, 1))
	}
	var buf bytes.Buffer
	PrintOverhead(&buf, "polls", rows)
	if !strings.Contains(buf.String(), "kernel") {
		t.Error("render problem")
	}
}

func TestAllocationOverhead(t *testing.T) {
	rows, err := AllocationOverhead(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, perBlock, pooled := rows[0], rows[1], rows[2]
	if base.MSRLTOps != 0 {
		t.Errorf("baseline did %d MSRLT ops", base.MSRLTOps)
	}
	if perBlock.MSRLTOps < 1000 {
		t.Errorf("per-block variant did only %d MSRLT ops", perBlock.MSRLTOps)
	}
	// The pooled (smart allocation) variant nearly eliminates MSRLT
	// maintenance, the paper's suggested mitigation.
	if pooled.MSRLTOps*100 > perBlock.MSRLTOps {
		t.Errorf("pooled ops = %d vs per-block %d", pooled.MSRLTOps, perBlock.MSRLTOps)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestGrowthExponentSanity(t *testing.T) {
	// Guard against a broken exponent helper silently passing the
	// linearity test.
	if math.IsNaN((&ScalingResult{}).CollectSeries().GrowthExponent()) {
		t.Skip("degenerate series returns NaN-free zero; nothing to check")
	}
}

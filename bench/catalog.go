package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one emitted metric. BENCHMARK.json at the repository root
// is the contract; these tables are what the harness emits, and the catalog
// test keeps the two identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEndDefs = []metricDef{
	{"migrate_ms_p50", "ms", "lower"},
	{"downtime_ms_p50", "ms", "lower"},
	{"migrations_per_s", "1/s", "higher"},
	{"wire_bytes_per_migration", "bytes", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerDefs = []metricDef{
	{"link.dial_ms", "ms", "lower"},
	{"link.frame_mb_per_s", "MB/s", "higher"},
	{"link.small_frame_rtt_us", "us", "lower"},
	{"link.send_busy_ms", "ms", "lower"},
	{"link.recv_wait_ms", "ms", "lower"},
	{"link.sent_bytes_per_migration", "bytes", "lower"},

	{"stream.push_mb_per_s", "MB/s", "higher"},
	{"stream.chunks_per_migration", "count", "lower"},
	{"stream.retransmits_per_migration", "count", "lower"},
	{"stream.ack_rtt_us_p50", "us", "lower"},

	{"session.handshake_ms", "ms", "lower"},
	{"session.send_phase_ms", "ms", "lower"},
	{"session.tail_wait_ms", "ms", "lower"},
	{"session.commit_ms", "ms", "lower"},
	{"session.frames_per_migration", "count", "lower"},
	{"session.unattributed_pct", "%", "lower"},
	{"session.migrate_ms_p90", "ms", "lower"},
	{"session.live_rounds", "count", "lower"},
	{"session.live_final_bytes", "bytes", "lower"},
	{"session.warm_sections_sent", "count", "lower"},

	{"vm.collect_ms", "ms", "lower"},
	{"vm.restore_ms", "ms", "lower"},
	{"vm.capture_mono_ms", "ms", "lower"},
	{"vm.capture_sections_ms", "ms", "lower"},
	{"vm.capture_sections_serial_ms", "ms", "lower"},
	{"vm.restore_sections_ms", "ms", "lower"},
	{"vm.restore_sections_serial_ms", "ms", "lower"},
	{"vm.live_round_full_ms", "ms", "lower"},
	{"vm.live_round_delta_ms", "ms", "lower"},

	{"collect.blocks_saved", "count", "lower"},
	{"collect.pointers_saved", "count", "lower"},
	{"collect.msrlt_searches", "count", "lower"},
	{"collect.search_steps", "count", "lower"},
	{"collect.data_bytes", "bytes", "lower"},
	{"collect.ns_per_block", "ns", "lower"},

	{"msr.blocks", "count", "lower"},
	{"msr.resolve_ns", "ns", "lower"},
	{"msr.addrof_ns", "ns", "lower"},

	{"memory.read_mb_per_s", "MB/s", "higher"},
	{"memory.dirty_blocks_per_round", "count", "lower"},
	{"memory.dirty_scan_us", "us", "lower"},

	{"xdr.encode_calls_per_migration", "count", "lower"},
	{"xdr.encode_bytes_per_migration", "bytes", "lower"},
	{"xdr.decode_calls_per_migration", "count", "lower"},

	{"snapshot.sections", "count", "lower"},
	{"snapshot.decode_ms", "ms", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},

	{"store.checkpoint_ms", "ms", "lower"},
	{"store.materialize_ms", "ms", "lower"},
	{"store.missing_us", "us", "lower"},
	{"store.bytes_written_per_migration", "bytes", "lower"},
	{"store.dedup_ratio", "ratio", "higher"},

	{"core.compile_ms", "ms", "lower"},

	{"obs.program_trace_overhead_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.calibration_ms", "ms", "lower"},

	{"proc.cpu_ms_per_migration", "ms", "lower"},
	{"proc.alloc_mb_per_migration", "MB", "lower"},
	{"proc.allocs_per_migration", "count", "lower"},
	{"proc.gc_cycles_per_migration", "count", "lower"},
	{"proc.heap_peak_mb", "MB", "lower"},
}

// catalog is BENCHMARK.json as the harness reads it: the workload list for
// the `why` lines, and the end-to-end bounds -compare judges against.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalog reads BENCHMARK.json from the repository root; the harness
// runs from the benchmark's own directory, one level below it.
func loadCatalog() (*catalog, error) {
	const path = "../BENCHMARK.json"
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

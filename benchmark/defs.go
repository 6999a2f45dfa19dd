package main

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; bench_test.go
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, and none can be 0. README.md gives the measured
// spread that justifies each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_record", "B", "lower", 0.25},
	{"write_bytes_per_record", "B", "lower", 0.25},
	{"read_bytes_per_record", "B", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.25},
	{"alloc_bytes_per_read", "B", "lower", 0.25},
}

// clientTimings is what the client sees on the clock: end-to-end by
// nature, measured by every run, and kept without a bound because the
// sandbox's wall clock and CPU clock do not repeat within the 25% a
// bound may be (README.md, "Spread"). BENCHMARK.json lists them under
// per_layer, so the driver reads them from the traced run.
var clientTimings = []metricDef{
	{Name: "visible_s_p50", Unit: "s", Better: "lower"},
	{Name: "visible_s_p90", Unit: "s", Better: "lower"},
	{Name: "records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ack_s_p50", Unit: "s", Better: "lower"},
	{Name: "read_s_p50", Unit: "s", Better: "lower"},
	{Name: "read_s_p99", Unit: "s", Better: "lower"},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_s_per_krecord", Unit: "s", Better: "lower"},
	{Name: "cpu_s_per_kread", Unit: "s", Better: "lower"},
}

// layerMetrics come from the traced run; the layer is the prefix, which
// is the module's name under internal/ (proc and trace are the
// benchmark's own). A layer a workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{Name: "ingest.add_s_p50", Unit: "s", Better: "lower"},
	{Name: "ingest.cut_wait_s_p50", Unit: "s", Better: "lower"},
	{Name: "ingest.intent_s_p50", Unit: "s", Better: "lower"},
	{Name: "ingest.commit_s_p50", Unit: "s", Better: "lower"},
	{Name: "ingest.records", Unit: "count", Better: "higher"},
	{Name: "ingest.batches", Unit: "count", Better: "higher"},
	{Name: "ingest.rejected", Unit: "count", Better: "lower"},

	{Name: "dfs.write_deltas_s_p50", Unit: "s", Better: "lower"},
	{Name: "dfs.read_deltas_probe_s_p50", Unit: "s", Better: "lower"},
	{Name: "dfs.delta_bytes", Unit: "B", Better: "lower"},

	{Name: "serve.refresh_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.flip_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.first_read_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.get_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.mget_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.http_overhead_s_p50", Unit: "s", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.read_slo_miss_ratio", Unit: "ratio", Better: "lower"},

	{Name: "incr.refresh_s_p50", Unit: "s", Better: "lower"},
	{Name: "incr.map_busy_s", Unit: "s", Better: "lower"},
	{Name: "incr.sort_busy_s", Unit: "s", Better: "lower"},
	{Name: "incr.reduce_busy_s", Unit: "s", Better: "lower"},
	{Name: "incr.checkpoint_busy_s", Unit: "s", Better: "lower"},
	{Name: "incr.delta_edges", Unit: "count", Better: "lower"},
	{Name: "incr.reduce_groups", Unit: "count", Better: "lower"},
	{Name: "incr.recompute_s", Unit: "s", Better: "lower"},
	{Name: "incr.speedup", Unit: "ratio", Better: "higher"},

	{Name: "core.refresh_s_p50", Unit: "s", Better: "lower"},
	{Name: "core.iterations_per_refresh", Unit: "count", Better: "lower"},
	{Name: "core.iter_s_p50", Unit: "s", Better: "lower"},
	{Name: "core.iter_s_p90", Unit: "s", Better: "lower"},
	{Name: "core.propagated_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.filtered_per_iter", Unit: "count", Better: "higher"},
	{Name: "core.map_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.reduce_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.checkpoint_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.recompute_s", Unit: "s", Better: "lower"},
	{Name: "core.speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.mean_rel_err", Unit: "ratio", Better: "lower"},

	{Name: "shuffle.bytes_per_refresh", Unit: "B", Better: "lower"},
	{Name: "shuffle.spill_runs", Unit: "count", Better: "lower"},
	{Name: "shuffle.spill_bytes", Unit: "B", Better: "lower"},
	{Name: "shuffle.probe_s", Unit: "s", Better: "lower"},

	{Name: "mrbg.reads", Unit: "count", Better: "lower"},
	{Name: "mrbg.bytes_read", Unit: "B", Better: "lower"},
	{Name: "mrbg.window_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mrbg.appended_chunks", Unit: "count", Better: "lower"},
	{Name: "mrbg.flushes", Unit: "count", Better: "lower"},
	{Name: "mrbg.file_bytes", Unit: "B", Better: "lower"},
	{Name: "mrbg.live_bytes", Unit: "B", Better: "lower"},
	{Name: "mrbg.merge_probe_s", Unit: "s", Better: "lower"},
	{Name: "mrbg.getmany_probe_s", Unit: "s", Better: "lower"},

	{Name: "results.segments", Unit: "count", Better: "lower"},
	{Name: "results.segment_bytes", Unit: "B", Better: "lower"},
	{Name: "results.flushes", Unit: "count", Better: "lower"},
	{Name: "results.compactions", Unit: "count", Better: "lower"},
	{Name: "results.bytes_rewritten", Unit: "B", Better: "lower"},
	{Name: "results.get_probe_s_p50", Unit: "s", Better: "lower"},
	{Name: "results.miss_probe_s_p50", Unit: "s", Better: "lower"},
	{Name: "results.blocks_read_per_get", Unit: "count", Better: "lower"},
	{Name: "results.bloom_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "results.bytes_decompressed_per_get", Unit: "B", Better: "lower"},
	{Name: "results.checkpoint_probe_s", Unit: "s", Better: "lower"},

	{Name: "blockio.read_block_s_p50", Unit: "s", Better: "lower"},
	{Name: "blockio.write_s_per_mb", Unit: "s", Better: "lower"},

	{Name: "mr.recompute_s", Unit: "s", Better: "lower"},

	{Name: "proc.mallocs_per_record", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "proc.heap_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "proc.write_syscalls_per_record", Unit: "count", Better: "lower"},
	{Name: "proc.read_late_s_p99", Unit: "s", Better: "lower"},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.unattributed_s_p50", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// perLayer is BENCHMARK.json's per_layer list: what --trace 1 reports.
var perLayer = append(append([]metricDef(nil), clientTimings...), layerMetrics...)

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

package main

// metricDef names a reported metric. BENCHMARK.json lists the same names
// with direction and bound; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload reports
// every one of them (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"rounds_per_s", "1/s"},
	{"cpu_ms_per_round", "ms"},
	{"allocs_per_round", "count"},
	{"alloc_kb_per_round", "KiB"},
	{"live_heap_mb", "MiB"},
	{"view_read_p50_us", "us"},
	{"query_read_p50_us", "us"},
}

// perLayerMetrics attribute time and work to the engine's modules (--trace
// 1). The prefix is the module; README.md gives each metric's source and the
// end-to-end metric it should move. A metric that does not apply to a
// workload (no shared prefixes, no open-loop generator) reads 0 there.
var perLayerMetrics = []metricDef{
	{"compile.view_plan_us", "us"},
	{"compile.adhoc_query_us", "us"},

	{"update.parse_eval_us", "us"},
	{"update.outside_round_us", "us"},
	{"update.compact_us", "us"},
	{"update.compact_drop_ratio", "ratio"},

	{"validate.us_per_round", "us"},
	{"validate.irrelevant_ratio", "ratio"},
	{"sapt.view_skip_ratio", "ratio"},

	{"xat.propagate_us_per_round", "us"},
	{"xat.propagate_self_us_per_round", "us"},
	{"xat.base_derive_us_per_round", "us"},
	{"xat.cache_hit_ratio", "ratio"},
	{"xat.cache_evicts_per_round", "count"},
	{"xat.cache_folds_per_round", "count"},
	{"xat.delta_roots_per_round", "count"},
	{"xat.shared_hits_per_round", "count"},
	{"xat.op.navigate_us_per_round", "us"},
	{"xat.op.select_us_per_round", "us"},
	{"xat.op.join_us_per_round", "us"},
	{"xat.op.groupby_us_per_round", "us"},
	{"xat.op.tagger_us_per_round", "us"},
	{"xat.op.other_us_per_round", "us"},

	{"deepunion.apply_us_per_round", "us"},
	{"deepunion.merged_per_round", "count"},
	{"deepunion.inserted_per_round", "count"},
	{"deepunion.removed_per_round", "count"},
	{"deepunion.modified_per_round", "count"},

	{"xmldoc.source_refresh_us_per_round", "us"},
	{"xmldoc.load_ms_per_mb", "ms/MiB"},
	{"xmldoc.snap_depth_max", "count"},
	{"xmldoc.query_us_depth_lo", "us"},
	{"xmldoc.query_us_depth_hi", "us"},
	{"xmldoc.document_xml_us", "us"},

	{"core.round_total_us", "us"},
	{"core.compact_us", "us"},
	{"core.shared_prefix_us", "us"},
	{"core.pool_phase_us", "us"},
	{"core.view_self_us_per_round", "us"},
	{"core.snapshot_build_us", "us"},
	{"core.unattributed_us_per_round", "us"},
	{"core.create_view_first_ms", "ms"},
	{"core.create_view_last_ms", "ms"},
	{"core.materialize_ms", "ms"},
	{"core.recompute_ms", "ms"},
	{"core.snap_acquire_ns", "ns"},
	{"core.frame_xml_us", "us"},
	{"core.frame_xml_alloc_kb", "KiB"},
	{"core.query_exec_us", "us"},
	{"core.snap_retired_max", "count"},
	{"core.pool_speedup", "x"},

	{"mix.insert_p50_ms", "ms"},
	{"mix.replace_p50_ms", "ms"},
	{"mix.delete_p50_ms", "ms"},

	{"arena.bytes_per_round", "B"},
	{"arena.chunks_per_round", "count"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},

	{"load.late_p50_us", "us"},
	{"load.late_p99_us", "us"},
	{"load.read_busy_share", "ratio"},

	{"tail.round_p90_ms", "ms"},
	{"tail.round_p99_ms", "ms"},
	{"tail.view_read_p99_us", "us"},

	{"obs.trace_overhead_pct", "%"},
	{"obs.round_total_agreement_pct", "%"},
	{"obs.heap_allocs_agreement_pct", "%"},
}

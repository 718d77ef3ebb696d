package main

// metricDef declares one metric: BENCHMARK.json repeats this table and
// a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening, as a share, that counts as a regression
}

// endToEnd are the numbers a cell controller would see, reported on
// every workload. An operation is one HTTP request answered 200 whose
// body passed its check. fail_ratio is printed too but is 0 on a
// healthy run, so it travels as failed/attempted, not as a bounded
// metric. Each bound is at least three times the widest spread the
// metric showed over ten seeds on any workload (README.md has the
// table), which is why allocs_per_op and quality are not held tighter:
// they repeat exactly for one seed but move with the seed's draw.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"latency_p50_ms", "ms", "lower", 0.12},
	{"latency_p95_ms", "ms", "lower", 0.18},
	{"cpu_ms_per_op", "ms", "lower", 0.12},
	{"allocs_per_op", "count", "lower", 0.12},
	{"quality", "ratio", "higher", 0.18},
}

// perLayer are the single-layer numbers of a traced run, named after
// the repo's modules. They carry no bound.
var perLayer = []metricDef{
	{name: "blueprint.infer_cold_ms_p50", unit: "ms", better: "lower"},
	{name: "blueprint.infer_cold_ms_p95", unit: "ms", better: "lower"},
	{name: "blueprint.allocs_per_infer", unit: "count", better: "lower"},
	{name: "blueprint.infer_warm_ms_p50", unit: "ms", better: "lower"},
	{name: "blueprint.iterations_per_infer", unit: "count", better: "lower"},
	{name: "blueprint.starts_per_infer", unit: "count", better: "lower"},
	{name: "blueprint.converged_ratio", unit: "ratio", better: "higher"},
	{name: "blueprint.warm_hit_ratio", unit: "ratio", better: "higher"},
	{name: "access.fold_ns_per_obs", unit: "ns", better: "lower"},
	{name: "access.advance_us", unit: "us", better: "lower"},
	{name: "access.measurements_us", unit: "us", better: "lower"},
	{name: "joint.calculator_cold_us", unit: "us", better: "lower"},
	{name: "joint.prob_memo_ns", unit: "ns", better: "lower"},
	{name: "sched.speculative_first_ms", unit: "ms", better: "lower"},
	{name: "sched.speculative_steady_us", unit: "us", better: "lower"},
	{name: "sched.pf_first_us", unit: "us", better: "lower"},
	{name: "serve.decode_json_infer_us", unit: "us", better: "lower"},
	{name: "serve.decode_binary_infer_us", unit: "us", better: "lower"},
	{name: "serve.decode_binary_observe_us", unit: "us", better: "lower"},
	{name: "serve.decode_json_schedule_us", unit: "us", better: "lower"},
	{name: "serve.encode_json_infer_us", unit: "us", better: "lower"},
	{name: "serve.encode_binary_infer_us", unit: "us", better: "lower"},
	{name: "serve.to_measurements_us", unit: "us", better: "lower"},
	{name: "serve.handler_infer_miss_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_infer_hit_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_observe_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_schedule_us_p50", unit: "us", better: "lower"},
	{name: "serve.self_us_infer", unit: "us", better: "lower"},
	{name: "serve.self_us_observe", unit: "us", better: "lower"},
	{name: "serve.self_us_schedule", unit: "us", better: "lower"},
	{name: "serve.http_added_us_p50", unit: "us", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.coalesced_total", unit: "count", better: "higher"},
	{name: "serve.queue_reject_total", unit: "count", better: "lower"},
	{name: "serve.invalidations_per_observe", unit: "count", better: "lower"},
	{name: "serve.timeout_total", unit: "count", better: "lower"},
	{name: "persist.append_us_p50", unit: "us", better: "lower"},
	{name: "persist.flush_ms_p50", unit: "ms", better: "lower"},
	{name: "persist.snapshot_ms", unit: "ms", better: "lower"},
	{name: "persist.recover_ms", unit: "ms", better: "lower"},
	{name: "persist.wal_bytes_per_payload_byte", unit: "ratio", better: "lower"},
	{name: "persist.syncs_per_1k_appends", unit: "count", better: "lower"},
	{name: "persist.unsynced_acks_lost", unit: "count", better: "lower"},
	{name: "fleet.relay_added_us_p50", unit: "us", better: "lower"},
	{name: "fleet.relay_added_allocs", unit: "count", better: "lower"},
	{name: "fleet.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "fleet.exchange_ms", unit: "ms", better: "lower"},
	{name: "fleet.routed_total", unit: "count", better: "higher"},
	{name: "fleet.route_error_total", unit: "count", better: "lower"},
	{name: "process.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "process.latency_max_ms", unit: "ms", better: "lower"},
	{name: "process.cpu_util", unit: "ratio", better: "higher"},
	{name: "process.heap_live_mb", unit: "MB", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "process.trace_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "verify.strict_ratio", unit: "ratio", better: "higher"},
	{name: "trace.share_blueprint", unit: "ratio", better: "lower"},
	{name: "trace.share_sched_joint", unit: "ratio", better: "lower"},
	{name: "trace.share_access", unit: "ratio", better: "lower"},
	{name: "trace.share_persist", unit: "ratio", better: "lower"},
	{name: "trace.share_serve_codec", unit: "ratio", better: "lower"},
	{name: "trace.share_serve_self", unit: "ratio", better: "lower"},
	{name: "trace.share_outside", unit: "ratio", better: "lower"},
}

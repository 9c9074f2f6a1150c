package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. On sim-proposal a "request" is one simulated request and its
// latency is the wall time of a whole Runner.Run divided by the trace's
// requests, one sample per round.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"hit_ratio", "ratio", "higher"},
	{"byte_hit_ratio", "ratio", "higher"},
	{"write_ratio", "ratio", "lower"},
	{"byte_write_ratio", "ratio", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, named module.metric. Every
// workload reports all of them; a layer the workload does not run
// reads 0 (README.md maps each to the workloads it applies to).
var perLayer = []metricDef{
	{"server.handler_us_p50", "us", "lower"},
	{"server.handler_us_p90", "us", "lower"},
	{"server.self_us_p50", "us", "lower"},
	{"server.transport_us_p50", "us", "lower"},
	{"server.wire_bytes_per_req", "B", "lower"},
	{"server.conns_accepted", "count", "lower"},
	{"server.observe_ns_p50", "ns", "lower"},

	{"engine.lookup_ns_p50", "ns", "lower"},
	{"engine.lookup_ns_p99", "ns", "lower"},
	{"engine.hits", "count", "higher"},
	{"engine.misses", "count", "lower"},
	{"engine.writes", "count", "lower"},
	{"engine.bypassed", "count", "higher"},
	{"engine.rectified", "count", "higher"},
	{"engine.degraded", "count", "lower"},

	{"cluster.route_ns", "ns", "lower"},
	{"cluster.shard_load_max_over_mean", "ratio", "lower"},

	{"cache.get_ns_p50", "ns", "lower"},
	{"cache.admit_ns_p50", "ns", "lower"},
	{"cache.contains_per_write", "ratio", "lower"},

	{"core.decide_ns_p50", "ns", "lower"},
	{"core.decide_ns_p99", "ns", "lower"},
	{"core.bypass_per_miss", "ratio", "higher"},
	{"core.rectified_per_miss", "ratio", "higher"},
	{"core.history_table_len", "count", "lower"},
	{"core.onetime_precision", "ratio", "higher"},
	{"core.onetime_recall", "ratio", "higher"},

	{"flash.waf", "ratio", "lower"},
	{"flash.erases_per_gib_host", "1/GiB", "lower"},
	{"flash.bytes_per_req_byte", "ratio", "lower"},
	{"flash.gc_us_p50", "us", "lower"},
	{"flash.gc_us_p99", "us", "lower"},
	{"flash.program_us_p99", "us", "lower"},
	{"flash.read_us_p50", "us", "lower"},

	{"ml.train_ms_p50", "ms", "lower"},
	{"ml.trainings", "count", "lower"},
	{"ml.predict_ns", "ns", "lower"},
	{"features.extract_ns", "ns", "lower"},

	{"labeling.solve_ms", "ms", "lower"},
	{"trace.generate_ms", "ms", "lower"},
	{"trace.next_access_ms", "ms", "lower"},
	{"tier.build_layer_ms", "ms", "lower"},
	{"sim.unattributed_ms", "ms", "lower"},

	{"runtime.alloc_bytes_per_req", "B", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},

	{"tracing.overhead_ratio", "ratio", "lower"},
}

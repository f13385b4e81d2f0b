package main

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's output contract: every run prints every metric of
// its table, and the self-test checks them against BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd is printed by untraced runs (--trace 0). Every workload
// measures every one of them on its own traffic; README.md gives each
// workload's reading.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"success_ratio", "ratio"},
	{"heap_mb", "MB"},
	{"ops_s", "ops/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"exact_ops_s", "ops/s"},
	{"mass_retained", "ratio"},
}

// perLayer is printed by traced runs (--trace 1).
var perLayer = []metricDef{
	{"loadgen.lag_p95_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"client.attend_self_ms", "ms"},
	{"client.request_kb", "KiB"},
	{"client.append_self_ms", "ms"},
	{"client.step_self_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"http.conns_opened", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.body_read_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.mean_batch", "ops"},
	{"serve.decode_mean_batch", "ops"},
	{"serve.decode_coalesced", "count"},
	{"serve.calibrations", "count"},
	{"serve.admission_shed", "count"},
	{"elsa.attend_batch_ms_per_op", "ms"},
	{"elsa.stream_query_us", "us"},
	{"elsa.stream_append_us", "us"},
	{"elsa.speedup_vs_fastest_exact", "x"},
	{"elsa.unconc_ops_s", "ops/s"},
	{"attention.preprocess_ms", "ms"},
	{"attention.attend_with_ms", "ms"},
	{"attention.exact_scores_ms", "ms"},
	{"attention.linear_scan_ms", "ms"},
	{"attention.candidate_fraction", "ratio"},
	{"attention.flops_per_op", "flop"},
	{"attention.gather_bytes_per_op", "bytes"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

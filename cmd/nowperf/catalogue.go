package main

// The metric catalogue: what a pass prints, in print order. BENCHMARK.json
// at the repository root lists the same names, units and bounds (the test
// compares the two), so a name added here without the JSON fails there.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Time bounds are the
// contract's maximum because what the reference leaves of the host's
// spells is 3-12%; the counts carry 0.15 because ten runs use ten seeds
// (up to 8% apart on the small worlds).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_p90", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
	{"msgs_per_op", "count", "lower", 0.15},
	{"rounds_per_op", "count", "lower", 0.15},
}

// perLayer is <module>.<metric>, timed from outside through public calls.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "xrand.uint64_ns", unit: "ns", better: "lower"},
	{name: "xrand.split_into_ns", unit: "ns", better: "lower"},

	{name: "walk.biased_us_p50", unit: "us", better: "lower"},
	{name: "walk.biased_us_p90", unit: "us", better: "lower"},
	{name: "walk.hops_mean", unit: "count", better: "lower"},
	{name: "walk.msgs_per_walk", unit: "count", better: "lower"},

	{name: "randnum.ideal_draw_ns", unit: "ns", better: "lower"},
	{name: "randnum.commit_reveal_draw_ns", unit: "ns", better: "lower"},
	{name: "randnum.draws_per_op", unit: "count", better: "lower"},

	{name: "exchange.run_us_p50", unit: "us", better: "lower"},
	{name: "exchange.run_us_p90", unit: "us", better: "lower"},
	{name: "exchange.msgs_per_run", unit: "count", better: "lower"},

	{name: "over.add_us_mean", unit: "us", better: "lower"},
	{name: "over.remove_us_mean", unit: "us", better: "lower"},

	{name: "core.join_us_p50", unit: "us", better: "lower"},
	{name: "core.leave_us_p50", unit: "us", better: "lower"},
	{name: "core.leave_us_p90", unit: "us", better: "lower"},
	{name: "core.structural_share", unit: "ratio", better: "lower"},

	{name: "core.exec_batch_ms_p50", unit: "ms", better: "lower"},
	{name: "core.deferred_share", unit: "ratio", better: "lower"},
	{name: "core.defer_conflict_share", unit: "ratio", better: "lower"},
	{name: "core.defer_structural_share", unit: "ratio", better: "lower"},
	{name: "core.batched_speedup", unit: "ratio", better: "higher"},

	{name: "core.bootstrap_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.heap_bytes_per_node", unit: "bytes", better: "lower"},
	{name: "core.check_invariants_ms", unit: "ms", better: "lower"},
	{name: "core.audit_us", unit: "us", better: "lower"},
	{name: "core.bootstrap_2e20_ms", unit: "ms", better: "lower"},
	{name: "core.heap_2e20_mb", unit: "MB", better: "lower"},

	{name: "core.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},

	{name: "core.msgs_share_walk", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_randnum", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_exchange", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_cascade", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_intra", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_inter", unit: "ratio", better: "lower"},
	{name: "core.msgs_share_agreement", unit: "ratio", better: "lower"},

	{name: "sim.step_us_mean", unit: "us", better: "lower"},
	{name: "sim.overhead_share", unit: "ratio", better: "lower"},

	{name: "metrics.ledger_charge_ns", unit: "ns", better: "lower"},
	{name: "metrics.digest_add_ns", unit: "ns", better: "lower"},

	{name: "experiments.e6_cell_ms", unit: "ms", better: "lower"},

	{name: "nownet.encode_ns", unit: "ns", better: "lower"},
	{name: "nownet.decode_ns", unit: "ns", better: "lower"},
	{name: "nownet.stream_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "nownet.request_rtt_us_p50", unit: "us", better: "lower"},
	{name: "nownet.request_rtt_us_p90", unit: "us", better: "lower"},

	{name: "nownet.step_late_ms_p90", unit: "ms", better: "lower"},
	{name: "nownet.tcp_sent_per_decision", unit: "count", better: "lower"},
	{name: "nownet.retries_per_decision", unit: "count", better: "lower"},
	{name: "nownet.stale_per_decision", unit: "count", better: "lower"},
	{name: "nownet.undelivered_per_decision", unit: "count", better: "lower"},

	{name: "nownet.loopback_decision_us", unit: "us", better: "lower"},
	{name: "runtime.engine_decision_us", unit: "us", better: "lower"},
	{name: "ba.phaseking_us", unit: "us", better: "lower"},

	{name: "bench.host_factor_p50", unit: "ratio", better: "lower"},
	{name: "bench.host_factor_p90", unit: "ratio", better: "lower"},
	{name: "bench.traced_ops_per_s", unit: "1/s", better: "higher"},
	{name: "bench.gc_pause_ms", unit: "ms", better: "lower"},
}

// workloadNames is the order the self-check runs them in.
var workloadNames = []string{"churn_large", "churn_resize", "churn_batched", "wire_tcp"}

package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run (--trace 0) reports: what a
// user of the simulator sees. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MiB"},
	{"vread_p50_ms", "ms"},
	{"vread_p99_ms", "ms"},
	{"vmakespan_s", "s"},
}

// perLayer lists the metrics a traced run (--trace 1) reports. Counts and
// virtual times are those of one pass, which every pass repeats exactly;
// host times are medians over the traced passes. A layer a workload does
// not reach reports 0.
var perLayer = []metricDef{
	{"workload.pages", "count"},
	{"workload.host_s", "s"},

	{"apps.calls", "count"},
	{"apps.host_s", "s"},
	{"apps.self_host_s", "s"},
	{"apps.vcpu_s", "s"},

	{"core.query_calls", "count"},
	{"core.query_host_s", "s"},
	{"core.memo_hits", "count"},
	{"core.memo_misses", "count"},
	{"core.memo_fast_copies", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.load_samples", "count"},
	{"core.load_host_s", "s"},
	{"core.est_err_p50_pct", "%"},
	{"core.est_err_p99_pct", "%"},

	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.dirty_evictions", "count"},

	{"vfs.faults", "count"},
	{"vfs.readahead_pages", "count"},
	{"vfs.pages_written", "count"},
	{"vfs.iowait_s", "s"},
	{"vfs.retries", "count"},
	{"vfs.retry_wait_s", "s"},
	{"vfs.eios", "count"},

	{"device.reads", "count"},
	{"device.writes", "count"},
	{"device.bytes", "B"},
	{"device.vbusy_s", "s"},
	{"device.host_s", "s"},

	{"iosched.events", "count"},
	{"iosched.run_host_s", "s"},
	{"iosched.self_host_s", "s"},
	{"iosched.host_ns_per_event", "ns"},
	{"iosched.allocs_per_event", "count"},
	{"iosched.sched_calls", "count"},
	{"iosched.sched_host_s", "s"},
	{"iosched.vqueue_wait_p50_ms", "ms"},
	{"iosched.vqueue_wait_p99_ms", "ms"},
	{"iosched.max_queue_depth", "count"},

	{"trace.records", "count"},
	{"trace.gen_host_s", "s"},
	{"trace.compile_host_s", "s"},
	{"trace.io_errors", "count"},

	{"fleet.reads", "count"},
	{"fleet.step_host_s", "s"},
	{"fleet.attempts", "count"},
	{"fleet.hedged", "count"},
	{"fleet.failed", "count"},
	{"fleet.probes", "count"},
	{"fleet.errs", "count"},

	{"faults.injected", "count"},

	{"vwrite_p50_ms", "ms"},
	{"vwrite_p99_ms", "ms"},
	{"fail_frac", "ratio"},

	{"bench.ops_per_pass", "count"},
	{"bench.vread_samples", "count"},
	{"bench.vread_tail_pct", "%"},
	{"bench.vwrite_samples", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

// metricDef names one metric of the benchmark. The two tables below are
// the program's side of BENCHMARK.json: every run prints each end-to-end
// metric (untraced run) or each per-layer metric (traced run) exactly
// once, and the package test asserts the tables and the JSON file agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees: the same names on every
// workload. The share of failed jobs travels in the result's
// attempted/failed fields (a gated metric may never be 0, and that share
// is 0 today); it is also printed per layer as bench.job_failed_share.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_wall_ms", "ms", "lower"},
	{"job_cpu_ms", "ms", "lower"},
	{"job_alloc_mb", "MB", "lower"},
}

// perLayer carries the module name as prefix. Per job unless the name
// says otherwise; probes (direct calls into one layer) end in a rate or a
// per-item cost.
var perLayer = []metricDef{
	// am: critical-path tiling of [DAG_SUBMITTED, DAG_FINISHED], means
	// over the traced jobs.
	{"am.startup_ms", "ms", "lower"},
	{"am.run_ms", "ms", "lower"},
	{"am.wait_ms", "ms", "lower"},
	{"am.finish_ms", "ms", "lower"},
	{"am.tasks", "count", "lower"},
	{"am.attempts_failed", "count", "lower"},
	{"am.job_wall_p90_ms", "ms", "lower"},

	{"cluster.alloc_wait_ms", "ms", "lower"},
	{"cluster.containers_allocated", "count", "lower"},
	{"cluster.reuse_ratio", "ratio", "higher"},
	{"cluster.sched_decisions_per_s", "1/s", "higher"},

	{"library.sort_ms", "ms", "lower"},
	{"library.merge_ms", "ms", "lower"},
	{"library.spills", "count", "lower"},
	{"library.records_shuffled", "count", "lower"},
	{"library.sort_ns_per_record", "ns", "lower"},
	{"library.sort_allocs_per_record", "count", "lower"},

	{"shuffle.fetch_ms", "ms", "lower"},
	{"shuffle.fetches", "count", "lower"},
	{"shuffle.bytes_raw", "B", "lower"},
	{"shuffle.bytes_wire", "B", "lower"},
	{"shuffle.increments", "count", "lower"},
	{"shuffle.fetch_retries", "count", "lower"},
	{"shuffle.fetch_mb_per_s", "MB/s", "higher"},

	{"dfs.bytes_read", "B", "lower"},
	{"dfs.bytes_written", "B", "lower"},
	{"dfs.read_mb_per_s", "MB/s", "higher"},
	{"dfs.write_mb_per_s", "MB/s", "higher"},

	{"hive.plan_ms", "ms", "lower"},
	{"relop.rows_emitted", "count", "lower"},
	{"relop.hashtable_builds", "count", "lower"},
	{"relop.filter_ns_per_row", "ns", "lower"},
	{"relop.project_ns_per_row", "ns", "lower"},
	{"relop.agg_ns_per_row", "ns", "lower"},
	{"relop.hashjoin_ns_per_row", "ns", "lower"},
	{"col.encode_ns_per_row", "ns", "lower"},
	{"col.decode_ns_per_row", "ns", "lower"},
	{"row.encode_ns_per_row", "ns", "lower"},

	{"service.queue_wait_ms", "ms", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.submit_us", "us", "lower"},
	{"service.dag_p50_ms", "ms", "lower"},
	{"service.dag_p90_ms", "ms", "lower"},
	{"service.dag_p99_ms", "ms", "lower"},
	{"service.within_25ms_share", "share", "higher"},
	{"service.rejected", "count", "lower"},

	{"mailbox.msgs_per_s", "1/s", "higher"},
	{"metrics.counter_add_ns", "ns", "lower"},
	{"timeline.record_ns", "ns", "lower"},
	{"timeline.events", "count", "lower"},

	{"bench.outside_am_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.modelled_wall_pct", "%", "lower"},
	{"bench.gc_cpu_pct", "%", "lower"},
	{"bench.peak_rss_mb", "MB", "lower"},
	{"bench.generator_late_ms", "ms", "lower"},
	{"bench.job_wall_iqr_pct", "%", "lower"},
	{"bench.job_failed_share", "share", "lower"},
	{"bench.jobs_traced", "count", "higher"},
}

package main

// layerMetric names a per-layer metric of the traced run and its unit.
type layerMetric struct{ name, unit string }

// perLayer is every metric the traced run reports, by module. A metric
// of a layer a workload does not exercise reads 0.
var perLayer = []layerMetric{
	// internal/server
	{"server.overhead_us", "us"}, {"server.rejected_503", "count"},
	// internal/parser
	{"parse.us", "us"},
	// plan cache (engine.go)
	{"plan.hit_ratio", "ratio"}, {"plan.bind_us", "us"},
	// result cache (engine.go)
	{"rcache.hit_ratio", "ratio"}, {"rcache.updated_ratio", "ratio"},
	{"rcache.rebuilt_ratio", "ratio"}, {"rcache.hit_us", "us"},
	// internal/eval, Fig. 9
	{"eval.fig9.us_per_iter", "us"}, {"eval.fig9.allocs_per_iter", "count"},
	{"eval.fig9.iters_per_query", "count"}, {"eval.fig9.seen_per_iter", "count"},
	{"eval.fig9.gprobes_per_query", "count"}, {"eval.fig9.gprobes_per_iter", "count"},
	{"eval.fig9.batches_per_iter", "count"},
	{"eval.fig9.deep_ms", "ms"}, {"eval.fig9.wide_ms", "ms"},
	// internal/eval, semi-naive and Magic Sets
	{"eval.magic.ms_per_query", "ms"}, {"eval.magic.rounds_per_query", "count"},
	// internal/eval, maintenance
	{"eval.maint.insert_us", "us"}, {"eval.maint.retract_us", "us"}, {"eval.maint.rebuild_ms", "ms"},
	// internal/storage
	{"storage.examined_per_query", "count"}, {"storage.lookups_per_query", "count"},
	{"storage.fullscans_per_query", "count"}, {"storage.examined_per_answer", "count"},
	{"storage.insert_ns_per_fact", "ns"},
	// internal/wal
	{"wal.ack_us", "us"}, {"wal.fsyncs_per_write", "count"},
	{"wal.records_per_group", "count"}, {"wal.recover_us_per_record", "us"},
	// internal/replica
	{"replica.apply_us_per_record", "us"}, {"replica.lag_epochs_max", "count"},
	{"replica.retries", "count"}, {"replica.barrier_wait_ms", "ms"},
	// subscribe.go
	{"sub.events_per_write", "count"}, {"sub.rows_per_event", "count"}, {"sub.rederive_us", "us"},
	// whole run. The read tail (of the traced reads), and the write
	// session's throughput, ack latency and visibility tail (over the
	// traced run's session): on a shared 2-vCPU machine they move too
	// much from run to run to gate on.
	{"read_p99_ms", "ms"}, {"write_facts_per_s", "1/s"}, {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
	{"visibility_lag_p99_ms", "ms"},
	{"attrib.residue_frac", "ratio"}, {"attrib.query_frac", "ratio"},
	{"trace.overhead_frac", "ratio"}, {"ops_failed_frac", "ratio"},
}

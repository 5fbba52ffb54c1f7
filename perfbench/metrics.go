package main

// metricDef is one reported metric: its unit and direction.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists the metrics every untraced run prints. A per-workload
// meaning where a metric's natural one does not apply is in README.md.
// Latency tails (tail.*) and the rate ladder's result are per-layer
// metrics: README.md gives the measured run-to-run spreads that keep them
// out of this list.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"quote_p50_ms", "ms", "lower"},
	{"award_p50_ms", "ms", "lower"},
	{"slo_met_frac", "ratio", "higher"},
	{"realized_yield", "value", "higher"},
	{"yield_ratio", "ratio", "higher"},
	{"cpu_ms_per_bid", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"sim_jobs_per_s", "1/s", "higher"},
}

// perLayer lists the metrics every traced run prints. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"tail.quote_p90_ms", "ms", "lower"},
	{"tail.quote_p99_ms", "ms", "lower"},
	{"tail.award_p90_ms", "ms", "lower"},
	{"tail.award_p99_ms", "ms", "lower"},
	{"ladder.max_rate_bids_per_s", "1/s", "higher"},
	{"gen.lag_ms_p99", "ms", "lower"},
	{"gen.queue_ms_p99", "ms", "lower"},
	{"gen.award_queue_ms_p99", "ms", "lower"},
	{"workload.generate_ms", "ms", "lower"},
	{"wire.client.bid_us_p50", "us", "lower"},
	{"wire.client.bid_us_p99", "us", "lower"},
	{"wire.client.award_us_p50", "us", "lower"},
	{"wire.client.award_us_p99", "us", "lower"},
	{"wire.client.dial_ms", "ms", "lower"},
	{"wire.server.bid_us_mean", "us", "lower"},
	{"wire.server.award_us_mean", "us", "lower"},
	{"wire.transport.bid_us_mean", "us", "lower"},
	{"wire.codec.encode_ns", "ns", "lower"},
	{"wire.codec.decode_ns", "ns", "lower"},
	{"wire.codec.allocs_per_frame", "count", "lower"},
	{"wire.codec.bytes_per_frame", "bytes", "lower"},
	{"site.snapshot.locked_quote_frac", "ratio", "lower"},
	{"site.snapshot.revalidate_miss_frac", "ratio", "lower"},
	{"site.snapshot.publishes_per_award", "count", "lower"},
	{"site.queue_depth_p50", "tasks", "lower"},
	{"site.queue_depth_p99", "tasks", "lower"},
	{"core.build_candidate_us", "us", "lower"},
	{"core.with_task_us", "us", "lower"},
	{"admission.evaluate_insertion_us", "us", "lower"},
	{"core.plan_starts_us", "us", "lower"},
	{"site.rank_ops_per_award", "count", "lower"},
	{"site.quote_reuse_frac", "ratio", "higher"},
	{"admission.accept_frac", "ratio", "higher"},
	{"site.shed_frac", "ratio", "lower"},
	{"site.lateness_units_mean", "units", "lower"},
	{"durable.records_per_sync", "count", "higher"},
	{"durable.syncs_per_award", "count", "lower"},
	{"durable.append_us", "us", "lower"},
	{"durable.sync_us_p50", "us", "lower"},
	{"durable.sync_us_p99", "us", "lower"},
	{"obs.ledger.open_settle_ns", "ns", "lower"},
	{"broker.site_rpcs_per_bid", "count", "lower"},
	{"broker.route_fallback_frac", "ratio", "lower"},
	{"broker.hedge_frac", "ratio", "lower"},
	{"broker.candidates_mean", "count", "lower"},
	{"broker.overhead_us_mean", "us", "lower"},
	{"broker.digest_age_ms_p99", "ms", "lower"},
	{"broker.award_share_max", "ratio", "lower"},
	{"sim.events_per_job", "count", "lower"},
	{"sim.rank_ops_per_job", "count", "lower"},
	{"sim.quote_builds_per_job", "count", "lower"},
	{"sim.preemptions_per_job", "count", "lower"},
	{"sim.pending_p99", "tasks", "lower"},
	{"core.rank_order_us", "us", "lower"},
	{"self.bid_us", "us", "lower"},
	{"self.gen.queue_us", "us", "lower"},
	{"self.wire.client.bid_us", "us", "lower"},
	{"self.award.queue_us", "us", "lower"},
	{"self.wire.client.award_us", "us", "lower"},
	{"self.sim.run_us", "us", "lower"},
	{"self.site.submit_us", "us", "lower"},
	{"self.sim.step_us", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

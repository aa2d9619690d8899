package main

// metricDef names one metric and its unit. BENCHMARK.json carries the same
// names with their bounds; the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them (README.md says from which phase).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_chunks_per_s", "chunks/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"query_per_s", "ops/s"},
	{"query_p50_ms", "ms"},
	{"agg_p50_ms", "ms"},
	{"points_p50_ms", "ms"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"live_heap_bytes_per_chunk", "B/chunk"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	{"core.keystream_ns_per_chunk", "ns"},
	{"core.decrypt_ns_per_window", "ns"},
	{"chunk.seal_ns_per_chunk", "ns"},
	{"chunk.seal_alloc_bytes_per_chunk", "B"},
	{"chunk.open_ns_per_chunk", "ns"},
	{"chunk.sealed_bytes_per_chunk", "B"},
	{"wire.encode_ns_per_batch", "ns"},
	{"wire.decode_ns_per_batch", "ns"},
	{"wire.bytes_per_chunk", "B"},
	{"wire.transit_us_per_req", "us"},
	{"client.append_ns_per_chunk", "ns"},
	{"client.backpressure_share", "ratio"},
	{"client.batches_inflight_mean", "count"},
	{"client.query_self_us", "us"},
	{"client.agg_page_ms", "ms"},
	{"server.handle_us_per_batch", "us"},
	{"server.self_us_per_chunk", "us"},
	{"server.insert_ns_per_chunk", "ns"},
	{"server.insert_alloc_bytes_per_chunk", "B"},
	{"server.aggrange_us", "us"},
	{"server.busy_refusals", "count"},
	{"index.append_ns_per_chunk", "ns"},
	{"index.query_ns", "ns"},
	{"index.cache_hit_ratio", "ratio"},
	{"index.store_gets_per_query", "count"},
	{"kv.batch_ns_per_op", "ns"},
	{"kv.puts_per_chunk", "count"},
	{"kv.gets_per_query", "count"},
	{"kv.store_bytes_per_chunk", "B"},
	{"durable.commit_wait_p50_ms", "ms"},
	{"durable.commit_wait_p99_ms", "ms"},
	{"durable.records_per_fsync", "count"},
	{"durable.fsyncs_per_chunk", "count"},
	{"durable.wal_bytes_per_user_byte", "ratio"},
	{"durable.batch_ns_per_op", "ns"},
	{"durable.reopen_s", "s"},
	{"replica.leader_handle_p50_ms", "ms"},
	{"replica.self_ms_per_batch", "ms"},
	{"replica.follower_apply_p50_ms", "ms"},
	{"replica.appends_per_batch", "count"},
	{"replica.records_per_append", "count"},
	{"replica.watermark_lag_end", "count"},
	{"replica.tax_ratio", "ratio"},
	{"cluster.route_overhead_us_per_req", "us"},
	{"cluster.legs_per_agg", "count"},
	{"cluster.shard_skew", "ratio"},
	{"workload.gen_ns_per_chunk", "ns"},
	{"workload.sched_lag_p99_ms", "ms"},
	{"tail.ingest_ack_p99_ms", "ms"},
	{"tail.query_p99_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

package main

// metricSpec names one reported number. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds;
// a test keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base's median it may worsen by
}

// endToEnd is what a user of plad observes. Every workload reports
// every one of them; what the workload's operation ("op") is, is part
// of the workload: an upload session dial → ack on ingest-smooth,
// ingest-rough and uplink-durable (where the ack is fsync-gated), one
// query of the mix on query-archive and query-under-ingest.
// ops_per_s counts points on the two bulk-ingest workloads, sessions on
// uplink-durable and queries on the query workloads.
//
// Every timing's bound is the widest a driver accepts, a quarter: on
// this shared two-core box identical runs usually spread over 3 to 12%,
// but for minutes at a time the host's disk and processors slow the
// write-heavy workloads by a third (README, caveats).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_point", "B", "lower", 0.05},
	{"disk_bytes_per_point", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
}

// perLayer is one layer's work, cost or waste. The "scrape" ones come
// from plad's /metrics, /proc and the harness's own clocks around the
// workload's timed region and read 0 on a workload that does not use
// the layer; the "trace" ones come from the in-process layer trace
// (layers.go) and are the same whichever workload ran beside them.
var perLayer = []metricSpec{
	// core — trace: Swing.Push/Finish over the two ingest inputs.
	{Name: "core.push_ns_per_point_smooth", Unit: "ns", Better: "lower"},
	{Name: "core.push_ns_per_point_rough", Unit: "ns", Better: "lower"},
	{Name: "core.points_per_segment", Unit: "count", Better: "higher"}, // scrape: this workload's ingest
	// encode — trace, over bytes.Buffer.
	{Name: "encode.segment_ns", Unit: "ns", Better: "lower"},
	{Name: "encode.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "encode.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "encode.record_ns", Unit: "ns", Better: "lower"},
	{Name: "encode.wire_bytes_per_segment", Unit: "B", Better: "lower"},
	// transport — trace.
	{Name: "transport.send_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_ns_per_segment", Unit: "ns", Better: "lower"},
	// server — trace (replay, session) and scrape (the rest).
	{Name: "server.replay_segments_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.session_us", Unit: "us", Better: "lower"},
	{Name: "server.segments_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.cpu_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "server.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "server.stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_at_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_at_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.query_scan_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_scan_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.query_agg_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_agg_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.query_aggbound_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_aggbound_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.query_quantile_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_quantile_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.gen_lateness_max_ms", Unit: "ms", Better: "lower"},
	// wal — trace (append, commit, open) and scrape.
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_us_always", Unit: "us", Better: "lower"},
	{Name: "wal.commit_us_interval", Unit: "us", Better: "lower"},
	{Name: "wal.open_ms_per_msegment", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_segment", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.barriers_per_commit", Unit: "count", Better: "higher"},
	// tsdb — trace.
	{Name: "tsdb.append_ns", Unit: "ns", Better: "lower"},
	{Name: "tsdb.at_ns", Unit: "ns", Better: "lower"},
	{Name: "tsdb.scan_us_per_ksegment", Unit: "us", Better: "lower"},
	{Name: "tsdb.rollup_ns_per_segment", Unit: "ns", Better: "lower"},
	// mmapstore — trace (seal, compact, open, search) and scrape.
	{Name: "mmapstore.seal_ns_per_segment_smooth", Unit: "ns", Better: "lower"},
	{Name: "mmapstore.seal_ns_per_segment_rough", Unit: "ns", Better: "lower"},
	{Name: "mmapstore.compact_ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "mmapstore.open_ms_per_msegment", Unit: "ms", Better: "lower"},
	{Name: "mmapstore.search_ns_uncompacted", Unit: "ns", Better: "lower"},
	{Name: "mmapstore.search_ns_compacted", Unit: "ns", Better: "lower"},
	{Name: "mmapstore.disk_bytes_per_segment", Unit: "B", Better: "lower"},
	{Name: "mmapstore.compactions", Unit: "count", Better: "lower"},
	{Name: "mmapstore.rewrite_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mmapstore.index_jump_ratio", Unit: "ratio", Better: "higher"},
	// sketch — trace.
	{Name: "sketch.build_block_us", Unit: "us", Better: "lower"},
	{Name: "sketch.merge_us", Unit: "us", Better: "lower"},
	{Name: "sketch.segagg_ns", Unit: "ns", Better: "lower"},
	// query — trace (hot/cold, tierfor) and scrape.
	{Name: "query.agg_hot_us", Unit: "us", Better: "lower"},
	{Name: "query.agg_cold_us", Unit: "us", Better: "lower"},
	{Name: "query.quantile_hot_us", Unit: "us", Better: "lower"},
	{Name: "query.quantile_cold_us", Unit: "us", Better: "lower"},
	{Name: "query.tierfor_ns", Unit: "ns", Better: "lower"},
	{Name: "query.windows_cached_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.segments_walked_per_query", Unit: "count", Better: "lower"},
	{Name: "query.tier_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.cold_agg_p50_us", Unit: "us", Better: "lower"},
	// udpingest — trace only; no end-to-end workload uses UDP yet.
	{Name: "udpingest.session_us", Unit: "us", Better: "lower"},
	{Name: "udpingest.points_per_s", Unit: "1/s", Better: "higher"},
	// The ladder: in-process end-to-end time not accounted for by any
	// layer's self time (queueing, scheduling, syscalls), and what
	// recording the spans cost.
	{Name: "trace.ladder_gap_ratio_smooth", Unit: "ratio", Better: "lower"},
	{Name: "trace.ladder_gap_ratio_rough", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

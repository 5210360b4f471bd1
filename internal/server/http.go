package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the server's observability endpoint: `/metrics` in the
// Prometheus text exposition format (per-shard queue depth, applied
// and rejected segments, WAL bytes and fsync counts — everything
// ShardMetrics carries) and `/healthz`, which reports 200 `ok` once
// Serve holds a listener, 503 `starting` before that and 503
// `draining` once Shutdown has begun. plad serves it on -http; embedders
// can mount it on their own mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/metrics", s.serveMetrics)
	return mux
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing, listening := s.closing, len(s.lns) > 0
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case closing:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !listening:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
	default:
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP plad_sessions_active Ingest sessions streaming right now.\n# TYPE plad_sessions_active gauge\nplad_sessions_active %d\n", m.ActiveSessions)
	fmt.Fprintf(w, "# HELP plad_sessions_total Ingest handshakes accepted over the server's lifetime.\n# TYPE plad_sessions_total counter\nplad_sessions_total %d\n", m.TotalSessions)

	// Per-transport attribution: which wire sessions and segments came
	// in over. TCP is the framed stream protocol, UDP the datagram
	// transport (ListenUDP).
	fmt.Fprintf(w, "# HELP plad_transport_sessions_total Ingest sessions accepted, by transport.\n# TYPE plad_transport_sessions_total counter\n")
	fmt.Fprintf(w, "plad_transport_sessions_total{transport=\"tcp\"} %d\n", m.TotalSessions-m.UDPSessions)
	fmt.Fprintf(w, "plad_transport_sessions_total{transport=\"udp\"} %d\n", m.UDPSessions)
	fmt.Fprintf(w, "# HELP plad_transport_segments_total Segments accepted into the shard pipeline, by transport.\n# TYPE plad_transport_segments_total counter\n")
	fmt.Fprintf(w, "plad_transport_segments_total{transport=\"tcp\"} %d\n", m.TCPSegments)
	fmt.Fprintf(w, "plad_transport_segments_total{transport=\"udp\"} %d\n", m.UDPSegments)

	// Datagram-transport health: drops and dups are normal under loss —
	// the go-back-N window absorbs them — but a rising drop rate with a
	// full inbox means the archive path, not the network, is the
	// bottleneck.
	fmt.Fprintf(w, "# HELP plad_udp_datagrams_total Well-formed datagrams received by the UDP ingest listeners.\n# TYPE plad_udp_datagrams_total counter\nplad_udp_datagrams_total %d\n", m.UDP.Datagrams)
	fmt.Fprintf(w, "# HELP plad_udp_drops_total Datagrams dropped: malformed, unroutable, or shed by inbox backpressure.\n# TYPE plad_udp_drops_total counter\nplad_udp_drops_total %d\n", m.UDP.Drops)
	fmt.Fprintf(w, "# HELP plad_udp_dups_total Retransmitted datagrams carrying already-delivered data.\n# TYPE plad_udp_dups_total counter\nplad_udp_dups_total %d\n", m.UDP.Dups)
	fmt.Fprintf(w, "# HELP plad_udp_out_of_window_total Datagrams too far ahead of the reassembly window to buffer.\n# TYPE plad_udp_out_of_window_total counter\nplad_udp_out_of_window_total %d\n", m.UDP.OutOfWindow)

	emit := func(name, typ, help string, val func(ShardMetrics) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, sm := range m.Shards {
			fmt.Fprintf(w, "%s{shard=%s} %d\n", name, strconv.Quote(strconv.Itoa(sm.Shard)), val(sm))
		}
	}
	gauge := func(name, help string, val func(ShardMetrics) int64) { emit(name, "gauge", help, val) }
	counter := func(name, help string, val func(ShardMetrics) int64) { emit(name, "counter", help, val) }

	gauge("plad_shard_queue_depth", "Jobs waiting on the shard queue right now.",
		func(sm ShardMetrics) int64 { return int64(sm.QueueLen) })
	gauge("plad_shard_queue_capacity", "Shard queue capacity.",
		func(sm ShardMetrics) int64 { return int64(sm.QueueCap) })
	counter("plad_shard_segments_total", "Segments applied to the archive.",
		func(sm ShardMetrics) int64 { return sm.Segments })
	counter("plad_shard_points_total", "Original samples represented by applied segments.",
		func(sm ShardMetrics) int64 { return sm.Points })
	counter("plad_shard_rejected_total", "Segments refused (time order, or failed write-ahead).",
		func(sm ShardMetrics) int64 { return sm.Rejected })
	counter("plad_shard_wire_bytes_total", "Wire bytes attributed to the shard.",
		func(sm ShardMetrics) int64 { return sm.Bytes })
	counter("plad_shard_barriers_total", "Barriers acknowledged (session stream ends and fences).",
		func(sm ShardMetrics) int64 { return sm.Barriers })
	counter("plad_shard_commits_total", "WAL commit batches; barriers/commits is the group-commit factor.",
		func(sm ShardMetrics) int64 { return sm.Commits })
	counter("plad_shard_wal_bytes_total", "Bytes appended to the shard's WAL partition.",
		func(sm ShardMetrics) int64 { return sm.WALBytes })
	counter("plad_shard_wal_fsyncs_total", "Fsyncs issued by the shard's WAL partition.",
		func(sm ShardMetrics) int64 { return sm.Fsyncs })
	gauge("plad_shard_lag_sessions", "Active ingest sessions that advertised a max-lag bound.",
		func(sm ShardMetrics) int64 { return sm.LagSessions })
	gauge("plad_shard_lag_pending_points", "Points covered only provisionally across the shard's lag-bounded sessions (last received minus last finalized; each session's staleness stays below its advertised bound).",
		func(sm ShardMetrics) int64 { return sm.LagPoints })
	counter("plad_shard_lag_updates_total", "Provisional max-lag receiver updates applied.",
		func(sm ShardMetrics) int64 { return sm.LagUpdates })
	counter("plad_shard_shed_points_total", "Points retune-capable senders reported decimating ahead of their filter, by the fed shard.",
		func(sm ShardMetrics) int64 { return sm.ShedPoints })

	// Graceful-degradation health: how many sessions can be renegotiated,
	// how often the server has asked, and the worst honest-precision
	// inflation right now. A plad_session_eps_effective pinned above 1 is
	// the signal that queries are running wider than their contracts.
	fmt.Fprintf(w, "# HELP plad_retune_sessions Live retune-capable ingest sessions.\n# TYPE plad_retune_sessions gauge\nplad_retune_sessions %d\n", m.RetuneSessions)
	fmt.Fprintf(w, "# HELP plad_retune_frames_total Renegotiation frames written to retune-capable sessions.\n# TYPE plad_retune_frames_total counter\nplad_retune_frames_total %d\n", m.RetuneFrames)
	fmt.Fprintf(w, "# HELP plad_session_eps_effective Worst effective-ε inflation ratio (announced effective ε over handshake contract) across live retune sessions; 1 while nothing is degraded.\n# TYPE plad_session_eps_effective gauge\nplad_session_eps_effective %g\n", m.EpsEffectiveMax)

	// Query-engine pushdown counters: how AGG/QUANTILE ranges were
	// covered. cached+built windows vs walked segments is the
	// pushdown-vs-scan ratio — a healthy read path answers mostly from
	// summary windows (sidecars and memos), walking only range edges
	// and unsealed tails.
	qc := s.engine.Counters()
	emitc := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	emitc("plad_query_agg_total", "AGG pushdown queries answered.", qc.AggQueries)
	emitc("plad_query_quantile_total", "QUANTILE pushdown queries answered.", qc.QuantileQueries)
	emitc("plad_query_windows_cached_total", "Summary windows served from a cache (mmap sidecar or series memo).", qc.CachedWindows)
	emitc("plad_query_windows_built_total", "Summary windows built from segments on demand.", qc.BuiltWindows)
	emitc("plad_query_segments_walked_total", "Segments folded individually (range edges, partial windows, unsealed tails).", qc.WalkedSegments)

	// Rollup-tier health: builds and re-encoded segments say the sweep is
	// keeping tiers fresh; tier hits say bound-carrying queries actually
	// land on them.
	if m.RollupActive {
		emitc("plad_rollup_builds_total", "Rollup passes that extended or rebuilt a tier.", m.RollupBuilds)
		emitc("plad_rollup_segments_total", "Coarse segments written by rollup passes.", m.RollupSegments)
		emitc("plad_rollup_tier_hits_total", "Query computations served from a rollup tier instead of the base series.", qc.TierHits)
	}

	// Extent-store counters (mmap backend only): the compaction policy,
	// observable in production.
	if m.MStoreActive {
		fmt.Fprintf(w, "# HELP plad_mstore_extents Live mapped extent files across open series stores.\n# TYPE plad_mstore_extents gauge\nplad_mstore_extents %d\n", m.MStore.Extents)
		emitc("plad_mstore_compactions_total", "Background extent merges committed.", int64(m.MStore.Compactions))
		emitc("plad_mstore_compacted_bytes_total", "Bytes of small extent files merged away by compaction.", int64(m.MStore.CompactedBytes))
		if m.RollupActive {
			fmt.Fprintf(w, "# HELP plad_rollup_extents Live mapped extent files belonging to rollup tiers.\n# TYPE plad_rollup_extents gauge\nplad_rollup_extents %d\n", m.MStore.RollupExtents)
		}
	}
}

// MetricNames lists every metric name `/metrics` can emit, in exposition
// order. It is the contract the operations documentation is checked
// against (`make docs-check`), and a test asserts it matches a live
// scrape of a fully-featured server so the two cannot drift.
func MetricNames() []string {
	return []string{
		"plad_sessions_active",
		"plad_sessions_total",
		"plad_transport_sessions_total",
		"plad_transport_segments_total",
		"plad_udp_datagrams_total",
		"plad_udp_drops_total",
		"plad_udp_dups_total",
		"plad_udp_out_of_window_total",
		"plad_shard_queue_depth",
		"plad_shard_queue_capacity",
		"plad_shard_segments_total",
		"plad_shard_points_total",
		"plad_shard_rejected_total",
		"plad_shard_wire_bytes_total",
		"plad_shard_barriers_total",
		"plad_shard_commits_total",
		"plad_shard_wal_bytes_total",
		"plad_shard_wal_fsyncs_total",
		"plad_shard_lag_sessions",
		"plad_shard_lag_pending_points",
		"plad_shard_lag_updates_total",
		"plad_shard_shed_points_total",
		"plad_retune_sessions",
		"plad_retune_frames_total",
		"plad_session_eps_effective",
		"plad_query_agg_total",
		"plad_query_quantile_total",
		"plad_query_windows_cached_total",
		"plad_query_windows_built_total",
		"plad_query_segments_walked_total",
		"plad_rollup_builds_total",
		"plad_rollup_segments_total",
		"plad_rollup_tier_hits_total",
		"plad_mstore_extents",
		"plad_mstore_compactions_total",
		"plad_mstore_compacted_bytes_total",
		"plad_rollup_extents",
	}
}

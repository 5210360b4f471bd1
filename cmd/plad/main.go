// Command plad runs the PLA ingestion daemon: a TCP server that accepts
// many concurrent sensor connections, each streaming ε-filtered segments
// for one named series, routes them through sharded filter workers into
// an in-memory tsdb archive, and answers line-oriented range/aggregate
// queries with the ±ε bounds the precision contracts guarantee.
//
// Usage:
//
//	plad [-addr :7070] [-shards 8] [-queue 1024]
//	     [-policy block|sample]
//	     [-eps-budget BYTES_PER_SEC] [-retune-every 1s]
//	     [-transport tcp|udp] [-udp-listeners N]
//	     [-data-dir DIR] [-store mem|mmap]
//	     [-rollup-tiers 4,16]
//	     [-sync always|interval|off] [-sync-every 50ms]
//	     [-compact-bytes N] [-retain T] [-http ADDR]
//	plad -list-flags | -list-metrics
//
// plad serves until SIGINT/SIGTERM, then drains its shard queues and
// exits. With -data-dir the archive is durable through a
// partitioned commit pipeline: each ingest shard owns its own
// `shard-<k>/` write-ahead log, so appends and fsyncs run in parallel,
// and under -sync always each shard batches every session barrier
// queued since its last sync into one fsync (group commit). On boot
// plad recovers all partitions concurrently (snapshot load → WAL replay
// with torn-tail truncation → serve), transparently migrating a
// pre-partitioning single-log directory or a directory written with a
// different -shards value. Each shard compacts its own log into fresh
// snapshots as it grows (dropping segments older than the -retain
// window, if set), and a graceful drain leaves one clean snapshot per
// shard. -http serves /metrics (Prometheus text: per-shard queue depth,
// WAL bytes, fsync and group-commit counts) and /healthz.
// -store mmap swaps the heap-resident segment store for the
// read-optimized extent store: sealed segments live in memory-mapped,
// checksummed files under <data-dir>/mstore, compaction seals instead
// of snapshotting (and merges a series' runs of small extents at a
// fixed policy: from 8 extents up, toward 65536 records each), and a
// cold start maps the extents and replays only the WAL tail. A
// directory written by the other backend migrates in one shot on boot.
// -transport udp additionally opens the datagram ingest endpoint on the
// same port number as -addr: -udp-listeners
// SO_REUSEPORT sockets (one per core by default) accept PLU1 sessions
// that land in the same shard pipeline, write-ahead log and archive as
// TCP sessions; stream ingest and queries stay on TCP either way.
// -rollup-tiers enables precision rollups: every compaction sweep
// re-encodes each series' finalized prefix at the listed multiples of
// its ingest ε (derived tiers, invisible to SERIES and "*"), and
// queries carrying a BOUND argument are answered from the coarsest tier
// whose composed bound still satisfies it — far fewer segments read,
// honest wider band on the reply. Full shard queues always apply
// backpressure; no segment is shed. -policy sample adds graceful
// degradation on top: the retune loop tells retune-capable senders to
// decimate points ahead of their filter, walking a stride
// ladder with queue fill; the senders report the measured effective-ε
// inflation, which queries surface and /metrics exports
// (plad_session_eps_effective). -eps-budget additionally caps total
// ingest bytes/s by widening session ε burden-proportionally and
// relaxing back under budget; -retune-every sets the loop's cadence.
// -list-flags and -list-metrics print
// the daemon's flag and /metrics name inventories (one per line) and
// exit; `make docs-check` diffs them against the documentation.
//
// The end-to-end self-check of the sensor → server → query loop lives in
// this package's tests: `go test ./cmd/plad -run TestDemo -v`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/pla-go/pla/internal/server"
	"github.com/pla-go/pla/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", ":7070", "listen address")
		shards       = flag.Int("shards", 8, "filter worker shards")
		queue        = flag.Int("queue", 1024, "per-shard queue depth (segments)")
		policy       = flag.String("policy", "block", "overload policy: block (backpressure) or sample (backpressure + retune-capable senders decimate, spending precision instead of losing intervals)")
		epsBudget    = flag.Float64("eps-budget", 0, "total ingest byte-rate budget in bytes/s across retune-capable sessions: when exceeded, session ε widens burden-proportionally (up to 16× contract) and relaxes back under budget (0 = disabled)")
		retuneEvery  = flag.Duration("retune-every", time.Second, "how often the retune loop reassesses session degradation (-policy sample or -eps-budget)")
		dataDir      = flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
		storeBackend = flag.String("store", "mem", "segment store backend: mem (heap) or mmap (memory-mapped sealed extents; needs -data-dir)")
		syncPolicy   = flag.String("sync", "interval", "WAL fsync policy with -data-dir: always (ack-after-fsync), interval, off")
		syncEvery    = flag.Duration("sync-every", 50*time.Millisecond, "background WAL flush/fsync cadence for -sync interval|off")
		compactBytes = flag.Int64("compact-bytes", 64<<20, "snapshot+truncate a shard's WAL when its tail exceeds this many bytes")
		retain       = flag.Float64("retain", 0, "retention window in stream-time units; compaction drops older segments (0 = keep everything)")
		rollupTiers  = flag.String("rollup-tiers", "", "comma-separated precision multipliers (e.g. 4,16): each compaction sweep maintains a rollup tier per multiplier, and BOUND queries select the coarsest tier that satisfies them (empty = no rollups)")
		transport    = flag.String("transport", "tcp", "ingest transport: tcp, or udp (adds the datagram endpoint on -addr's port; TCP keeps serving streams and queries)")
		udpListeners = flag.Int("udp-listeners", 0, "SO_REUSEPORT datagram listeners with -transport udp (0 = one per core)")
		httpAddr     = flag.String("http", "", "serve /metrics and /healthz on this address (empty = disabled)")
		listFlags    = flag.Bool("list-flags", false, "print every plad flag name, one per line, and exit (docs-check input)")
		listMetrics  = flag.Bool("list-metrics", false, "print every /metrics series name, one per line, and exit (docs-check input)")
	)
	flag.Parse()

	if *listFlags {
		flag.VisitAll(func(f *flag.Flag) { fmt.Println(f.Name) })
		return
	}
	if *listMetrics {
		for _, name := range server.MetricNames() {
			fmt.Println(name)
		}
		return
	}

	cfg := server.Config{
		Shards:         *shards,
		QueueDepth:     *queue,
		DataDir:        *dataDir,
		SyncEvery:      *syncEvery,
		CompactBytes:   *compactBytes,
		RetainSegments: *retain,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "plad: "+format+"\n", args...)
		},
	}
	switch *policy {
	case "block":
		cfg.Policy = server.Block
	case "sample":
		cfg.Policy = server.Sample
	default:
		fatal(fmt.Errorf("unknown -policy %q (want block or sample)", *policy))
	}
	cfg.EpsBudget = *epsBudget
	cfg.RetunePeriod = *retuneEvery
	if *dataDir != "" {
		sp, err := wal.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			fatal(err)
		}
		cfg.Sync = sp
	}
	backend, err := server.ParseStoreBackend(*storeBackend)
	if err != nil {
		fatal(err)
	}
	cfg.StoreBackend = backend
	if cfg.RollupTiers, err = parseTiers(*rollupTiers); err != nil {
		fatal(err)
	}

	switch *transport {
	case "tcp", "udp":
	default:
		fatal(fmt.Errorf("unknown -transport %q (want tcp or udp)", *transport))
	}

	s, err := server.New(nil, cfg)
	if err != nil {
		fatal(err)
	}
	if *transport == "udp" {
		ua, err := s.ListenUDP(*addr, *udpListeners)
		if err != nil {
			fatal(fmt.Errorf("udp ingest: %w", err))
		}
		fmt.Printf("plad: udp ingest on %s\n", ua)
	}
	var httpLn net.Listener
	if *httpAddr != "" {
		httpLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(fmt.Errorf("http listener: %w", err))
		}
		fmt.Printf("plad: metrics on http://%s/metrics\n", httpLn.Addr())
		go http.Serve(httpLn, s.Handler())
	}
	done := make(chan error, 1)
	go func() {
		durable := "in-memory"
		if cfg.DataDir != "" {
			durable = fmt.Sprintf("data-dir %s, store %s, sync %s", cfg.DataDir, cfg.StoreBackend, cfg.Sync)
		}
		fmt.Printf("plad: listening on %s (%d shards, queue %d, policy %s, %s)\n",
			*addr, cfg.Shards, cfg.QueueDepth, cfg.Policy, durable)
		done <- s.ListenAndServe(*addr)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal(err)
	case <-sig:
		fmt.Println("plad: draining…")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			// The drain still completed — Shutdown only reports that live
			// sessions had to be force-closed at the deadline. A routine
			// restart of a busy daemon is not a failure.
			fmt.Fprintln(os.Stderr, "plad: drain deadline reached, open sessions force-closed:", err)
		}
		if httpLn != nil {
			httpLn.Close()
		}
		m := s.Metrics()
		fmt.Printf("plad: stored %d segments (%d points, %d B on the wire) across %d sessions\n",
			m.Segments, m.Points, m.Bytes, m.TotalSessions)
	}
}

// parseTiers parses the -rollup-tiers ladder: comma-separated integer
// precision multipliers, each at least 2.
func parseTiers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var tiers []int
	for _, word := range strings.Split(s, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(word))
		if err != nil || m < 2 {
			return nil, fmt.Errorf("bad -rollup-tiers %q: want comma-separated integer multipliers ≥ 2", s)
		}
		tiers = append(tiers, m)
	}
	return tiers, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plad:", err)
	os.Exit(1)
}

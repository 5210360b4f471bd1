// Package server implements plad, a concurrent multi-client network
// ingestion server for ε-filtered streams — the central repository of the
// paper's monitoring scenario (Section 1). Many sensors connect over TCP,
// each declaring a series name and a precision contract in a handshake;
// only finalized segments cross the wire (the transport half the paper's
// bandwidth argument rests on), and the server routes them through a
// fixed pool of sharded workers — series-name hash → shard, one goroutine
// per shard, bounded queues with a configurable overload policy — into a
// shared tsdb archive that answers range and aggregate queries with the
// ±ε bounds the precision contract guarantees.
package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/query"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/tsdb/mmapstore"
	"github.com/pla-go/pla/internal/udpingest"
	"github.com/pla-go/pla/internal/wal"
)

// StoreBackend selects the SegmentStore implementation behind the
// archive's series.
type StoreBackend int

const (
	// BackendMem (the default) keeps every segment on the Go heap —
	// fastest appends, full heap residency for the whole archive.
	BackendMem StoreBackend = iota
	// BackendMmap keeps sealed segments in memory-mapped, checksummed
	// extent files (internal/tsdb/mmapstore) and only the unsealed tail
	// on the heap: queries binary-search the mapping, recovery maps the
	// extents instead of decoding a snapshot, and the page cache —
	// not the heap — holds cold data. Requires a DataDir.
	BackendMmap
)

// String names the backend for flags and logs.
func (b StoreBackend) String() string {
	if b == BackendMmap {
		return "mmap"
	}
	return "mem"
}

// ParseStoreBackend maps a flag word onto a backend.
func ParseStoreBackend(s string) (StoreBackend, error) {
	switch s {
	case "mem":
		return BackendMem, nil
	case "mmap":
		return BackendMmap, nil
	default:
		return 0, fmt.Errorf("server: unknown store backend %q (want mem or mmap)", s)
	}
}

// Config parameterises a Server. The zero value is usable (in-memory,
// no durability).
type Config struct {
	// Shards is the number of filter workers (default 8). Segments of one
	// series always land on one shard, so appends need no series lock
	// contention across workers.
	Shards int
	// QueueDepth is each shard's bounded queue length in segments
	// (default 1024).
	QueueDepth int
	// Policy selects plain backpressure (Block, default) or backpressure
	// plus sender-side decimation (Sample) when a shard queue is full.
	Policy OverloadPolicy
	// DataDir, when set, makes the archive durable: New recovers the
	// directory's snapshot + write-ahead log into db before serving,
	// shard workers write every segment ahead of applying it, and
	// Shutdown leaves a clean snapshot behind.
	DataDir string
	// StoreBackend selects how series keep their segments (BackendMem
	// default). BackendMmap requires a DataDir and that New builds the
	// archive itself (pass a nil db): sealed segments then live in
	// memory-mapped extent files, compaction seals instead of
	// snapshotting, and recovery maps instead of decoding.
	StoreBackend StoreBackend
	// Sync is the WAL fsync policy (wal.SyncInterval default). Under
	// wal.SyncAlways a session's final ack is written only after its
	// segments are fsynced.
	Sync wal.SyncPolicy
	// SyncEvery is the background flush/fsync cadence for the interval
	// policies (default 50ms).
	SyncEvery time.Duration
	// CompactBytes triggers snapshot+truncate compaction of a shard when
	// that shard's WAL tail grows past it (default 64 MiB; negative
	// disables automatic compaction). Each shard compacts independently:
	// rotate its own log, fence only its own worker, snapshot only its
	// own series.
	CompactBytes int64
	// RetainSegments, when positive, is the retention window in
	// stream-time units: compaction (and recovery) drops a series'
	// oldest segments once their end time falls more than this far
	// behind the series' newest covered time. Zero keeps everything.
	RetainSegments float64
	// RollupTiers is the rollup precision ladder: for each multiplier m
	// (> 1) listed, WAL compaction re-encodes every sealed series at
	// m× its base ε into a rollup tier, and bound-carrying queries may
	// be answered from the coarsest tier whose precision still fits the
	// requested bound. Empty disables rollups.
	RollupTiers []int
	// EpsBudget, when positive, is a total ingest byte-rate budget
	// (bytes per second) across retune-capable sessions: whenever the
	// observed rate exceeds it, the retune loop widens session ε
	// burden-proportionally (up to 16× contract) and relaxes back to
	// contract when the rate falls. Sessions opened by plain clients
	// are unaffected.
	EpsBudget float64
	// RetunePeriod is how often the retune loop reassesses session
	// degradation (default 1s). It only matters under the Sample policy
	// or with an EpsBudget.
	RetunePeriod time.Duration
	// Logf, when set, receives one line per abnormal session end and per
	// recovery/compaction event.
	Logf func(format string, args ...any)

	// extents is the mmap backend's extent compaction policy. It is
	// zero — the backend's defaults — except in tests that force a
	// fragmented or aggressively merged archive (export_test.go).
	extents mmapstore.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.CompactBytes == 0 {
		c.CompactBytes = 64 << 20
	}
	return c
}

// Server accepts ingest and query sessions and owns the shard pool.
// Create one with New; it is live (shards running) until Shutdown.
type Server struct {
	cfg    Config
	db     *tsdb.Archive
	engine *query.Engine
	shards []*shard
	store  *wal.Store     // nil without a DataDir
	mm     *mmapstore.Dir // nil unless StoreBackend is BackendMmap

	mu      sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]connKind
	closing bool

	connWG sync.WaitGroup

	compactStop chan struct{}
	compactDone chan struct{}

	// Retune-capable session registry and loop (Sample policy and/or an
	// EpsBudget); see retune.go.
	retuneMu     sync.Mutex
	retunes      map[*retuneSession]struct{}
	retuneStop   chan struct{}
	retuneDone   chan struct{}
	retuneFrames atomic.Int64 // renegotiation frames written to sessions

	sessions atomic.Int64 // ingest sessions accepted over the lifetime
	active   atomic.Int64 // ingest sessions currently streaming

	udp         *udpingest.Server // datagram ingest transport; nil until ListenUDP
	udpSessions atomic.Int64      // ingest sessions accepted over UDP
	tcpSegments atomic.Int64      // segments enqueued by TCP sessions
	udpSegments atomic.Int64      // segments enqueued by UDP sessions
}

// New returns a running server storing into db. With a DataDir it first
// recovers the directory's prior state into db (which must be empty):
// every shard partition replays concurrently (newest snapshot, then WAL
// replay with torn-tail truncation), a legacy single-log directory or a
// shard-count change is migrated in one shot, and each shard opens a
// fresh write-ahead tail. Call Shutdown to stop the shard workers (and,
// when durable, leave a clean snapshot per shard).
//
// db may be nil, in which case New builds the archive over the
// configured StoreBackend — the only way to run BackendMmap, whose
// archive must sit on the extent store New opens under the data
// directory.
func New(db *tsdb.Archive, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, conns: make(map[net.Conn]connKind)}
	if cfg.StoreBackend == BackendMmap {
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("server: the mmap store backend requires a data dir")
		}
		if db != nil {
			return nil, fmt.Errorf("server: the mmap store backend builds its own archive (pass a nil db)")
		}
		mm, err := mmapstore.OpenWith(wal.ExtentDir(cfg.DataDir), cfg.extents, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("server: open extent store: %w", err)
		}
		s.mm = mm
		db = tsdb.NewWithNamedStore(mm.Store)
	} else if db == nil {
		db = tsdb.New()
	}
	s.db = db
	s.engine = query.New(db)
	db.EnableRollups(cfg.RollupTiers)
	if cfg.DataDir != "" {
		st, stats, err := wal.Open(cfg.DataDir, cfg.Shards, db, wal.Options{
			Policy:   cfg.Sync,
			Interval: cfg.SyncEvery,
			Retain:   cfg.RetainSegments,
			Extents:  s.mm,
			Logf:     cfg.Logf,
		})
		if err != nil {
			if s.mm != nil {
				s.mm.Close()
			}
			return nil, fmt.Errorf("server: open data dir %s: %w", cfg.DataDir, err)
		}
		s.store = st
		if !stats.Empty() {
			migrated := ""
			if stats.Migrated {
				migrated = fmt.Sprintf("; migrated layout to %d shards (%d duplicate series reconciled)",
					cfg.Shards, stats.Reconciled)
			}
			s.logf("server: recovered %s: %d series from mapped extents + %d from snapshots across %d log dirs, %d wal files (%d segments replayed, %d skipped, %d rejected, %d torn bytes truncated, %d aged out)%s",
				cfg.DataDir, stats.ExtentSeries, stats.SnapshotSeries, stats.Dirs, stats.WALFiles,
				stats.Replayed, stats.Skipped, stats.Rejected, stats.TruncatedBytes,
				stats.RetentionDropped, migrated)
		}
	}
	// Degraded sessions may have left the archive holding data wider
	// than its contracts; re-arm every base series' effective ε from the
	// persisted control records so post-restart query bounds stay honest.
	if n := db.SeedEffectiveEpsilon(); n > 0 {
		s.logf("server: recovered effective-ε state for %d degraded series", n)
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		var wsh *wal.Shard
		if s.store != nil {
			wsh = s.store.Shard(i)
		}
		s.shards[i] = newShard(i, cfg.QueueDepth, wsh, s.logf)
		go s.shards[i].run()
	}
	if s.store != nil && cfg.CompactBytes > 0 {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop()
	}
	if cfg.Policy == Sample || cfg.EpsBudget > 0 {
		period := cfg.RetunePeriod
		if period <= 0 {
			period = defaultRetunePeriod
		}
		s.retuneStop = make(chan struct{})
		s.retuneDone = make(chan struct{})
		go s.retuneLoop(period)
	}
	return s, nil
}

// compactCheckEvery is how often the compactor looks at the WAL tail.
const compactCheckEvery = 5 * time.Second

// compactLoop snapshots and truncates each shard's WAL whenever that
// shard's tail outgrows CompactBytes. Shards compact independently — a
// hot shard rewriting its partition never stalls the others. It stops
// before Shutdown closes the shard queues.
func (s *Server) compactLoop() {
	defer close(s.compactDone)
	t := time.NewTicker(compactCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			for k := range s.shards {
				if s.shards[k].store.TailBytes() < s.cfg.CompactBytes {
					continue
				}
				if err := s.compactShard(k); err != nil {
					s.logf("server: compaction (shard %d): %v", k, err)
				}
			}
		}
	}
}

// compactShard rotates shard k's WAL, fences that shard's worker so all
// records in the rotated file are applied, then snapshots the shard's
// series through it. Ingestion on every other shard keeps flowing the
// whole time; only this shard's queue briefly serialises with the fence.
func (s *Server) compactShard(k int) error {
	sh := s.shards[k]
	oldSeq, err := sh.store.Rotate()
	if err != nil {
		return err
	}
	s.fenceShard(k)
	return sh.store.Snapshot(oldSeq)
}

// Compact compacts every shard now — rotate its log, fence its worker,
// persist its baseline (snapshot file or sealed extents + marker) —
// regardless of the CompactBytes threshold; the background loop
// compacts shards one by one as their tails grow. Tests and tooling
// use it to force the sealed state.
func (s *Server) Compact() error {
	for k := range s.shards {
		if err := s.compactShard(k); err != nil {
			return err
		}
	}
	return nil
}

// fenceShard blocks until every job currently queued on shard k has been
// applied. Commit errors are already logged by the workers and do not
// block a fence: its callers snapshot the in-memory archive, which
// supersedes whatever the log failed to commit.
func (s *Server) fenceShard(k int) {
	b := make(chan error, 1)
	s.shards[k].enqueue(job{barrier: b}, Block)
	<-b
}

// DB returns the archive the server stores into.
func (s *Server) DB() *tsdb.Archive { return s.db }

// Engine returns the server's segment-native query engine — the planner
// behind the AGG and QUANTILE protocol commands, exposed so embedders
// (and plad's demo mode) can query in-process with the same pushdown
// counters the /metrics endpoint exports.
func (s *Server) Engine() *query.Engine { return s.engine }

// Addr returns the first listener's address once Serve has been called
// (nil before).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lns) == 0 {
		return nil
	}
	return s.lns[0].Addr()
}

// ListenAndServe listens on addr ("host:port") and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until it fails or the server shuts
// down, in which case it returns ErrClosed. Serve may be called from
// several goroutines with different listeners (loopback + external
// interface); Shutdown closes all of them.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosing() {
				return ErrClosed
			}
			// Transient accept failures (fd exhaustion under load) must
			// not kill a daemon holding live sessions; back off and
			// retry, net/http style.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				s.logf("server: accept: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		if !s.track(conn) {
			conn.Close()
			return ErrClosed
		}
		go func() {
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// ServeConn runs one already-established connection (a net.Pipe end, a
// connection from a custom listener) through the full session protocol,
// blocking until the session ends. It refuses connections once Shutdown
// has begun.
func (s *Server) ServeConn(conn net.Conn) error {
	if !s.track(conn) {
		conn.Close()
		return ErrClosed
	}
	defer s.untrack(conn)
	s.serveConn(conn)
	return nil
}

func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// track registers a live connection, failing once shutdown has begun (the
// connWG.Add must not race Shutdown's Wait).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.connWG.Add(1)
	s.conns[conn] = kindPending
	return true
}

// connKind classifies a tracked connection for shutdown: only identified
// ingest sessions carry segments worth draining; pending (pre-handshake)
// and query connections are closed immediately.
type connKind uint8

const (
	kindPending connKind = iota
	kindIngest
	kindQuery
)

// mark records what a tracked connection turned out to be. If shutdown
// has already begun and the connection is not a drainable ingest
// session, it is closed on the spot.
func (s *Server) mark(conn net.Conn, kind connKind) {
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = kind
	}
	closing := s.closing
	s.mu.Unlock()
	if closing && kind != kindIngest {
		conn.Close()
	}
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.connWG.Done()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// handshakeTimeout bounds how long a fresh connection may take to
// identify itself; an idle probe must not hold a graceful drain open.
const handshakeTimeout = 10 * time.Second

// serveConn dispatches one connection by its 4-byte session magic.
func (s *Server) serveConn(conn net.Conn) {
	cr := encode.NewCountingReader(conn)
	br := bufio.NewReader(cr)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		s.logf("server: %s: short magic: %v", conn.RemoteAddr(), err)
		return
	}
	switch string(m[:]) {
	case magicIngest:
		s.serveIngest(conn, br, cr)
	case magicQuery:
		s.mark(conn, kindQuery)
		conn.SetReadDeadline(time.Time{})
		s.serveQuery(conn, br)
	default:
		writeStatusErr(conn, fmt.Sprintf("unknown session magic %q", m[:]))
	}
}

// ingestSession carries one connection's per-segment outcome counters,
// updated by the shard worker as the session's jobs are applied.
type ingestSession struct {
	applied  atomic.Int64
	rejected atomic.Int64
}

func (is *ingestSession) ack() Ack {
	return Ack{Applied: is.applied.Load(), Rejected: is.rejected.Load()}
}

// serveIngest handles one ingest session: handshake, decode loop feeding
// the series' shard, and the drain barrier behind the final ack.
func (s *Server) serveIngest(conn net.Conn, br *bufio.Reader, cr *encode.CountingReader) {
	name, err := readName(br)
	if err != nil {
		writeStatusErr(conn, err.Error())
		return
	}
	dec, err := encode.NewDecoder(encode.NewFrameReader(br))
	if err != nil {
		writeStatusErr(conn, err.Error())
		return
	}
	series, _, err := s.db.GetOrCreate(name, dec.Epsilon(), dec.Constant())
	if err != nil {
		writeStatusErr(conn, err.Error())
		return
	}
	sh := s.shards[shardIndex(name, len(s.shards))]
	var rs *retuneSession
	if dec.Retune() {
		// A retune-capable handshake: acknowledging with statusRetune
		// both accepts the session and unlocks opRetune on the wire.
		rs = &retuneSession{
			conn: conn, name: name, sh: sh, dim: dec.Dim(),
			base:      append([]float64(nil), dec.Epsilon()...),
			lastScale: 1,
		}
		if _, err := conn.Write([]byte{statusRetune}); err != nil {
			return
		}
		s.registerRetune(rs)
		defer s.unregisterRetune(rs)
	} else if err := writeStatusOK(conn); err != nil {
		return
	}
	s.mark(conn, kindIngest)
	conn.SetReadDeadline(time.Time{})

	s.sessions.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	sess := &ingestSession{}
	sh.active.Add(1) // the committer lingers only while sessions could still join a batch
	defer sh.active.Add(-1)
	if m := dec.MaxLag(); m > 0 {
		// A v2 handshake advertising a lag bound: surface it on the
		// series and count the session. The staleness gauge itself is
		// worker-owned per-series state (shard.trackPending), so it
		// needs no session bookkeeping: a clean close finalizes the
		// tail (gauge falls to zero), and an abrupt death leaves the
		// provisional points it really did leave in the archive.
		series.SetLagHint(m)
		sh.lagSessions.Add(1)
		defer sh.lagSessions.Add(-1)
	}
	// noteRetune folds a freshly-consumed opRetune announcement into the
	// archive: the series' query bounds widen to the sender's reported
	// effective ε, the shard's shed counter advances, and — when the ε
	// actually widened — a control record rides the ordinary WAL path so
	// the degradation survives a restart.
	var lastGen int
	var lastShed uint64
	noteRetune := func() {
		if rs == nil || dec.RetuneGen() == lastGen {
			return
		}
		lastGen = dec.RetuneGen()
		eff := dec.EffectiveEpsilon()
		// Record before noting: RecordEffectiveEpsilon decides whether a
		// persistent step is due by comparing eff against the series'
		// *current* query bound, so widening that bound first would make
		// every announcement look like a no-op and nothing would ever be
		// written through the WAL — the degradation would vanish on
		// restart while the in-memory bound stayed honest.
		if ctrl, cseg, ok := s.db.RecordEffectiveEpsilon(name, eff); ok {
			sh.enqueue(job{series: ctrl, seg: cseg}, Block)
		}
		series.NoteEffectiveEpsilon(eff)
		rs.noteEffRatio(eff)
		if shed := dec.ShedTotal(); shed > lastShed {
			sh.shedPoints.Add(int64(shed - lastShed))
			lastShed = shed
		}
	}
	var attributed int64
	for {
		seg, err := dec.Next()
		if err == nil || err == io.EOF {
			noteRetune()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// Abrupt end: the client is gone or the stream is corrupt.
			// Everything already enqueued still drains; there is no one
			// left to ack.
			s.logf("server: %s: ingest %q: %v", conn.RemoteAddr(), name, err)
			return
		}
		delta := cr.BytesRead() - attributed
		attributed = cr.BytesRead()
		if rs != nil {
			rs.wire.Store(cr.BytesRead())
		}
		s.tcpSegments.Add(1)
		sh.enqueue(job{sess: sess, series: series, seg: seg, bytes: delta}, s.cfg.Policy)
	}

	// The stream terminator arrived: fence behind everything this session
	// enqueued, then tell the client exactly what the archive holds. The
	// barrier carries the tail bytes (terminator frame) so the shard's
	// byte accounting covers the whole session, and brings back the WAL
	// commit verdict: if the log could not be committed, the client gets
	// an error, not an ack that overstates durability.
	barrier := make(chan error, 1)
	sh.enqueue(job{barrier: barrier, bytes: cr.BytesRead() - attributed}, Block)
	commitErr := <-barrier
	// On a retune session the final write must not interleave with a
	// renegotiation frame from the retune loop.
	if rs != nil {
		rs.wmu.Lock()
		defer rs.wmu.Unlock()
	}
	if commitErr != nil {
		s.logf("server: %s: ingest %q: commit: %v", conn.RemoteAddr(), name, commitErr)
		writeStatusErr(conn, fmt.Sprintf("segments not durable: wal commit failed: %v", commitErr))
		return
	}
	if err := writeAck(conn, sess.ack()); err != nil {
		s.logf("server: %s: ingest %q: ack: %v", conn.RemoteAddr(), name, err)
	}
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	// Shards holds one entry per worker.
	Shards []ShardMetrics
	// Segments, Points, Rejected and Bytes are totals over the shards.
	Segments int64
	Points   int64
	Rejected int64
	Bytes    int64
	// ActiveSessions is the number of ingest sessions streaming right
	// now; TotalSessions counts accepted ingest handshakes over the
	// server's lifetime — both totals across transports.
	ActiveSessions int64
	TotalSessions  int64
	// UDPSessions counts the accepted sessions that arrived over the
	// datagram transport; TCPSegments and UDPSegments split the enqueued
	// segments by transport.
	UDPSessions int64
	TCPSegments int64
	UDPSegments int64
	// UDP is the datagram transport's own counters (zero when ListenUDP
	// was never called).
	UDP udpingest.Metrics
	// MStore is the mmap extent store's counters; MStoreActive reports
	// whether that backend is in use at all (the counters are zero
	// either way until something seals).
	MStoreActive bool
	MStore       mmapstore.DirMetrics
	// RollupActive reports whether a rollup ladder is configured;
	// RollupBuilds and RollupSegments count rollup passes that extended
	// a tier and the tier segments they appended.
	RollupActive   bool
	RollupBuilds   int64
	RollupSegments int64
	// RetuneSessions is the number of live retune-capable ingest
	// sessions; RetuneFrames counts renegotiation frames the server has
	// written to them; EpsEffectiveMax is the worst effective-ε
	// inflation ratio (announced effective ε over handshake contract,
	// dim-max) across the live sessions — 1 while nothing is degraded.
	RetuneSessions  int64
	RetuneFrames    int64
	EpsEffectiveMax float64
}

// Metrics snapshots every shard's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Shards:         make([]ShardMetrics, len(s.shards)),
		ActiveSessions: s.active.Load(),
		TotalSessions:  s.sessions.Load(),
		UDPSessions:    s.udpSessions.Load(),
		TCPSegments:    s.tcpSegments.Load(),
		UDPSegments:    s.udpSegments.Load(),
	}
	s.mu.Lock()
	udp := s.udp
	s.mu.Unlock()
	if udp != nil {
		m.UDP = udp.Metrics()
	}
	if s.mm != nil {
		m.MStoreActive = true
		m.MStore = s.mm.Metrics()
	}
	if len(s.db.RollupMults()) > 0 {
		m.RollupActive = true
	}
	rc := s.db.RollupCountersSnapshot()
	m.RollupBuilds = rc.Builds
	m.RollupSegments = rc.Segments
	m.RetuneSessions = s.retuneSessionCount()
	m.RetuneFrames = s.retuneFrames.Load()
	m.EpsEffectiveMax = s.retuneEffMax()
	for i, sh := range s.shards {
		sm := sh.metrics()
		m.Shards[i] = sm
		m.Segments += sm.Segments
		m.Points += sm.Points
		m.Rejected += sm.Rejected
		m.Bytes += sm.Bytes
	}
	return m
}

// Shutdown gracefully stops the server: it stops accepting, closes query
// sessions (which have nothing to drain), waits for live ingest sessions
// to finish (force-closing their connections if ctx expires first), then
// drains every shard queue into the archive before
// returning — no finalized segment that reached a queue is lost, whatever
// the context does. When the server is durable, the drain ends with a
// clean snapshot: the data directory is left holding a single snapshot
// file and no write-ahead tail. The returned error is ctx's if sessions
// had to be force-closed, else nil. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	wasClosing := s.closing
	s.closing = true
	lns := append([]net.Listener(nil), s.lns...)
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	// Only identified ingest sessions carry segments worth draining.
	// Query sessions and pre-handshake connections (an idle port probe,
	// a slow client) are closed now so they can't hold the drain open
	// until the context expires.
	s.mu.Lock()
	for c, kind := range s.conns {
		if kind != kindIngest {
			c.Close()
		}
	}
	s.mu.Unlock()
	if wasClosing {
		// A concurrent or repeated Shutdown: wait for the shards the
		// first call is draining, but honour this call's own deadline —
		// force-closing the remaining connections unblocks the first
		// call's session wait too.
		for _, sh := range s.shards {
			select {
			case <-sh.done:
			case <-ctx.Done():
				s.mu.Lock()
				for c := range s.conns {
					c.Close()
				}
				s.mu.Unlock()
				return ctx.Err()
			}
		}
		return nil
	}

	sessionsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(sessionsDone)
	}()
	var forced error
	select {
	case <-sessionsDone:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-sessionsDone
	}

	// Drain the datagram transport: Close aborts its sessions and waits
	// for their goroutines, so once it returns nothing UDP-side can
	// enqueue either. It must happen before the queues close — a live
	// session's final barrier still needs a worker to commit it.
	s.mu.Lock()
	udp := s.udp
	s.mu.Unlock()
	if udp != nil {
		udp.Close()
	}

	// Sessions are gone; stop the retune loop (nothing is left to write
	// frames to) and the compactor before closing the queues so an
	// in-flight fence can finish (its barriers drain with the rest).
	if s.retuneStop != nil {
		close(s.retuneStop)
		<-s.retuneDone
	}
	if s.compactStop != nil {
		close(s.compactStop)
		<-s.compactDone
	}

	// All sessions are gone; nothing can enqueue any more. Closing the
	// queues lets each worker drain to empty and exit.
	for _, sh := range s.shards {
		close(sh.jobs)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	if s.store != nil {
		if err := s.store.CloseSnapshot(); err != nil {
			s.logf("server: final snapshot: %v", err)
			if forced == nil {
				forced = err
			}
		}
	}
	if s.mm != nil {
		// Only after the final seal: unmapping live extents under a
		// query would be a use-after-free, but every session and worker
		// is gone by now.
		s.mm.Close()
	}
	return forced
}

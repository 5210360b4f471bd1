package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/server"
)

// conns is the number of generator goroutines, one connection each:
// this box has two cores, and more connections than cores would measure
// the generator's own scheduling.
const conns = 2

// defaultSeconds is the run length every size below is stated for;
// -seconds scales rounds linearly from it and never changes a shape.
const defaultSeconds = 10

// scale sizes a round count for the requested run length.
func scale(atDefault, seconds int) int {
	n := (atDefault*seconds + defaultSeconds/2) / defaultSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// workload is one traffic shape. run drives a freshly built plad and
// fills in the outcome; everything it starts is registered with the
// janitor.
type workload struct {
	name  string
	why   string
	flags []string // plad flags on top of the harness's fixed topology
	run   func(rc *runCtx, w *workload, o *outcome) error
}

var workloads = []*workload{
	{
		name:  "ingest-smooth",
		why:   "64 long-segment series (eps 2.0, ~55 points/segment): the client-side filter does the work and the server idles",
		flags: []string{"-sync", "interval", "-compact-bytes", "8388608"},
		run: func(rc *runCtx, w *workload, o *outcome) error {
			// 22 rounds are about 3.5 s: the region has to end before
			// plad first looks at its log tails, 5 s after its start, on
			// a slow day too, or part of a sweep would fall inside it on
			// some runs and not on others.
			return runIngest(rc, w, o, ingestShape{series: 64, eps: 2.0, chunk: 65536, rounds: scale(22, rc.seconds), salt: 1, blocks: walkBlocks})
		},
	},
	{
		name:  "ingest-rough",
		why:   "128 short-segment series (eps 0.05, ~1.4 points/segment): decode, queue, WAL append and seal do the work, the filter almost none",
		flags: []string{"-sync", "interval", "-compact-bytes", "33554432"},
		run: func(rc *runCtx, w *workload, o *outcome) error {
			// 10 rounds are about 6.5 s: the region holds the look at 5 s,
			// which sweeps both shards, and ends well before the next.
			return runIngest(rc, w, o, ingestShape{series: 128, eps: 0.05, chunk: 8192, rounds: scale(10, rc.seconds), salt: 1, blocks: walkBlocks})
		},
	},
	{
		name:  "uplink-durable",
		why:   "20000 tiny sessions (256 points) under -sync always: handshake, group commit and fsync dominate; the only fsync-gated ack",
		flags: []string{"-sync", "always"},
		run: func(rc *runCtx, w *workload, o *outcome) error {
			// 312 rounds of 64 sessions of 256 points (27 segments). 2048
			// generated session payloads, 55 000 segments in all, keep
			// bytes per point within 1% from seed to seed.
			return runIngest(rc, w, o, ingestShape{series: 64, eps: 0.5, chunk: 256, rounds: scale(312, rc.seconds), salt: 2, blocks: 2048, crash: true})
		},
	},
	{
		name:  "query-archive",
		why:   "fixed AT/SCAN/AGG/QUANTILE mix over a recovered sealed archive with rollup tiers: read path only, ingest layers idle",
		flags: []string{"-sync", "interval", "-rollup-tiers", "4,16"},
		run:   runQueryArchive,
	},
	{
		name:  "query-under-ingest",
		why:   "the same mix while one connection ingests open loop at 500k points/s: seals, rollups and series locks sit under the reads",
		flags: []string{"-sync", "interval", "-compact-bytes", "8388608", "-rollup-tiers", "4,16"},
		run:   runQueryUnderIngest,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCtx is what one run of one workload works with.
type runCtx struct {
	j       *janitor
	bin     string // built plad
	dir     string // scratch directory of this run
	seed    uint64
	seconds int
	logf    func(format string, args ...any)
	nextDir int
}

// dataDir returns a fresh data directory path under the run's scratch.
func (rc *runCtx) dataDir() string {
	rc.nextDir++
	return filepath.Join(rc.dir, fmt.Sprintf("data-%d", rc.nextDir))
}

// outcome is what a run reports.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	notes     []string // departures from the stated measurement, for the report

	e2e     map[string]float64
	layer   map[string]float64
	samples map[string]int // sample count behind each percentile family
	peakRSS int64
	setup   time.Duration
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// ops counts n attempted operations.
func (o *outcome) ops(n int64) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// check counts one attempted verification and fails it unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.ops(1)
	if !ok {
		o.fail(format, args...)
	}
}

// notePeak folds an exited process's peak resident set into the run's.
func (o *outcome) notePeak(p *plad) {
	if rss := p.mon.peak(); rss > o.peakRSS {
		o.peakRSS = rss
	}
}

// opLatency fills the op_* metrics from the latencies of the workload's
// operation: the median and p99, the highest percentile every workload's
// 1300 to 20000 operations leave at least ten samples beyond.
func (o *outcome) opLatency(l *latencies) {
	o.e2e["op_p50_ms"], _ = l.q(0.5)
	p99, ok := l.q(0.99)
	if !ok {
		o.notes = append(o.notes, fmt.Sprintf("op_p99_ms: %d samples leave fewer than %d beyond it", l.n(), minBeyond))
	}
	o.e2e["op_p99_ms"] = p99
	o.samples["op"] = l.n()
}

func seriesName(s int) string { return fmt.Sprintf("s%03d", s) }

// timed is what the harness observes around one timed region, from
// outside the program: wall time, two /metrics pages, CPU ticks, and
// the monitor's stall and queue readings.
type timed struct {
	elapsed       time.Duration
	before, after promPage
	cpuTicks      int64
	stall         time.Duration
	queueMax      float64
}

// region runs fn as the timed region of p.
func (p *plad) region(fn func()) (timed, error) {
	var t timed
	var err error
	if t.before, err = p.scrape(); err != nil {
		return t, err
	}
	ticks0, err := p.cpuTicks()
	if err != nil {
		return t, err
	}
	p.mon.mark(t.before.sum("plad_shard_segments_total"))
	start := time.Now()
	fn()
	t.elapsed = time.Since(start)
	t.stall, t.queueMax = p.mon.unmark()
	ticks1, err := p.cpuTicks()
	if err != nil {
		return t, err
	}
	t.cpuTicks = ticks1 - ticks0
	t.after, err = p.scrape()
	return t, err
}

// ratio is a/b, 0 when b is 0: a per-layer ratio whose denominator did
// not move on this workload reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrapeLayers turns a timed region's counter deltas into the
// scrape-sourced per-layer metrics. queries is how many queries the
// harness issued in the region, boundQueries how many carried BOUND,
// diskBytes what the data directory held after the drain.
func (o *outcome) scrapeLayers(t timed, queries, boundQueries, diskBytes int64) {
	d := func(name string) float64 { return t.before.delta(t.after, name) }
	secs := t.elapsed.Seconds()
	segs := d("plad_shard_segments_total")
	l := o.layer
	l["server.segments_per_s"] = ratio(segs, secs)
	l["server.cpu_us_per_segment"] = ratio(float64(t.cpuTicks)*1e6/clockTicksPerSecond, segs)
	l["server.queue_depth_max"] = t.queueMax
	if segs > 0 {
		l["server.stall_max_ms"] = float64(t.stall) / float64(time.Millisecond)
	}
	l["wal.bytes_per_segment"] = ratio(d("plad_shard_wal_bytes_total"), segs)
	l["wal.fsyncs_per_s"] = ratio(d("plad_shard_wal_fsyncs_total"), secs)
	l["wal.barriers_per_commit"] = ratio(d("plad_shard_barriers_total"), d("plad_shard_commits_total"))
	l["mmapstore.compactions"] = d("plad_mstore_compactions_total")
	l["mmapstore.rewrite_ratio"] = ratio(d("plad_mstore_compacted_bytes_total"), float64(diskBytes))
	l["mmapstore.index_jump_ratio"] = ratio(d("plad_mstore_index_jumps_total"), float64(queries))
	cached, built := d("plad_query_windows_cached_total"), d("plad_query_windows_built_total")
	l["query.windows_cached_ratio"] = ratio(cached, cached+built)
	l["query.segments_walked_per_query"] = ratio(d("plad_query_segments_walked_total"),
		d("plad_query_agg_total")+d("plad_query_quantile_total"))
	l["query.tier_hit_ratio"] = ratio(d("plad_rollup_tier_hits_total"), float64(boundQueries))
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux platform Go supports.
const clockTicksPerSecond = 100

// ingestTally is one generator connection's account of its sessions.
type ingestTally struct {
	lat      latencies // dial → ack, ms
	late     latencies // open loop only: how late each send started, ms
	points   int64
	segments int64 // segments the client filters emitted
	wire     int64
	applied  map[int]int64 // per series: segments the acks counted applied
	sent     map[int]int   // per series: samples in acked sessions
}

func newIngestTally() *ingestTally {
	return &ingestTally{applied: map[int]int64{}, sent: map[int]int{}}
}

// session runs one ingest session — dial, handshake, filter and send
// pts, close, wait for the ack — and accounts for it. due is when the
// session was meant to start: latency counts from there, so in an open
// loop a stalled predecessor's delay is charged to the sessions behind
// it. A refused dial, a transport error, or an ack that rejected or
// dropped segments or disagrees with the filter's own count is a failed
// operation.
func (t *ingestTally) session(o *outcome, addr string, series int, eps float64, pts []core.Point, due time.Time) {
	o.ops(1)
	segs, ack, wire, err := ingestSession(addr, seriesName(series), eps, pts)
	t.lat.add(float64(time.Since(due)) / float64(time.Millisecond))
	switch {
	case err != nil:
		o.fail("session %s: %v", seriesName(series), err)
		return
	case ack.Rejected != 0 || ack.Dropped != 0:
		o.fail("session %s: ack rejected=%d dropped=%d", seriesName(series), ack.Rejected, ack.Dropped)
	case ack.Applied != segs:
		o.fail("session %s: ack applied %d segments, filter emitted %d", seriesName(series), ack.Applied, segs)
	}
	t.points += int64(len(pts))
	t.segments += segs
	t.wire += wire
	t.applied[series] += ack.Applied
	t.sent[series] += len(pts)
}

func ingestSession(addr, name string, eps float64, pts []core.Point) (segs int64, ack server.Ack, wire int64, err error) {
	f, err := core.NewSwing([]float64{eps})
	if err != nil {
		return 0, ack, 0, err
	}
	cl, err := server.Dial(addr, name, f)
	if err != nil {
		return 0, ack, 0, err
	}
	if err := cl.SendBatch(pts); err != nil {
		cl.Close()
		return 0, ack, 0, err
	}
	ack, err = cl.Close()
	return int64(cl.Stats().Segments), ack, cl.BytesSent(), err
}

// mergeTallies folds the per-connection accounts into one.
func mergeTallies(ts []*ingestTally) *ingestTally {
	all := newIngestTally()
	for _, t := range ts {
		all.lat.merge(&t.lat)
		all.late.merge(&t.late)
		all.points += t.points
		all.segments += t.segments
		all.wire += t.wire
		for s, n := range t.applied {
			all.applied[s] += n
		}
		for s, n := range t.sent {
			all.sent[s] += n
		}
	}
	return all
}

// closedLoop runs rounds rounds of one chunk per series over conns
// connections, series s on connection s mod conns, each connection
// sending its next session as soon as the previous one is acked. first
// is the round number the series continue from.
func closedLoop(o *outcome, addr string, g walks, series int, eps float64, first, rounds int) *ingestTally {
	ts := make([]*ingestTally, conns)
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = newIngestTally()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]core.Point, g.chunk)
			for r := first; r < first+rounds; r++ {
				for s := c; s < series; s += conns {
					ts[c].session(o, addr, s, eps, g.fill(buf, s, r), time.Now())
				}
			}
		}(c)
	}
	wg.Wait()
	return mergeTallies(ts)
}

// spawnProbes is how many times an ingest workload's set-up (spawn a
// plad on an empty directory until it is healthy) is repeated; the
// median goes into setup_s.
const spawnProbes = 3

// spawnFresh starts plad on an empty directory spawnProbes times,
// keeps the last one, and returns the median spawn-to-healthy time.
func spawnFresh(rc *runCtx, w *workload) (*plad, time.Duration, error) {
	var ready []float64
	for i := 0; ; i++ {
		p, err := startPlad(rc.j, rc.bin, rc.dataDir(), w.flags...)
		if err != nil {
			return nil, 0, err
		}
		ready = append(ready, p.ready.Seconds())
		if i == spawnProbes-1 {
			return p, time.Duration(median(ready) * float64(time.Second)), nil
		}
		p.kill()
	}
}

// restart brings plad back on dir and returns it with its SERIES
// listing and how long spawn → first answered SERIES took, the
// recover_s definition.
func restart(rc *runCtx, w *workload, dir string) (*plad, []server.SeriesInfo, time.Duration, error) {
	p, err := startPlad(rc.j, rc.bin, dir, w.flags...)
	if err != nil {
		return nil, nil, 0, err
	}
	took, infos, err := p.firstAnswer()
	if err != nil {
		p.kill()
		return nil, nil, 0, fmt.Errorf("first query after restart: %w", err)
	}
	return p, infos, took, nil
}

// ingestMetrics fills the end-to-end metrics every workload derives
// from its ingest side.
func (o *outcome) ingestMetrics(all *ingestTally, diskBytes int64) {
	o.e2e["wire_bytes_per_point"] = ratio(float64(all.wire), float64(all.points))
	o.e2e["disk_bytes_per_point"] = ratio(float64(diskBytes), float64(all.points))
	o.layer["core.points_per_segment"] = ratio(float64(all.points), float64(all.segments))
	o.layer["mmapstore.disk_bytes_per_segment"] = ratio(float64(diskBytes), float64(all.segments))
}

// finish records what every workload ends with.
func (o *outcome) finish() {
	o.e2e["peak_rss_mb"] = float64(o.peakRSS) / (1 << 20)
	o.e2e["setup_s"] = o.setup.Seconds()
}

// ingestShape is a closed-loop ingest workload: rounds sessions of
// chunk points on each of series series.
type ingestShape struct {
	series int
	eps    float64
	chunk  int    // points per session
	rounds int    // sessions per series
	salt   uint64 // keeps the workloads' walks apart
	blocks int    // generated blocks of chunk points
	// crash is uplink-durable: the session, not the point, is the unit
	// of work, and the run ends with kill -9 instead of a drain. The
	// operating system's cache survives a process kill, so the read-back
	// then checks that no ack ran ahead of its write, not that the
	// device holds the data.
	crash bool
}

// runIngest is ingest-smooth, ingest-rough and uplink-durable:
// closed-loop sessions, then drain (or kill), restart and read back.
func runIngest(rc *runCtx, w *workload, o *outcome, sh ingestShape) error {
	start := time.Now()
	g := newWalks(rc.seed, sh.salt, sh.blocks, sh.chunk)
	genTime := time.Since(start)

	p, ready, err := spawnFresh(rc, w)
	if err != nil {
		return err
	}
	var all *ingestTally
	t, err := p.region(func() {
		all = closedLoop(o, p.addr, g, sh.series, sh.eps, 0, sh.rounds)
	})
	if err != nil {
		return err
	}
	o.setup = genTime + ready
	work := float64(all.points)
	if sh.crash {
		p.kill()
		work = float64(all.lat.n())
	} else {
		drain, err := p.drain()
		if err != nil {
			return err
		}
		o.setup += drain
	}
	o.notePeak(p)
	applied := t.before.delta(t.after, "plad_shard_segments_total")
	o.check(applied == float64(all.segments),
		"server applied %v segments, client filters emitted %d", applied, all.segments)
	rc.logf("%s: %d points in %d sessions in %.2fs", w.name, all.points, all.lat.n(), t.elapsed.Seconds())

	disk, err := dirBytes(p.dataDir)
	if err != nil {
		return err
	}
	o.e2e["ops_per_s"] = work / t.elapsed.Seconds()
	o.opLatency(&all.lat)
	o.ingestMetrics(all, disk)
	o.scrapeLayers(t, 0, 0, disk)

	recovered, err := readBack(rc, w, o, p.dataDir, g, sh.eps, all)
	o.e2e["recover_s"] = recovered.Seconds()
	o.finish()
	return err
}

// readBack restarts plad on dir, runs the read-back gate against it and
// drains it again (which belongs to setup_s like every drain). It
// returns how long the restart took to answer.
func readBack(rc *runCtx, w *workload, o *outcome, dir string, g walks, eps float64, all *ingestTally) (time.Duration, error) {
	p, infos, recovered, err := restart(rc, w, dir)
	if err != nil {
		return 0, err
	}
	verifyArchive(o, p, infos, g, eps, all, rc.seed)
	drain, err := p.drain()
	if err != nil {
		return 0, err
	}
	o.setup += drain
	o.notePeak(p)
	return recovered, nil
}

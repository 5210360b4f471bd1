package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/query"
	"github.com/pla-go/pla/internal/server"
	"github.com/pla-go/pla/internal/sketch"
	"github.com/pla-go/pla/internal/transport"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/tsdb/mmapstore"
	"github.com/pla-go/pla/internal/udpingest"
	"github.com/pla-go/pla/internal/wal"
)

// The layer trace is a separate in-process, single-goroutine run: 1/16
// of the ingest-smooth, ingest-rough and query inputs go through each
// layer's public functions in pipeline order with a span around every
// call, so that a layer's cost can be read on its own. Its numbers say
// where time goes inside one process; the end-to-end numbers always
// come from the untraced workload runs against a real plad.

const (
	ladderSeries  = 4   // series each ladder input is spread over
	smoothChunks  = 88  // 64·22 chunks of ingest-smooth / 16
	roughChunks   = 80  // 128·10 chunks of ingest-rough / 16
	queryBatches  = 94  // 1500 batches of the query mix / 16
	uplinkSegs    = 27  // segments one uplink-durable session commits
	alwaysCommits = 200 // fsync-gated commits timed
	walOpenChunks = 16  // rough chunks left in the log wal.Open replays
	searchProbes  = 2000
	tierForCalls  = 1000
	sketchBlocks  = 48
	emptySessions = 300
	replaySeries  = 16

	// recordLen is the payload encode.record_ns frames: about what one
	// segment's write-ahead record carries.
	recordLen = 48
	// frameLen is the piece size encode.frame_ns frames: the encoder's
	// bufio.Writer hands the frame writer 4 KiB at a time.
	frameLen = 4096
)

type layerTrace struct {
	metrics map[string]float64
	notes   []string
}

// ladderInput is one ingest shape's share of the trace.
type ladderInput struct {
	tag    string // "smooth" or "rough"
	g      walks
	eps    float64
	chunks int
}

// ladderCounts is what one pass handled: the denominators of the
// per-layer metrics.
type ladderCounts struct {
	points, segments map[string]int64 // by input tag
	encoded          int64            // bytes of segment stream before framing
	frames           int64
	commits          int64
	compacted        float64 // segments extent compaction rewrote
	replayed         int64   // segments wal.Open replayed
	baseSegments     int64   // segments Rollup read
	openedSegments   int64   // segments Dir.LoadInto mapped
	scanned          int64   // segments Scan returned
	segAggs          int64
}

func runLayerTrace(dir string, seed uint64, spanFile string) (*layerTrace, error) {
	lt := &layerTrace{metrics: map[string]float64{}}
	inputs := []ladderInput{
		{"smooth", newWalks(seed, 1, walkBlocks, 65536), 2.0, smoothChunks},
		{"rough", newWalks(seed, 1, walkBlocks, 8192), 0.05, roughChunks},
	}
	archive := newWalks(seed, 3, walkBlocks, archiveChunk)
	specs := genMix(mix(seed, 4, 0), queryBatches, ladderSeries, false)

	// The same pass twice, spans off and then on: the difference in
	// wall time is what recording them cost.
	var walls [2]time.Duration
	var tr *tracer
	var c *ladderCounts
	for pass, enabled := range []bool{false, true} {
		tr = newTracer(enabled)
		c = &ladderCounts{points: map[string]int64{}, segments: map[string]int64{}}
		passDir, err := os.MkdirTemp(dir, "ladder-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, in := range inputs {
			if err := ingestLadder(tr, c, filepath.Join(passDir, in.tag), in); err != nil {
				return nil, fmt.Errorf("%s ladder: %w", in.tag, err)
			}
		}
		if err := durableLadder(tr, c, passDir, inputs[1]); err != nil {
			return nil, fmt.Errorf("durable ladder: %w", err)
		}
		if err := queryLadder(tr, c, filepath.Join(passDir, "query"), archive, specs); err != nil {
			return nil, fmt.Errorf("query ladder: %w", err)
		}
		walls[pass] = time.Since(start)
		if err := os.RemoveAll(passDir); err != nil {
			return nil, err
		}
	}
	st := selfTimes(tr.spans)
	ladderMetrics(lt.metrics, st, c)
	lt.metrics["trace.overhead_ratio"] = ratio(float64(walls[1]-walls[0]), float64(walls[0]))
	lt.notes = append(lt.notes, fmt.Sprintf("ladder pass: untraced %.3fs, traced %.3fs, %d spans",
		walls[0].Seconds(), walls[1].Seconds(), len(tr.spans)))
	if spanFile != "" {
		if err := tr.write(spanFile); err != nil {
			return nil, err
		}
	}

	for _, in := range inputs {
		e2e, err := composedIngest(filepath.Join(dir, "composed-"+in.tag), in)
		if err != nil {
			return nil, fmt.Errorf("composed %s run: %w", in.tag, err)
		}
		sum := ladderSum(st, in.tag)
		lt.metrics["trace.ladder_gap_ratio_"+in.tag] = ratio(float64(e2e-sum), float64(e2e))
		lt.notes = append(lt.notes, fmt.Sprintf("%s: composed in-process run %.3fs, its layers' self times %.3fs",
			in.tag, e2e.Seconds(), sum.Seconds()))
	}
	if err := serverProbes(lt.metrics, inputs[1]); err != nil {
		return nil, fmt.Errorf("server probes: %w", err)
	}
	return lt, nil
}

// sendSelf and recvSelf are what the transmitter and the receiver cost
// beyond the layers they call: SendBatch runs the filter, the encoder
// and the frame writer inside itself, Run the frame reader and the
// decoder, and each of those is also timed on its own on the same
// chunk.
func sendSelf(st map[string]layerTime, tag string) time.Duration {
	of := func(stage string) time.Duration { return st[stage+"/"+tag].self }
	return of("transport.send") - of("core.push") - of("encode.segment") - of("encode.frame_write")
}

func recvSelf(st map[string]layerTime, tag string) time.Duration {
	of := func(stage string) time.Duration { return st[stage+"/"+tag].self }
	return of("transport.recv") - of("encode.frame_read") - of("encode.decode")
}

// ladderSum adds the self times of the steps a chunk passes between the
// client's filter and the server's archive in a composed run.
func ladderSum(st map[string]layerTime, tag string) time.Duration {
	of := func(stage string) time.Duration { return st[stage+"/"+tag].self }
	return of("core.push") + of("encode.segment") + of("encode.frame_write") + sendSelf(st, tag) +
		of("encode.frame_read") + of("encode.decode") +
		of("wal.append") + of("wal.commit_interval") + of("tsdb.append")
}

// ladderMetrics turns span self times and counts into the trace-sourced
// per-layer metrics.
func ladderMetrics(m map[string]float64, st map[string]layerTime, c *ladderCounts) {
	both := func(stage string) float64 {
		return float64(st[stage+"/smooth"].self + st[stage+"/rough"].self)
	}
	one := func(name string) float64 { return float64(st[name].self) }
	calls := func(name string) float64 { return float64(st[name].calls) }
	points := float64(c.points["smooth"] + c.points["rough"])
	segs := float64(c.segments["smooth"] + c.segments["rough"])

	m["core.push_ns_per_point_smooth"] = ratio(one("core.push/smooth"), float64(c.points["smooth"]))
	m["core.push_ns_per_point_rough"] = ratio(one("core.push/rough"), float64(c.points["rough"]))
	m["encode.segment_ns"] = ratio(both("encode.segment"), segs)
	m["encode.decode_ns"] = ratio(both("encode.decode"), segs)
	m["encode.frame_ns"] = ratio(both("encode.frame_write")+both("encode.frame_read"), float64(c.frames))
	m["encode.record_ns"] = ratio(both("encode.record"), segs)
	m["encode.wire_bytes_per_segment"] = ratio(float64(c.encoded), segs)
	m["transport.send_ns_per_point"] = ratio(float64(sendSelf(st, "smooth")+sendSelf(st, "rough")), points)
	m["transport.recv_ns_per_segment"] = ratio(float64(recvSelf(st, "smooth")+recvSelf(st, "rough")), segs)
	m["wal.append_ns"] = ratio(both("wal.append"), segs)
	m["wal.commit_us_interval"] = ratio(both("wal.commit_interval"), float64(c.commits)) / 1e3
	m["wal.commit_us_always"] = ratio(one("wal.commit_always"), calls("wal.commit_always")) / 1e3
	m["wal.open_ms_per_msegment"] = ratio(one("wal.open")/1e6, float64(c.replayed)/1e6)
	m["tsdb.append_ns"] = ratio(both("tsdb.append"), segs)
	m["mmapstore.seal_ns_per_segment_smooth"] = ratio(one("mmapstore.seal/smooth"), float64(c.segments["smooth"]))
	m["mmapstore.seal_ns_per_segment_rough"] = ratio(one("mmapstore.seal/rough"), float64(c.segments["rough"]))
	m["mmapstore.compact_ns_per_segment"] = ratio(both("mmapstore.compact"), c.compacted)
	m["mmapstore.search_ns_uncompacted"] = ratio(one("mmapstore.search_uncompacted"), searchProbes)
	m["mmapstore.search_ns_compacted"] = ratio(one("mmapstore.search_compacted"), searchProbes)

	m["tsdb.rollup_ns_per_segment"] = ratio(one("tsdb.rollup"), float64(c.baseSegments))
	m["mmapstore.open_ms_per_msegment"] = ratio(one("mmapstore.open")/1e6, float64(c.openedSegments)/1e6)
	m["tsdb.at_ns"] = ratio(one("tsdb.at"), calls("tsdb.at"))
	m["tsdb.scan_us_per_ksegment"] = ratio(one("tsdb.scan")/1e3, float64(c.scanned)/1e3)
	m["sketch.build_block_us"] = ratio(one("sketch.build_block"), calls("sketch.build_block")) / 1e3
	m["sketch.merge_us"] = ratio(one("sketch.merge"), calls("sketch.merge")) / 1e3
	m["sketch.segagg_ns"] = ratio(one("sketch.segagg"), float64(c.segAggs))
	for _, k := range []string{"agg_cold", "agg_hot", "quantile_cold", "quantile_hot"} {
		m["query."+k+"_us"] = ratio(one("query."+k), calls("query."+k)) / 1e3
	}
	m["query.tierfor_ns"] = ratio(one("query.tierfor"), tierForCalls)
}

// ladderStore is an archive on the extent store with its write-ahead
// log, opened the way server.New opens them.
type ladderStore struct {
	mm *mmapstore.Dir
	db *tsdb.Archive
	st *wal.Store
}

func openLadderStore(dir string, policy wal.SyncPolicy) (*ladderStore, wal.RecoverStats, error) {
	mm, err := mmapstore.Open(wal.ExtentDir(dir), nil)
	if err != nil {
		return nil, wal.RecoverStats{}, err
	}
	db := tsdb.NewWithNamedStore(mm.Store)
	st, stats, err := wal.Open(dir, 2, db, wal.Options{Policy: policy, Extents: mm})
	if err != nil {
		mm.Close()
		return nil, stats, err
	}
	return &ladderStore{mm: mm, db: db, st: st}, stats, nil
}

// close ends the store without a final snapshot: the log keeps its tail.
func (ls *ladderStore) close() error {
	err := ls.st.Close()
	if cerr := ls.mm.Close(); err == nil {
		err = cerr
	}
	return err
}

func (ls *ladderStore) shardOf(name string) *wal.Shard {
	return ls.st.Shard(wal.ShardIndex(name, ls.st.NumShards()))
}

// ingestLadder pushes in's chunks through the ingest layers one at a
// time — filter, segment encoder, frame writer and reader, decoder,
// record writer and reader, transmitter, receiver, write-ahead append
// and commit, archive append, seal — then compacts the extents, with a
// sealed-lookup probe before and after on the rough input.
func ingestLadder(tr *tracer, c *ladderCounts, dir string, in ladderInput) error {
	ls, _, err := openLadderStore(dir, wal.SyncInterval)
	if err != nil {
		return err
	}
	defer ls.close()
	eps := []float64{in.eps}
	series := make([]*tsdb.Series, ladderSeries)
	for s := range series {
		if series[s], _, err = ls.db.GetOrCreate(fmt.Sprintf("%s%d", in.tag, s), eps, false); err != nil {
			return err
		}
	}
	stage := func(name string) string { return name + "/" + in.tag }

	buf := make([]core.Point, in.g.chunk)
	piece := make([]byte, 64<<10)
	var encoded, framed, sent, records bytes.Buffer
	for i := 0; i < in.chunks; i++ {
		s, round := i%ladderSeries, i/ladderSeries
		pts := in.g.fill(buf, s, round)
		sr, shard := series[s], ls.shardOf(series[s].Name())
		var segs, decoded []core.Segment
		do := func(name string, fn func() error) error { return tr.do(stage(name), i, fn) }

		err := tr.do("ingest", i, func() error {
			if err := do("core.push", func() error {
				f, err := core.NewSwing(eps)
				if err == nil {
					segs, err = core.Run(f, pts)
				}
				return err
			}); err != nil {
				return err
			}

			encoded.Reset()
			if err := do("encode.segment", func() error {
				enc, err := encode.NewEncoder(&encoded, eps, false)
				for k := 0; err == nil && k < len(segs); k++ {
					err = enc.WriteSegment(segs[k])
				}
				if err == nil {
					err = enc.Close()
				}
				return err
			}); err != nil {
				return err
			}

			framed.Reset()
			if err := do("encode.frame_write", func() (err error) {
				fw := encode.NewFrameWriter(&framed)
				for b := encoded.Bytes(); len(b) > 0 && err == nil; c.frames++ {
					n := min(frameLen, len(b))
					_, err = fw.Write(b[:n])
					b = b[n:]
				}
				return err
			}); err != nil {
				return err
			}
			if err := do("encode.frame_read", func() (err error) {
				fr := encode.NewFrameReader(bytes.NewReader(framed.Bytes()))
				unframed := 0
				for err == nil {
					var n int
					n, err = fr.Read(piece)
					unframed += n
				}
				if err != io.EOF || unframed != encoded.Len() {
					return fmt.Errorf("frame round trip: %d of %d bytes: %v", unframed, encoded.Len(), err)
				}
				return nil
			}); err != nil {
				return err
			}

			if err := do("encode.decode", func() error {
				dec, err := encode.NewDecoder(bytes.NewReader(encoded.Bytes()))
				if err == nil {
					decoded, err = encode.ReadAll(dec)
				}
				if err != nil || len(decoded) != len(segs) {
					return fmt.Errorf("decode: %d of %d segments: %v", len(decoded), len(segs), err)
				}
				return nil
			}); err != nil {
				return err
			}

			records.Reset()
			if err := do("encode.record", func() (err error) {
				rw := encode.NewRecordWriter(&records)
				for k := 0; err == nil && k < len(segs); k++ {
					_, err = rw.WriteRecord(encoded.Bytes()[:recordLen])
				}
				rr := encode.NewRecordReader(bytes.NewReader(records.Bytes()))
				for k := 0; err == nil && k < len(segs); k++ {
					_, err = rr.ReadRecord()
				}
				return err
			}); err != nil {
				return err
			}

			sent.Reset()
			if err := do("transport.send", func() error {
				f, err := core.NewSwing(eps)
				if err != nil {
					return err
				}
				tx, err := transport.NewTransmitter(encode.NewFrameWriter(&sent), f)
				if err == nil {
					err = tx.SendBatch(pts)
				}
				if err == nil {
					err = tx.Close()
				}
				return err
			}); err != nil {
				return err
			}
			if err := do("transport.recv", func() error {
				rx, err := transport.NewReceiver(encode.NewFrameReader(bytes.NewReader(sent.Bytes())))
				if err == nil {
					err = rx.Run()
				}
				if err != nil || rx.Len() != len(segs) {
					return fmt.Errorf("receive: %d of %d segments: %v", rx.Len(), len(segs), err)
				}
				return nil
			}); err != nil {
				return err
			}

			// The log records each segment's position in its series.
			// With a whole chunk logged before any of it is applied those
			// positions are stale, which only a replay would notice, and
			// this log is never replayed (durableLadder builds the one
			// that is).
			if err := do("wal.append", func() (err error) {
				for k := 0; err == nil && k < len(decoded); k++ {
					err = shard.Append(sr, decoded[k])
				}
				return err
			}); err != nil {
				return err
			}
			if err := do("wal.commit_interval", shard.Commit); err != nil {
				return err
			}
			if err := do("tsdb.append", func() error { return sr.Append(decoded...) }); err != nil {
				return err
			}
			return do("mmapstore.seal", sr.Seal)
		})
		if err != nil {
			return err
		}

		c.points[in.tag] += int64(len(pts))
		c.segments[in.tag] += int64(len(segs))
		c.encoded += int64(encoded.Len())
		c.commits++
	}

	// Every chunk left one small extent behind; merge them the way a
	// compaction sweep does, until the store offers nothing more.
	extentBytes, err := dirBytes(ls.mm.Root())
	if err != nil {
		return err
	}
	if in.tag == "rough" {
		searchProbe(tr, ls, series[0], "mmapstore.search_uncompacted")
	}
	before := ls.mm.Metrics().CompactedBytes
	for s, sr := range series {
		for merged := true; merged; {
			if err := tr.do(stage("mmapstore.compact"), s, func() (err error) {
				merged, err = sr.CompactStore()
				return err
			}); err != nil {
				return err
			}
		}
	}
	if in.tag == "rough" {
		searchProbe(tr, ls, series[0], "mmapstore.search_compacted")
	}
	rewritten := float64(ls.mm.Metrics().CompactedBytes - before)
	c.compacted += rewritten / ratio(float64(extentBytes), float64(c.segments[in.tag]))
	return nil
}

// searchProbe times searchProbes sealed lookups (find the segment
// covering a random time, decode it) straight on the series' extent
// store, one span around all of them: a lookup is too short to time on
// its own.
func searchProbe(tr *tracer, ls *ladderStore, sr *tsdb.Series, name string) {
	store := ls.mm.Store(sr.Name(), sr.Epsilon(), false).(*mmapstore.Store)
	_, end, _ := sr.Span()
	rng := gen.NewRNG(1)
	id := tr.begin(name, 0)
	for k := 0; k < searchProbes; k++ {
		if i := store.SearchT0(rng.Float64() * end); i >= 0 && i < store.Len() {
			store.Seg(i)
		}
	}
	tr.end(id)
}

// durableLadder times the two write-ahead paths ingestLadder cannot:
// the fsync-gated commit (an uplink session's worth of segments each)
// and the recovery replay of a log tail, both on rough segments.
func durableLadder(tr *tracer, c *ladderCounts, dir string, in ladderInput) error {
	eps := []float64{in.eps}
	f, err := core.NewSwing(eps)
	if err != nil {
		return err
	}
	segs, err := core.Run(f, in.g.fill(make([]core.Point, in.g.chunk), 0, 0))
	if err != nil {
		return err
	}

	always, _, err := openLadderStore(filepath.Join(dir, "always"), wal.SyncAlways)
	if err != nil {
		return err
	}
	defer always.close()
	sr, _, err := always.db.GetOrCreate("always", eps, false)
	if err != nil {
		return err
	}
	shard := always.shardOf("always")
	for n := 0; n < alwaysCommits; n++ {
		batch := segs[(n*uplinkSegs)%(len(segs)-uplinkSegs):][:uplinkSegs]
		for _, seg := range batch {
			// The archive is left alone: a commit's cost is the log's.
			if err := shard.Append(sr, seg); err != nil {
				return err
			}
		}
		id := tr.begin("wal.commit_always", n)
		err = shard.Commit()
		tr.end(id)
		if err != nil {
			return err
		}
	}

	tailDir := filepath.Join(dir, "tail")
	tail, _, err := openLadderStore(tailDir, wal.SyncInterval)
	if err != nil {
		return err
	}
	sr, _, err = tail.db.GetOrCreate("tail", eps, false)
	if err != nil {
		tail.close()
		return err
	}
	shard = tail.shardOf("tail")
	buf := make([]core.Point, in.g.chunk)
	logged := int64(0)
	for round := 0; round < walOpenChunks && err == nil; round++ {
		f, _ := core.NewSwing(eps)
		segs, err = core.Run(f, in.g.fill(buf, 0, round))
		for k := 0; err == nil && k < len(segs); k++ {
			if err = shard.Append(sr, segs[k]); err == nil {
				err = sr.Append(segs[k])
			}
		}
		logged += int64(len(segs))
	}
	if err == nil {
		err = tail.st.Sync()
	}
	if cerr := tail.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	id := tr.begin("wal.open", 0)
	reopened, stats, err := openLadderStore(tailDir, wal.SyncInterval)
	tr.end(id)
	if err != nil {
		return err
	}
	defer reopened.close()
	if int64(stats.Replayed) != logged {
		return fmt.Errorf("wal.Open replayed %d of %d logged segments", stats.Replayed, logged)
	}
	c.replayed = logged
	return nil
}

// queryLadder builds a sealed, rolled-up archive of ladderSeries of the
// query workloads' series, reopens it, and runs the read-side layers
// over it: cold and hot aggregates and quantiles, the query mix
// resolved against the archive's own functions, tier selection, and
// the sketch primitives.
func queryLadder(tr *tracer, c *ladderCounts, dir string, g walks, specs []querySpec) error {
	eps := []float64{archiveEps}
	name := func(s int) string { return fmt.Sprintf("q%d", s) }
	mm, err := mmapstore.Open(dir, nil)
	if err != nil {
		return err
	}
	db := tsdb.NewWithNamedStore(mm.Store)
	db.EnableRollups(archiveTiers)
	buf := make([]core.Point, g.chunk)
	for s := 0; s < ladderSeries && err == nil; s++ {
		var sr *tsdb.Series
		if sr, _, err = db.GetOrCreate(name(s), eps, false); err != nil {
			break
		}
		for round := 0; round < archiveRounds && err == nil; round++ {
			f, _ := core.NewSwing(eps)
			var segs []core.Segment
			if segs, err = core.Run(f, g.fill(buf, s, round)); err == nil {
				err = sr.Append(segs...)
			}
			if err == nil {
				err = sr.Seal()
			}
		}
		if err != nil {
			break
		}
		c.baseSegments += int64(sr.Len())
		id := tr.begin("tsdb.rollup", s)
		_, err = db.Rollup(name(s))
		tr.end(id)
	}
	for _, tier := range db.TierNames() {
		if sr, gerr := db.Get(tier); gerr == nil && err == nil {
			err = sr.Seal()
		}
	}
	if cerr := mm.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	id := tr.begin("mmapstore.open", 0)
	mm, err = mmapstore.Open(dir, nil)
	if err == nil {
		db = tsdb.NewWithNamedStore(mm.Store)
		db.EnableRollups(archiveTiers)
		_, err = mm.LoadInto(db)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	defer mm.Close()
	for _, n := range db.Names() {
		if sr, err := db.Get(n); err == nil {
			c.openedSegments += int64(sr.Len())
		}
	}

	// Cold is the first aggregate or quantile a series sees after the
	// reopen, hot the same query again.
	eng := query.New(db)
	end := float64(archiveRounds*g.chunk - 1)
	quantiles := []float64{0.5, 0.99}
	for _, temp := range []string{"cold", "hot"} {
		for s := 0; s < ladderSeries; s++ {
			id := tr.begin("query.agg_"+temp, s)
			_, err := eng.Aggregate(name(s), 0, 0, end)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("query.quantile_"+temp, s)
			_, err = eng.Quantiles(name(s), 0, 0, end, quantiles)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}

	for j, q := range specs {
		sr, err := db.Get(name(q.series))
		if err != nil {
			return err
		}
		t0, t1 := q.resolve(archiveRounds * g.chunk)
		root := tr.begin("query", j)
		switch q.class {
		case qAT:
			id := tr.begin("tsdb.at", j)
			_, ok := sr.At(t0)
			tr.end(id)
			if !ok {
				err = fmt.Errorf("AT %v: no coverage", t0)
			}
		case qSCAN:
			var segs []core.Segment
			id := tr.begin("tsdb.scan", j)
			segs, err = sr.Scan(t0, t1)
			tr.end(id)
			c.scanned += int64(len(segs))
		case qAGG:
			id := tr.begin("query.agg_hot", j)
			_, err = eng.Aggregate(sr.Name(), 0, t0, t1)
			tr.end(id)
		case qAGGBOUND:
			id := tr.begin("query.agg_bound", j)
			_, err = eng.AggregateBound(sr.Name(), 0, t0, t1, boundMult*archiveEps)
			tr.end(id)
		case qQUANTILE:
			id := tr.begin("query.quantile_eighth", j)
			_, err = eng.Quantiles(sr.Name(), 0, t0, t1, quantiles)
			tr.end(id)
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("%s %s: %w", classNames[q.class], sr.Name(), err)
		}
	}

	sr, err := db.Get(name(0))
	if err != nil {
		return err
	}
	id = tr.begin("query.tierfor", 0)
	for k := 0; k < tierForCalls; k++ {
		eng.TierFor(sr, 0, 0, end, boundMult*archiveEps)
	}
	tr.end(id)

	segs := sr.Segments()
	blocks := make([]sketch.Block, 0, sketchBlocks)
	for w := 0; w < sketchBlocks && (w+1)*sketch.WindowSize <= len(segs); w++ {
		id := tr.begin("sketch.build_block", w)
		blocks = append(blocks, sketch.BuildBlock(w*sketch.WindowSize, 1, func(i int) core.Segment { return segs[i] }))
		tr.end(id)
	}
	for w := 1; w < len(blocks); w++ {
		id := tr.begin("sketch.merge", w)
		sketch.Merge(blocks[w-1].Sketches[0], blocks[w].Sketches[0])
		tr.end(id)
	}
	id = tr.begin("sketch.segagg", 0)
	for _, seg := range segs {
		sketch.SegAgg(seg, 0, seg.T0, seg.T1)
	}
	tr.end(id)
	c.segAggs = int64(len(segs))
	return nil
}

// inProcessServer starts a server on a loopback listener.
func inProcessServer(cfg server.Config) (srv *server.Server, addr string, stop func() error, err error) {
	if srv, err = server.New(nil, cfg); err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns once Shutdown closed the listener
	}()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-served
		return err
	}
	return srv, ln.Addr().String(), stop, nil
}

// composedIngest sends in's chunks, one session each, through a real
// client into an in-process durable server, on one processor so that
// client and server time add instead of overlapping, and returns first
// dial to last ack. What it takes beyond the ladder's self times is
// sockets, queues and scheduling.
func composedIngest(dir string, in ladderInput) (time.Duration, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr, stop, err := inProcessServer(server.Config{
		Shards: 2, DataDir: dir, StoreBackend: server.BackendMmap,
		Sync: wal.SyncInterval, CompactBytes: -1,
	})
	if err != nil {
		return 0, err
	}
	buf := make([]core.Point, in.g.chunk)
	start := time.Now()
	for i := 0; i < in.chunks && err == nil; i++ {
		s, round := i%ladderSeries, i/ladderSeries
		var ack server.Ack
		if _, ack, _, err = ingestSession(addr, seriesName(s), in.eps, in.g.fill(buf, s, round)); err == nil && ack.Rejected+ack.Dropped != 0 {
			err = fmt.Errorf("ack rejected %d, dropped %d", ack.Rejected, ack.Dropped)
		}
	}
	elapsed := time.Since(start)
	if serr := stop(); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return elapsed, err
}

// teeConn copies what a client writes to its connection.
type teeConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (t *teeConn) Write(p []byte) (int, error) {
	t.wrote.Write(p)
	return t.Conn.Write(p)
}

// serverProbes measures the server apart from the filter: an empty
// session's round trip, recorded session bytes replayed at a fresh
// server, and the same two over the datagram transport.
func serverProbes(m map[string]float64, in ladderInput) error {
	eps := []float64{in.eps}
	_, addr, stop, err := inProcessServer(server.Config{Shards: 2})
	if err != nil {
		return err
	}
	defer func() { stop() }()

	var empty latencies
	for i := 0; i < emptySessions; i++ {
		start := time.Now()
		if _, _, _, err := ingestSession(addr, fmt.Sprintf("empty%d", i), in.eps, nil); err != nil {
			return err
		}
		empty.add(float64(time.Since(start)) / float64(time.Microsecond))
	}
	m["server.session_us"], _ = empty.q(0.5)

	// Record what replaySeries rough sessions put on the wire…
	type recording struct {
		wire    []byte
		applied int64
	}
	recs := make([]recording, replaySeries)
	buf := make([]core.Point, in.g.chunk)
	for s := range recs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		tee := &teeConn{Conn: conn}
		f, _ := core.NewSwing(eps)
		cl, err := server.NewClient(tee, fmt.Sprintf("rec%d", s), f)
		if err != nil {
			conn.Close()
			return err
		}
		if err := cl.SendBatch(in.g.fill(buf, s, 0)); err != nil {
			cl.Close()
			return err
		}
		ack, err := cl.Close()
		if err != nil {
			return err
		}
		recs[s] = recording{wire: append([]byte(nil), tee.wrote.Bytes()...), applied: ack.Applied}
	}
	// …and blast it at a server that has not seen those series, with no
	// filter in the loop.
	srv2, addr2, stop2, err := inProcessServer(server.Config{Shards: 2})
	if err != nil {
		return err
	}
	defer func() { stop2() }()
	var replayed int64
	start := time.Now()
	for _, rec := range recs {
		applied, err := replaySession(addr2, rec.wire)
		if err != nil {
			return err
		}
		if applied != rec.applied {
			return fmt.Errorf("replayed session applied %d segments, recorded one %d", applied, rec.applied)
		}
		replayed += applied
	}
	m["server.replay_segments_per_s"] = float64(replayed) / time.Since(start).Seconds()

	udpAddr, err := srv2.ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		return err
	}
	udpSession := func(name string, pts []core.Point) error {
		f, _ := core.NewSwing(eps)
		cl, err := udpingest.Dial(udpAddr.String(), name, f)
		if err != nil {
			return err
		}
		if err := cl.SendBatch(pts); err != nil {
			cl.Close()
			return err
		}
		ack, err := cl.Close()
		if err == nil && ack.Rejected+ack.Dropped != 0 {
			err = fmt.Errorf("udp ack rejected %d, dropped %d", ack.Rejected, ack.Dropped)
		}
		return err
	}
	var udpEmpty latencies
	for i := 0; i < emptySessions; i++ {
		start := time.Now()
		if err := udpSession(fmt.Sprintf("uempty%d", i), nil); err != nil {
			return err
		}
		udpEmpty.add(float64(time.Since(start)) / float64(time.Microsecond))
	}
	m["udpingest.session_us"], _ = udpEmpty.q(0.5)
	start = time.Now()
	for s := 0; s < replaySeries; s++ {
		if err := udpSession(fmt.Sprintf("udp%d", s), in.g.fill(buf, s, 0)); err != nil {
			return err
		}
	}
	m["udpingest.points_per_s"] = float64(replaySeries*in.g.chunk) / time.Since(start).Seconds()
	return nil
}

// replaySession writes one recorded ingest session to a fresh
// connection and reads the replies: the handshake status, then the
// final ack. It returns the segments the ack counted applied.
func replaySession(addr string, wire []byte) (int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		return 0, err
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ { // handshake status, ack status: 0 = accepted
		if b, err := br.ReadByte(); err != nil || b != 0 {
			return 0, fmt.Errorf("replay: status %d: %v", b, err)
		}
	}
	var counts [3]uint64 // applied, rejected, dropped
	for i := range counts {
		if counts[i], err = binary.ReadUvarint(br); err != nil {
			return 0, err
		}
	}
	if counts[1]+counts[2] != 0 {
		return 0, fmt.Errorf("replay: ack rejected %d, dropped %d", counts[1], counts[2])
	}
	return int64(counts[0]), nil
}

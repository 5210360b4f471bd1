package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/server"
	"github.com/pla-go/pla/internal/sketch"
)

const (
	archiveSeries = 64
	archiveChunk  = 32768 // points per ingest session
	archiveRounds = 3     // sessions per series when the archive is built
	archiveEps    = 0.2
	boundMult     = 8 // AGG max … BOUND 8ε: satisfiable by the 4× tier, not the 16×

	mixBatches = 750 // batches of eleven queries per connection at defaultSeconds

	openLoopRate = 500_000 // points/s connection A sends at
	// openLoopSessions at defaultSeconds is nine seconds' worth: plad
	// looks at its log tails every five seconds from its start, and the
	// region begins half a second after that, so it holds exactly one
	// such look, with room either side.
	openLoopSessions = 9 * openLoopRate / archiveChunk
	lateLimit        = time.Second
)

// archiveTiers is the rollup ladder of the query workloads' plad
// (-rollup-tiers 4,16), for the layer trace's in-process archive.
var archiveTiers = []int{4, 16}

// tol widens a band by the slack float arithmetic may use up.
const tol = 1 + 1e-9

// relEq compares two sums that should differ by rounding only.
func relEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// answer is one AGG or QUANTILE reply kept for checking after the timed
// region, so that computing ground truth does not share the cores with
// the queries being timed.
type answer struct {
	q          querySpec
	t0, t1     float64
	value      float64
	lo, hi     float64
	quantileOf float64
}

// queryTally is one query connection's account.
type queryTally struct {
	byClass [nClasses]latencies // ms
	all     latencies
	issued  int64
	bound   int64 // queries that carried BOUND
	answers []answer
}

// one issues a single query of the mix against a series holding n
// samples, times it, and checks what can be checked for free: an AT
// answer against the raw sample, a SCAN's order and coverage, a band's
// shape. keep says whether AGG/QUANTILE answers are worth keeping for
// the ground-truth pass (they are not while the series is growing).
func (t *queryTally) one(o *outcome, qc *server.QueryClient, q querySpec, n int, g walks, keep bool) {
	name := seriesName(q.series)
	t0, t1 := q.resolve(n)
	o.ops(1)
	t.issued++
	start := time.Now()
	var err error
	switch q.class {
	case qAT:
		var v []float64
		if v, err = qc.At(name, t0); err == nil {
			if raw := g.at(q.series, int(t0)); math.Abs(v[0]-raw) > archiveEps*tol {
				err = fmt.Errorf("got %v, raw sample %v, eps %v", v[0], raw, archiveEps)
			}
		}
	case qSCAN:
		var segs []core.Segment
		if segs, err = qc.Scan(name, t0, t1); err == nil {
			err = checkScan(segs, t0, t1)
		}
	case qAGG, qAGGBOUND:
		var a server.AggValue
		if q.class == qAGG {
			a, err = qc.Agg("avg", name, 0, t0, t1)
		} else {
			t.bound++
			a, err = qc.AggBound("max", name, 0, t0, t1, boundMult*archiveEps)
		}
		if err == nil && (a.Count <= 0 || !(a.Bound >= 0) || math.IsInf(a.Bound, 0)) {
			err = fmt.Errorf("count %d bound %v", a.Count, a.Bound)
		}
		if err == nil && keep {
			t.answers = append(t.answers, answer{q: q, t0: t0, t1: t1, value: a.Value, lo: a.Lo(), hi: a.Hi()})
		}
	case qQUANTILE:
		var qs []server.QuantileValue
		if qs, err = qc.Quantiles(name, 0, t0, t1, 0.5, 0.99); err == nil && len(qs) != 2 {
			err = fmt.Errorf("%d rows for 2 quantiles", len(qs))
		}
		for _, v := range qs {
			if err == nil && !(v.Lo <= v.Value && v.Value <= v.Hi) {
				err = fmt.Errorf("q%v: value %v outside its own band [%v, %v]", v.Q, v.Value, v.Lo, v.Hi)
			}
			if err == nil && keep {
				t.answers = append(t.answers, answer{q: q, t0: t0, t1: t1, value: v.Value, lo: v.Lo, hi: v.Hi, quantileOf: v.Q})
			}
		}
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	t.byClass[q.class].add(ms)
	t.all.add(ms)
	if err != nil {
		o.fail("%s %s [%v, %v]: %v", classNames[q.class], name, t0, t1, err)
	}
}

// checkScan requires a SCAN reply to be time-ordered and to reach both
// ends of the range (disconnected neighbours leave a one-sample gap, so
// an end within one time unit counts as reached).
func checkScan(segs []core.Segment, t0, t1 float64) error {
	if len(segs) == 0 {
		return fmt.Errorf("no segments")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].T0 < segs[i-1].T1 {
			return fmt.Errorf("segments %d and %d overlap", i-1, i)
		}
	}
	if segs[0].T0 > t0+1 || segs[len(segs)-1].T1 < t1-1 {
		return fmt.Errorf("covers [%v, %v] only", segs[0].T0, segs[len(segs)-1].T1)
	}
	return nil
}

func mergeQueryTallies(ts []*queryTally) *queryTally {
	all := &queryTally{}
	for _, t := range ts {
		for c := range t.byClass {
			all.byClass[c].merge(&t.byClass[c])
		}
		all.all.merge(&t.all)
		all.issued += t.issued
		all.bound += t.bound
		all.answers = append(all.answers, t.answers...)
	}
	return all
}

// queryMetrics fills the end-to-end and per-layer numbers of a read
// mix.
func (o *outcome) queryMetrics(qt *queryTally, elapsed time.Duration) {
	o.e2e["ops_per_s"] = float64(qt.issued) / elapsed.Seconds()
	o.opLatency(&qt.all)
	for c := range qt.byClass {
		l := &qt.byClass[c]
		p50, _ := l.q(0.5)
		p99, ok := l.q(0.99)
		if !ok {
			p99 = 0
		}
		o.layer["server.query_"+classNames[c]+"_p50_us"] = p50 * 1000
		o.layer["server.query_"+classNames[c]+"_p99_us"] = p99 * 1000
		o.samples["query_"+classNames[c]] = l.n()
	}
}

// truth recomputes raw-sample statistics from the signal.
type truth struct {
	g      walks
	sum    []float64 // per block
	max    []float64
	rounds int
}

func newTruth(g walks, rounds int) truth {
	tr := truth{g: g, rounds: rounds, sum: make([]float64, len(g.blocks)), max: make([]float64, len(g.blocks))}
	for b, blk := range g.blocks {
		tr.max[b] = math.Inf(-1)
		for _, p := range blk {
			tr.sum[b] += p.X[0]
			tr.max[b] = math.Max(tr.max[b], p.X[0])
		}
	}
	return tr
}

// full returns the mean and maximum of a series' whole raw stream.
func (tr truth) full(series int) (mean, peak float64) {
	sum, peak := 0.0, math.Inf(-1)
	for r := 0; r < tr.rounds; r++ {
		b := tr.g.index(series, r)
		sum += tr.sum[b]
		peak = math.Max(peak, tr.max[b])
	}
	return sum / float64(tr.rounds*tr.g.chunk), peak
}

// checkAnswers verifies the kept replies against ground truth: every
// full-span AGG's band must contain the raw statistic, and a seeded
// sample of the QUANTILE bands must contain the raw quantile (sorting
// an eighth of a series per answer is the expensive part, hence the
// sample). A quantile's rank is allowed one position of slack either
// way, which absorbs the difference between rank conventions.
func checkAnswers(o *outcome, answers []answer, tr truth, seed uint64) {
	const quantileSample = 64
	rng := gen.NewRNG(mix(seed, 7, 0))
	var quantiles []answer
	for _, a := range answers {
		name := seriesName(a.q.series)
		switch a.q.class {
		case qAGG, qAGGBOUND:
			want, peak := tr.full(a.q.series)
			what := "avg"
			if a.q.class == qAGGBOUND {
				want, what = peak, "max"
			}
			half := (a.hi - a.lo) / 2 * tol
			o.check(math.Abs(a.value-want) <= half,
				"AGG %s %s: %v ± %v does not contain the raw %v", what, name, a.value, half, want)
		case qQUANTILE:
			quantiles = append(quantiles, a)
		}
	}
	for i := 0; i < quantileSample && len(quantiles) > 0; i++ {
		a := quantiles[rng.Intn(len(quantiles))]
		var raw []float64
		for t := int(math.Ceil(a.t0)); float64(t) <= a.t1; t++ {
			raw = append(raw, tr.g.at(a.q.series, t))
		}
		sort.Float64s(raw)
		k := int(math.Ceil(a.quantileOf*float64(len(raw)))) - 1
		lo, hi := raw[max(k-1, 0)], raw[min(k+1, len(raw)-1)]
		o.check(a.lo <= hi+1e-9 && a.hi >= lo-1e-9,
			"QUANTILE %v %s [%v, %v]: band [%v, %v] misses the raw quantile in [%v, %v]",
			a.quantileOf, seriesName(a.q.series), a.t0, a.t1, a.lo, a.hi, lo, hi)
	}
}

// crossCheck compares AGG sum and count with folding a SCAN of the same
// range through the same closed form, for eight seeded (series, range)
// pairs: two independent read paths must agree to rounding.
func crossCheck(o *outcome, addr string, points int, seed uint64) error {
	qc, err := server.DialQuery(addr)
	if err != nil {
		return err
	}
	defer qc.Close()
	rng := gen.NewRNG(mix(seed, 8, 0))
	for i := 0; i < 8; i++ {
		name := seriesName(rng.Intn(archiveSeries))
		t0 := math.Floor(rng.Float64() * float64(points) / 2)
		t1 := t0 + math.Floor(rng.Float64()*float64(points)/2)
		sum, err1 := qc.Agg("sum", name, 0, t0, t1)
		count, err2 := qc.Agg("count", name, 0, t0, t1)
		segs, err3 := qc.Scan(name, t0, t1)
		if err1 != nil || err2 != nil || err3 != nil {
			o.check(false, "cross-check %s [%v, %v]: %v %v %v", name, t0, t1, err1, err2, err3)
			continue
		}
		var fold sketch.Agg
		for _, s := range segs {
			if a, ok := sketch.SegAgg(s, 0, t0, t1); ok {
				fold.Join(a)
			}
		}
		o.check(relEq(fold.Sum, sum.Value) && fold.Count == count.Value && count.Value == float64(sum.Count),
			"cross-check %s [%v, %v]: AGG sum %v count %v, SCAN-and-fold sum %v count %v",
			name, t0, t1, sum.Value, count.Value, fold.Sum, fold.Count)
	}
	return nil
}

// buildArchive is the query workloads' set-up: ingest the archive into
// a fresh plad, drain it with SIGINT, and bring plad back on the
// directory. It returns the restarted process, the ingest account, and
// how long the whole set-up took.
func buildArchive(rc *runCtx, w *workload, o *outcome, g walks) (*plad, *ingestTally, error) {
	start := time.Now()
	p, err := startPlad(rc.j, rc.bin, rc.dataDir(), w.flags...)
	if err != nil {
		return nil, nil, err
	}
	all := closedLoop(o, p.addr, g, archiveSeries, archiveEps, 0, archiveRounds)
	if _, err := p.drain(); err != nil {
		return nil, nil, err
	}
	o.notePeak(p)
	p2, infos, recovered, err := restart(rc, w, p.dataDir)
	if err != nil {
		return nil, nil, err
	}
	o.e2e["recover_s"] = recovered.Seconds()
	o.setup += time.Since(start)
	for s, n := range all.applied {
		got := -1
		for _, in := range infos {
			if in.Name == seriesName(s) {
				got = in.Segments
			}
		}
		o.check(int64(got) == n, "after restart %s holds %d segments, acks counted %d", seriesName(s), got, n)
	}
	rc.logf("%s: archive of %d points (%d segments) built and recovered in %.2fs (recover %.3fs)",
		w.name, all.points, all.segments, time.Since(start).Seconds(), o.e2e["recover_s"])
	return p2, all, nil
}

// coldPass issues one full-span AGG per series on the just-recovered
// process, before anything else has touched the archive, and reports
// the median: what the first dashboard after a restart pays.
func coldPass(o *outcome, addr string, points int) error {
	qc, err := server.DialQuery(addr)
	if err != nil {
		return err
	}
	defer qc.Close()
	var lat latencies
	for s := 0; s < archiveSeries; s++ {
		o.ops(1)
		start := time.Now()
		if _, err := qc.Agg("avg", seriesName(s), 0, 0, float64(points-1)); err != nil {
			o.fail("cold AGG %s: %v", seriesName(s), err)
		}
		lat.add(float64(time.Since(start)) / float64(time.Millisecond))
	}
	p50, _ := lat.q(0.5)
	o.layer["query.cold_agg_p50_us"] = p50 * 1000
	return nil
}

// runQueryArchive is query-archive: the fixed mix, closed loop on two
// connections, against a recovered archive nothing is writing to.
func runQueryArchive(rc *runCtx, w *workload, o *outcome) error {
	start := time.Now()
	g := newWalks(rc.seed, 3, walkBlocks, archiveChunk)
	batches := scale(mixBatches, rc.seconds)
	mixes := make([][]querySpec, conns)
	for c := range mixes {
		mixes[c] = genMix(mix(rc.seed, 4, uint64(c)), batches, archiveSeries, false)
	}
	o.setup = time.Since(start)

	p, built, err := buildArchive(rc, w, o, g)
	if err != nil {
		return err
	}
	points := archiveRounds * archiveChunk
	if err := coldPass(o, p.addr, points); err != nil {
		return err
	}
	ts := make([]*queryTally, conns)
	dialErrs := make([]error, conns)
	t, err := p.region(func() {
		var wg sync.WaitGroup
		for c := range ts {
			ts[c] = &queryTally{}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				qc, err := server.DialQuery(p.addr)
				if err != nil {
					o.check(false, "query connection %d: %v", c, err)
					dialErrs[c] = err
					return
				}
				defer qc.Close()
				for _, q := range mixes[c] {
					ts[c].one(o, qc, q, points, g, true)
				}
			}(c)
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}
	if err := errors.Join(dialErrs...); err != nil {
		return err
	}
	qt := mergeQueryTallies(ts)
	rc.logf("%s: %d queries in %.2fs", w.name, qt.issued, t.elapsed.Seconds())
	o.queryMetrics(qt, t.elapsed)

	checkAnswers(o, qt.answers, newTruth(g, archiveRounds), rc.seed)
	if err := crossCheck(o, p.addr, points, rc.seed); err != nil {
		return err
	}
	drain, err := p.drain()
	if err != nil {
		return err
	}
	o.notePeak(p)
	o.setup += drain
	disk, err := dirBytes(p.dataDir)
	if err != nil {
		return err
	}
	o.ingestMetrics(built, disk)
	o.scrapeLayers(t, qt.issued, qt.bound, disk)
	o.finish()
	return nil
}

// runQueryUnderIngest is query-under-ingest: connection A appends to
// the archive open loop at a fixed rate while connection B runs the mix
// closed loop until A is done.
func runQueryUnderIngest(rc *runCtx, w *workload, o *outcome) error {
	start := time.Now()
	g := newWalks(rc.seed, 3, walkBlocks, archiveChunk)
	specs := genMix(mix(rc.seed, 5, 0), scale(mixBatches, rc.seconds), archiveSeries, true)
	sessions := scale(openLoopSessions, rc.seconds)
	o.setup = time.Since(start)

	p, built, err := buildArchive(rc, w, o, g)
	if err != nil {
		return err
	}
	// frontier[s] is how many samples of series s are acked; B resolves
	// each range against it at issue time, so "newest" follows the
	// ingest.
	frontier := make([]atomic.Int64, archiveSeries)
	for s := range frontier {
		frontier[s].Store(int64(archiveRounds * archiveChunk))
	}
	a, qt := newIngestTally(), &queryTally{}
	var dialErr error
	t, err := p.region(func() {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc, err := server.DialQuery(p.addr)
			if err != nil {
				o.check(false, "query connection: %v", err)
				dialErr = err
				return
			}
			defer qc.Close()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := specs[i%len(specs)]
				qt.one(o, qc, q, int(frontier[q.series].Load()), g, false)
			}
		}()
		pace := pacer{start: time.Now(), every: time.Duration(float64(archiveChunk) / openLoopRate * float64(time.Second))}
		buf := make([]core.Point, g.chunk)
		for i := 0; i < sessions; i++ {
			s, r := i%archiveSeries, archiveRounds+i/archiveSeries
			due := pace.due(i)
			late := pace.wait(i)
			a.late.add(float64(late) / float64(time.Millisecond))
			o.check(late <= lateLimit, "open-loop send %d started %v late", i, late)
			a.session(o, p.addr, s, archiveEps, g.fill(buf, s, r), due)
			frontier[s].Add(int64(g.chunk))
		}
		close(done)
		wg.Wait()
	})
	if err != nil {
		return err
	}
	if dialErr != nil {
		return dialErr
	}
	rc.logf("%s: %d queries beside %d points in %.2fs", w.name, qt.issued, a.points, t.elapsed.Seconds())
	o.queryMetrics(qt, t.elapsed)
	o.layer["server.gen_lateness_max_ms"], _ = a.late.q(1)
	o.samples["open_loop_sends"] = a.late.n()

	drain, err := p.drain()
	if err != nil {
		return err
	}
	o.notePeak(p)
	o.setup += drain
	disk, err := dirBytes(p.dataDir)
	if err != nil {
		return err
	}
	all := mergeTallies([]*ingestTally{built, a})
	o.ingestMetrics(all, disk)
	o.scrapeLayers(t, qt.issued, qt.bound, disk)

	// recover_s stays the set-up restart's, which the queries ran against.
	_, err = readBack(rc, w, o, p.dataDir, g, archiveEps, all)
	o.finish()
	return err
}

// verifyArchive is the read-back gate after a restart: every series
// must hold exactly the segments and samples the acks counted, and 256
// seeded raw samples of each of 8 seeded series must lie within eps of
// what AT answers.
func verifyArchive(o *outcome, p *plad, infos []server.SeriesInfo, g walks, eps float64, all *ingestTally, seed uint64) {
	byName := make(map[string]server.SeriesInfo, len(infos))
	for _, in := range infos {
		byName[in.Name] = in
	}
	series := make([]int, 0, len(all.sent))
	for s := range all.sent {
		series = append(series, s)
	}
	sort.Ints(series)
	for _, s := range series {
		in, ok := byName[seriesName(s)]
		o.check(ok && int64(in.Segments) == all.applied[s] && in.Points == all.sent[s],
			"after restart %s holds %d segments / %d points (listed: %v), acks counted %d / %d",
			seriesName(s), in.Segments, in.Points, ok, all.applied[s], all.sent[s])
	}
	qc, err := server.DialQuery(p.addr)
	if err != nil {
		o.check(false, "read-back connection: %v", err)
		return
	}
	defer qc.Close()
	rng := gen.NewRNG(mix(seed, 9, 0))
	for i := 0; i < 8 && len(series) > 0; i++ {
		s := series[rng.Intn(len(series))]
		for k := 0; k < 256; k++ {
			t := rng.Intn(all.sent[s])
			v, err := qc.At(seriesName(s), float64(t))
			raw := g.at(s, t)
			o.check(err == nil && math.Abs(v[0]-raw) <= eps*tol,
				"AT %s %d: got %v (err %v), raw sample %v, eps %v", seriesName(s), t, v, err, raw, eps)
		}
	}
}

// Package query is the segment-native query engine: it plans a
// time-range aggregate or quantile query over the archive as sealed
// summary blocks plus walked edge/tail segments (tsdb's pushdown
// decomposition), fans multi-series queries out concurrently, and
// merges the partial answers in sorted-name order so every reply is
// deterministic down to the byte whatever the storage backend, cache
// state, or execution interleaving.
package query

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/pla-go/pla/internal/sketch"
	"github.com/pla-go/pla/internal/tsdb"
)

// All is the series name that fans a query out over every series in the
// archive.
const All = "*"

// Engine answers range queries against one archive and keeps the
// pushdown counters the server exports. It is safe for concurrent use.
type Engine struct {
	db *tsdb.Archive

	aggQueries      atomic.Int64
	quantileQueries atomic.Int64
	cachedWindows   atomic.Int64
	builtWindows    atomic.Int64
	walkedSegments  atomic.Int64
	tierHits        atomic.Int64
}

// New returns an engine over db.
func New(db *tsdb.Archive) *Engine { return &Engine{db: db} }

// Counters is a point-in-time snapshot of the engine's lifetime
// counters: how many pushdown queries ran and how their ranges were
// covered (summary windows served from a cache, windows built on
// demand, segments folded one by one).
type Counters struct {
	// AggQueries and QuantileQueries count answered pushdown queries by
	// kind (fan-out over * counts once, not per series).
	AggQueries      int64
	QuantileQueries int64
	// CachedWindows and BuiltWindows split the summary windows that
	// covered query ranges by whether they came from a cache/sidecar or
	// were recomputed from segments; their ratio is the pushdown hit
	// rate.
	CachedWindows int64
	BuiltWindows  int64
	// WalkedSegments counts segments folded closed-form one by one
	// (edges, unsealed tails, fallback) — the work pushdown did not
	// save.
	WalkedSegments int64
	// TierHits counts per-series query computations served from a
	// rollup tier instead of the base series.
	TierHits int64
}

// Counters snapshots the engine's counters.
func (e *Engine) Counters() Counters {
	return Counters{
		AggQueries:      e.aggQueries.Load(),
		QuantileQueries: e.quantileQueries.Load(),
		CachedWindows:   e.cachedWindows.Load(),
		BuiltWindows:    e.builtWindows.Load(),
		WalkedSegments:  e.walkedSegments.Load(),
		TierHits:        e.tierHits.Load(),
	}
}

func (e *Engine) record(stats tsdb.PushdownStats) {
	e.cachedWindows.Add(int64(stats.CachedWindows))
	e.builtWindows.Add(int64(stats.BuiltWindows))
	e.walkedSegments.Add(int64(stats.WalkedSegments))
}

// Answer is what every pushdown answer carries besides its value: the
// bound ledger of the data that answered (joined over every queried
// series), the worst staleness among them, how many contributed data,
// and how their ranges were covered.
type Answer struct {
	Bound
	Stale  int
	Series int
	Stats  tsdb.PushdownStats
}

// AggResult is one answered aggregate query.
type AggResult struct {
	Answer
	// Agg holds the exact closed-form statistics of the canonical
	// reconstruction over the range (joined over every queried series);
	// Bound.Agg turns it into a reply value and band.
	Agg sketch.Agg
}

// QuantilesResult is one answered quantile query.
type QuantilesResult struct {
	Answer
	// Quantiles holds one answer per requested q, each with a band the
	// true quantile is guaranteed inside (Bound.Quantiles composed it).
	Quantiles []sketch.Quantile
}

// Aggregate answers min/max/sum/count/avg over [t0, t1] in dimension
// dim for the named series, or joined across every series when name is
// All. Per-series answers are computed concurrently and folded in
// sorted-name order (Join is exact, so the fold order only matters for
// byte-stable floating-point association).
func (e *Engine) Aggregate(name string, dim int, t0, t1 float64) (AggResult, error) {
	return e.AggregateBound(name, dim, t0, t1, 0)
}

// AggregateBound is Aggregate with an acceptable error bound: each
// queried series may be answered from the coarsest rollup tier whose
// precision fits inside bound and whose coverage spans the range (see
// TierFor), reading far fewer segments. The result's Bound is that of
// the data that actually answered. bound ≤ 0 asks for base precision.
func (e *Engine) AggregateBound(name string, dim int, t0, t1, bound float64) (AggResult, error) {
	e.aggQueries.Add(1)
	var agg sketch.Agg
	ans, err := fanout(e, name,
		func(sr *tsdb.Series) (sketch.Agg, Bound, tsdb.PushdownStats, error) {
			target, mult := e.TierFor(sr, dim, t0, t1, bound)
			a, err := target.RangeAgg(dim, t0, t1)
			if err != nil {
				return sketch.Agg{}, Bound{}, a.Stats, err
			}
			// a.Epsilon was read under the series lock with the data.
			return a.Agg, planBound(sr, target, mult, dim, t0, t1, a.Epsilon), a.Stats, nil
		},
		func(a sketch.Agg) { agg.Join(a) })
	if err != nil {
		return AggResult{}, err
	}
	if ans.Series == 0 {
		return AggResult{}, fmt.Errorf("%w in [%v, %v]", tsdb.ErrNoData, t0, t1)
	}
	return AggResult{Answer: ans, Agg: agg}, nil
}

// Quantiles answers the given quantiles over [t0, t1] in dimension dim
// for the named series, or over the union of every series' samples when
// name is All. Summaries merge in sorted-name order (a strict left
// fold), and the band widening uses the worst contributing filter ε, so
// the composed guarantee holds across series with different contracts.
func (e *Engine) Quantiles(name string, dim int, t0, t1 float64, qs []float64) (QuantilesResult, error) {
	return e.QuantilesBound(name, dim, t0, t1, qs, 0)
}

// QuantilesBound is Quantiles with an acceptable error bound, with the
// same tier selection as AggregateBound. Rank uncertainty from
// partially covered coarse segments is folded into each answer's band
// (see Bound.Quantiles). bound ≤ 0 asks for base precision.
func (e *Engine) QuantilesBound(name string, dim int, t0, t1 float64, qs []float64, bound float64) (QuantilesResult, error) {
	e.quantileQueries.Add(1)
	for _, q := range qs {
		if math.IsNaN(q) || q < 0 || q > 1 {
			return QuantilesResult{}, fmt.Errorf("query: quantile %v outside [0, 1]", q)
		}
	}
	merged := &sketch.Summary{}
	ans, err := fanout(e, name,
		func(sr *tsdb.Series) (*sketch.Summary, Bound, tsdb.PushdownStats, error) {
			target, mult := e.TierFor(sr, dim, t0, t1, bound)
			sum, stats, err := target.RangeSummary(dim, t0, t1)
			if err != nil {
				return nil, Bound{}, stats, err
			}
			// Read ε after the summary it bounds: effective ε only grows.
			return sum, planBound(sr, target, mult, dim, t0, t1, target.QueryEpsilon()[dim]), stats, nil
		},
		func(sum *sketch.Summary) { merged = sketch.Merge(merged, sum) })
	if err != nil {
		return QuantilesResult{}, err
	}
	if ans.Series == 0 || merged.N() == 0 {
		return QuantilesResult{}, fmt.Errorf("%w in [%v, %v]", tsdb.ErrNoData, t0, t1)
	}
	return QuantilesResult{Answer: ans, Quantiles: ans.Bound.Quantiles(merged, qs)}, nil
}

// fanout plans the query: resolve the queried series, run compute on
// each — concurrently for All, since every series' pushdown takes only
// its own lock — then fold the partial values and Merge their bounds
// strictly in sorted-name order so the reply bytes never depend on
// goroutine interleaving. A series with no data in range contributes
// nothing; any other error aborts the query.
func fanout[V any](e *Engine, name string,
	compute func(*tsdb.Series) (V, Bound, tsdb.PushdownStats, error), fold func(V)) (Answer, error) {
	type part struct {
		sr  *tsdb.Series
		val V
		b   Bound
		st  tsdb.PushdownStats
		err error
	}
	var parts []part
	if name != All {
		sr, err := e.db.Get(name)
		if err != nil {
			return Answer{}, err
		}
		parts = []part{{sr: sr}}
		parts[0].val, parts[0].b, parts[0].st, parts[0].err = compute(sr)
	} else {
		names := e.db.Names() // sorted
		parts = make([]part, 0, len(names))
		for _, n := range names {
			if sr, err := e.db.Get(n); err == nil {
				parts = append(parts, part{sr: sr})
			} // else: dropped between Names and Get
		}
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func(p *part) {
				defer wg.Done()
				p.val, p.b, p.st, p.err = compute(p.sr)
			}(&parts[i])
		}
		wg.Wait()
	}
	var ans Answer
	for i := range parts {
		p := &parts[i]
		ans.Stats.Add(p.st)
		e.record(p.st)
		if p.err != nil {
			if name == All && errors.Is(p.err, tsdb.ErrNoData) {
				continue
			}
			return Answer{}, p.err
		}
		fold(p.val)
		ans.Bound = ans.Bound.Merge(p.b)
		ans.Stale = max(ans.Stale, p.sr.Staleness())
		ans.Series++
	}
	return ans, nil
}

package tsdb

import (
	"fmt"
	"sort"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/sketch"
)

// Segment-native pushdown: range aggregates and quantiles answered from
// the segments themselves — closed-form per segment, precomputed per
// window — instead of reconstructing and folding O(points) samples.
//
// A query over [t0, t1] is decomposed canonically: finalized segments
// are grouped into windows of sketch.WindowSize (anchored at live index
// 0), every window whose segments all lie inside the range contributes
// its summary Block, and everything else — the clipped segments at the
// range edges, segments in partial windows, the unsealed tail, the
// provisional tail — is folded per segment in index order. The
// decomposition depends only on the live segment sequence and the
// range, never on what happens to be cached: a Block served by the
// store (the mmap sidecar), one cached on the Series, and one rebuilt
// from the segments are bit-identical by construction (sketch.BuildBlock
// is the single definition), so answers are reproducible to the byte
// across storage backends and cache states. Fast path and fallback are
// the same computation; caches only change how much of it is reused.
//
// Like the rest of the archive's aggregate layer, the decomposition
// assumes segments do not overlap in time (T1 nondecreasing), which
// every filter in this repository guarantees.

// Summarizer is implemented by segment stores that can serve
// precomputed summary blocks for part of their sealed range — the mmap
// extent store's sketch sidecars. Blocks must sit on the canonical
// window grid and reproduce sketch.BuildBlock's output exactly;
// misaligned or stale blocks are simply not returned. Called under the
// series lock.
type Summarizer interface {
	SummaryBlocks() []sketch.Block
}

// PushdownStats reports how a pushdown query was answered: how many
// window blocks came from a cache (store sidecar or series memo), how
// many had to be built from segments, and how many segments were folded
// individually.
type PushdownStats struct {
	CachedWindows  int
	BuiltWindows   int
	WalkedSegments int
}

// Add accumulates another query's coverage counters.
func (p *PushdownStats) Add(q PushdownStats) {
	p.CachedWindows += q.CachedWindows
	p.BuiltWindows += q.BuiltWindows
	p.WalkedSegments += q.WalkedSegments
}

// AggAnswer is a pushdown aggregate: the exact closed-form statistics
// of the canonical sample reconstruction over the range, plus the
// series' precision width in the queried dimension. Min/Max/Mean of the
// original samples lie within ±Epsilon of the reconstruction's; Count
// is exact; Sum is within ±Epsilon·Count.
type AggAnswer struct {
	Agg     sketch.Agg
	Epsilon float64
	Stats   PushdownStats
}

// RangeAgg computes min/max/sum/count (and thereby avg) of the
// reconstruction's samples in dimension dim over [t0, t1], in
// O(windows + edge segments) instead of O(points).
func (s *Series) RangeAgg(dim int, t0, t1 float64) (AggAnswer, error) {
	if err := s.checkQuery(dim, t0, t1); err != nil {
		return AggAnswer{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ans := AggAnswer{Epsilon: s.queryEps(dim)}
	err := s.decompose(dim, t0, t1, &ans.Stats,
		func(blk sketch.Block) { ans.Agg.Join(blk.Aggs[dim]) },
		func(seg core.Segment) {
			if a, ok := sketch.SegAgg(seg, dim, t0, t1); ok {
				ans.Agg.Join(a)
			}
		})
	if err != nil {
		return AggAnswer{}, err
	}
	if ans.Agg.Segments == 0 {
		return ans, fmt.Errorf("%w in [%v, %v]", ErrNoData, t0, t1)
	}
	return ans, nil
}

// RangeSummary merges the range's value distribution in dimension dim
// into one quantile summary: persisted or memoized window sketches
// where whole windows fit, freshly folded segment samples everywhere
// else. The summary's own Eps/Slack cover the sketch-side error; the
// caller still adds the series' filter ε when turning ranks into
// value guarantees (query.Bound.Quantiles does both).
func (s *Series) RangeSummary(dim int, t0, t1 float64) (*sketch.Summary, PushdownStats, error) {
	if err := s.checkQuery(dim, t0, t1); err != nil {
		return nil, PushdownStats{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var stats PushdownStats
	merged := &sketch.Summary{}
	run := sketch.NewBuilder()
	flush := func() {
		if !run.Empty() {
			merged = sketch.Merge(merged, run.Build())
		}
	}
	err := s.decompose(dim, t0, t1, &stats,
		func(blk sketch.Block) {
			flush()
			merged = sketch.Merge(merged, blk.Sketches[dim])
		},
		func(seg core.Segment) { sketch.AddSeg(run, seg, dim, t0, t1) })
	if err != nil {
		return nil, stats, err
	}
	flush()
	if merged.N() == 0 {
		return nil, stats, fmt.Errorf("%w in [%v, %v]", ErrNoData, t0, t1)
	}
	return merged, stats, nil
}

// decompose walks the query range as window blocks plus individual
// segments, invoking the callbacks in strict index order. s.mu must be
// held (read suffices; the block memo has its own lock).
func (s *Series) decompose(dim int, t0, t1 float64, stats *PushdownStats,
	window func(sketch.Block), segment func(core.Segment)) error {
	n := s.store.Len()
	if n == 0 {
		return nil
	}
	finalLen := n - s.provisional
	i0 := s.searchT0(t0)
	// Back up over predecessors that still reach into the range (with
	// non-overlapping segments: at most one step).
	for i0 > 0 && s.store.Seg(i0-1).T1 >= t0 {
		i0--
	}
	i1 := s.searchT0(t1) - 1
	if i0 > i1 {
		return nil
	}
	var fromStore map[int]sketch.Block
	if sm, ok := s.store.(Summarizer); ok {
		fromStore = make(map[int]sketch.Block)
		for _, blk := range sm.SummaryBlocks() {
			if blk.Aligned() && len(blk.Aggs) == len(s.eps) && blk.Hi <= finalLen {
				fromStore[blk.Lo/sketch.WindowSize] = blk
			}
		}
	}
	const w = sketch.WindowSize
	for i := i0; i <= i1; {
		if wLo := i - i%w; i == wLo && wLo+w <= finalLen && wLo+w-1 <= i1 &&
			s.store.Seg(wLo).T0 >= t0 && s.store.Seg(wLo+w-1).T1 <= t1 {
			blk, cached := fromStore[wLo/w]
			if !cached {
				blk, cached = s.memoBlock(wLo)
			}
			if !cached {
				blk = sketch.BuildBlock(wLo, len(s.eps), s.store.Seg)
				s.memoPut(blk)
				stats.BuiltWindows++
			} else {
				stats.CachedWindows++
			}
			window(blk)
			i = wLo + w
			continue
		}
		segment(s.store.Seg(i))
		stats.WalkedSegments++
		i++
	}
	return nil
}

// searchT0 returns the least index whose segment starts after t, using
// the store's own index when it has one.
func (s *Series) searchT0(t float64) int {
	if ti, ok := s.store.(TimeIndex); ok {
		return ti.SearchT0(t)
	}
	return sort.Search(s.store.Len(), func(j int) bool { return s.store.Seg(j).T0 > t })
}

// memoBlock looks up the series' own block memo — the mem backend's
// incremental per-series summary, and the cache for windows the mmap
// sidecars do not (yet) cover.
func (s *Series) memoBlock(lo int) (sketch.Block, bool) {
	s.blkMu.Lock()
	defer s.blkMu.Unlock()
	blk, ok := s.blocks[lo/sketch.WindowSize]
	return blk, ok
}

// memoPut records a freshly built block. Windows cover only finalized
// segments, which are immutable except for head drops (which clear the
// memo), so an entry never goes stale.
func (s *Series) memoPut(blk sketch.Block) {
	s.blkMu.Lock()
	defer s.blkMu.Unlock()
	if s.blocks == nil {
		s.blocks = make(map[int]sketch.Block)
	}
	s.blocks[blk.Lo/sketch.WindowSize] = blk
}

// invalidateBlocks forgets every memoized block — called when head
// drops shift live indices and the window grid no longer lines up.
func (s *Series) invalidateBlocks() {
	s.blkMu.Lock()
	s.blocks = nil
	s.blkMu.Unlock()
}

package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/sketch"
)

// buildSeries appends n synthetic time-ordered segments.
func buildSeries(t *testing.T, a *Archive, name string, n int, seed int64) *Series {
	t.Helper()
	s, err := a.Create(name, []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tcur, v := 0.0, 0.0
	for i := 0; i < n; i++ {
		dt := 1 + rng.Float64()*4
		v2 := v + rng.NormFloat64()*3
		seg := core.Segment{T0: tcur, T1: tcur + dt,
			X0: []float64{v}, X1: []float64{v2}, Points: 2 + rng.Intn(40)}
		if err := s.Append(seg); err != nil {
			t.Fatal(err)
		}
		tcur += dt + rng.Float64()*0.5 // occasional gaps
		v = v2
	}
	return s
}

// foldReference folds every stored segment's canonical samples — the
// SCAN-and-fold shape pushdown must agree with.
func foldReference(s *Series, dim int, t0, t1 float64) (agg sketch.Agg, vals []float64) {
	for _, seg := range s.Segments() {
		lo, hi, _, _, ok := sketch.SegRange(seg, dim, t0, t1)
		if !ok {
			continue
		}
		a := sketch.Agg{Min: math.Inf(1), Max: math.Inf(-1), Segments: 1,
			Covered: math.Min(seg.T1, t1) - math.Max(seg.T0, t0)}
		for i := lo; i <= hi; i++ {
			var f float64
			if seg.Points > 1 {
				f = float64(i) / float64(seg.Points-1)
			}
			v := seg.X0[dim] + f*(seg.X1[dim]-seg.X0[dim])
			a.Min = math.Min(a.Min, v)
			a.Max = math.Max(a.Max, v)
			a.Sum += v
			a.Count++
			vals = append(vals, v)
		}
		agg.Join(a)
	}
	return agg, vals
}

func TestRangeAggMatchesFold(t *testing.T) {
	a := New()
	s := buildSeries(t, a, "walk", 3*sketch.WindowSize+37, 1)
	end, _, _ := func() (float64, float64, bool) { t0, t1, ok := s.Span(); return t1, t0, ok }()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		t0 := rng.Float64() * end
		t1 := t0 + rng.Float64()*(end-t0)
		got, err := s.RangeAgg(0, t0, t1)
		want, _ := foldReference(s, 0, t0, t1)
		if want.Segments == 0 {
			if !errors.Is(err, ErrNoData) {
				t.Fatalf("trial %d: expected ErrNoData, got %v (%+v)", trial, err, got.Agg)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := got.Agg
		if g.Min != want.Min || g.Max != want.Max || g.Count != want.Count || g.Segments != want.Segments {
			t.Fatalf("trial %d [%v,%v]: got %+v want %+v", trial, t0, t1, g, want)
		}
		if math.Abs(g.Sum-want.Sum) > 1e-6*math.Max(1, math.Abs(want.Sum)) {
			t.Fatalf("trial %d: sum %v vs %v", trial, g.Sum, want.Sum)
		}
	}
	// A full-range query must use the window path.
	full, err := s.RangeAgg(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.CachedWindows+full.Stats.BuiltWindows < 3 {
		t.Fatalf("full-range query did not use windows: %+v", full.Stats)
	}
	// Second run hits the memo.
	again, _ := s.RangeAgg(0, math.Inf(-1), math.Inf(1))
	if again.Stats.BuiltWindows != 0 || again.Stats.CachedWindows < 3 {
		t.Fatalf("memo not used: %+v", again.Stats)
	}
	if again.Agg != full.Agg {
		t.Fatalf("memoized answer differs: %+v vs %+v", again.Agg, full.Agg)
	}
}

// TestPushdownIgnoresCacheState proves the central determinism claim:
// answers are identical whether windows come from the memo, from a
// store Summarizer, or are rebuilt — here by comparing a cold series
// against a warmed one, and against a store that serves sidecar-style
// blocks.
func TestPushdownIgnoresCacheState(t *testing.T) {
	build := func() *Series {
		a := New()
		return buildSeries(t, a, "s", 2*sketch.WindowSize+13, 3)
	}
	cold := build()
	warm := build()
	if _, err := warm.RangeAgg(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	_, end, _ := cold.Span()
	for trial := 0; trial < 10; trial++ {
		t0, t1 := float64(trial)*end/10, end
		ga, ea := cold.RangeAgg(0, t0, t1)
		gb, eb := warm.RangeAgg(0, t0, t1)
		if (ea == nil) != (eb == nil) || (ea == nil && ga.Agg != gb.Agg) {
			t.Fatalf("trial %d: cold %+v (%v) vs warm %+v (%v)", trial, ga.Agg, ea, gb.Agg, eb)
		}
		sa, _, ea := cold.RangeSummary(0, t0, t1)
		sb, _, eb := warm.RangeSummary(0, t0, t1)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("trial %d: summary err mismatch %v vs %v", trial, ea, eb)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("trial %d: summaries differ: %+v vs %+v", trial, sa, sb)
		}
	}
}

// summarizedStore wraps MemStore with a Summarizer serving the
// canonical blocks — the mmap sidecar shape, minus the disk.
type summarizedStore struct {
	*MemStore
	dim int
}

func (ss *summarizedStore) SummaryBlocks() []sketch.Block {
	var out []sketch.Block
	for lo := 0; lo+sketch.WindowSize <= ss.Len(); lo += sketch.WindowSize {
		out = append(out, sketch.BuildBlock(lo, ss.dim, ss.Seg))
	}
	return out
}

func TestPushdownUsesStoreSummarizer(t *testing.T) {
	a := NewWithStore(func() SegmentStore { return &summarizedStore{MemStore: &MemStore{}, dim: 1} })
	s := buildSeries(t, a, "s", 2*sketch.WindowSize, 4)
	plain := New()
	ref := buildSeries(t, plain, "s", 2*sketch.WindowSize, 4)
	got, err := s.RangeAgg(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.CachedWindows != 2 || got.Stats.BuiltWindows != 0 {
		t.Fatalf("store blocks not used: %+v", got.Stats)
	}
	want, err := ref.RangeAgg(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg != want.Agg {
		t.Fatalf("summarizer answer differs from rebuilt: %+v vs %+v", got.Agg, want.Agg)
	}
	gs, _, gerr := s.RangeSummary(0, math.Inf(-1), math.Inf(1))
	ws, _, werr := ref.RangeSummary(0, math.Inf(-1), math.Inf(1))
	if gerr != nil || werr != nil || !reflect.DeepEqual(gs, ws) {
		t.Fatalf("summarizer summary differs from rebuilt: %+v (%v) vs %+v (%v)", gs, gerr, ws, werr)
	}
}

func TestPushdownAfterHeadDrop(t *testing.T) {
	a := New()
	s := buildSeries(t, a, "s", 2*sketch.WindowSize, 5)
	if _, err := s.RangeAgg(0, math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatal(err) // warm the memo
	}
	segs := s.Segments()
	cut := segs[100].T1 + 0.01
	if n := s.DropBefore(cut); n == 0 {
		t.Fatal("expected drops")
	}
	got, err := s.RangeAgg(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := foldReference(s, 0, math.Inf(-1), math.Inf(1))
	if got.Agg.Count != want.Count || got.Agg.Min != want.Min || got.Agg.Max != want.Max {
		t.Fatalf("post-drop pushdown %+v vs fold %+v", got.Agg, want)
	}
}

func TestPushdownIncludesProvisionalTail(t *testing.T) {
	a := New()
	s, err := a.Create("s", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(core.Segment{T0: 0, T1: 10, X0: []float64{1}, X1: []float64{2}, Points: 11}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendProvisional(core.Segment{T0: 10.5, T1: 20, X0: []float64{50}, X1: []float64{50}, Points: 10}); err != nil {
		t.Fatal(err)
	}
	got, err := s.RangeAgg(0, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg.Max != 50 || got.Agg.Count != 21 {
		t.Fatalf("provisional tail missing from pushdown: %+v", got.Agg)
	}
}

func TestRangeAggErrors(t *testing.T) {
	a := New()
	s := buildSeries(t, a, "s", 4, 6)
	if _, err := s.RangeAgg(1, 0, 1); !errors.Is(err, ErrDim) {
		t.Fatalf("bad dim: %v", err)
	}
	if _, err := s.RangeAgg(0, 5, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("inverted range: %v", err)
	}
	if _, err := s.RangeAgg(0, 1e9, 2e9); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty coverage: %v", err)
	}
	if _, _, err := s.RangeSummary(0, 1e9, 2e9); !errors.Is(err, ErrNoData) {
		t.Fatalf("summary empty coverage: %v", err)
	}
}

func BenchmarkRangeAggPushdown(b *testing.B) {
	a := New()
	s := mustBuildBench(b, a, 20*sketch.WindowSize)
	_, end, _ := s.Span()
	if _, err := s.RangeAgg(0, 0, end); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RangeAgg(0, 0, end); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeAggFold(b *testing.B) {
	a := New()
	s := mustBuildBench(b, a, 20*sketch.WindowSize)
	_, end, _ := s.Span()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _ := foldReference(s, 0, 0, end)
		if agg.Segments == 0 {
			b.Fatal("no data")
		}
	}
}

func mustBuildBench(b *testing.B, a *Archive, n int) *Series {
	b.Helper()
	s, err := a.Create("bench"+strconv.Itoa(n), []float64{0.5}, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	tcur, v := 0.0, 0.0
	for i := 0; i < n; i++ {
		v2 := v + rng.NormFloat64()
		if err := s.Append(core.Segment{T0: tcur, T1: tcur + 2,
			X0: []float64{v}, X1: []float64{v2}, Points: 30}); err != nil {
			b.Fatal(err)
		}
		tcur += 2
		v = v2
	}
	return s
}

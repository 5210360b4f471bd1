package query

import (
	"math"
	"sort"
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/sketch"
	"github.com/pla-go/pla/internal/tsdb"
)

// tierWalk ingests a random walk at ε=1 through Swing and builds the
// {4,16} rollup ladder over it, returning the archive, the base series
// and the raw signal.
func tierWalk(t *testing.T, n int) (*tsdb.Archive, *tsdb.Series, []core.Point) {
	t.Helper()
	db := tsdb.New()
	db.EnableRollups([]int{4, 16})
	f, err := core.NewSwing([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sig := gen.RandomWalk(gen.WalkConfig{N: n, P: 0.5, MaxDelta: 1.5, Seed: 9})
	sr, err := db.Ingest("w", f, sig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rollup("w"); err != nil {
		t.Fatal(err)
	}
	return db, sr, sig
}

// TestTierForSelection walks the planner through the whole decision
// ladder: bound semantics, coarsest-fitting-tier preference, coverage
// fallback, and the no-tier cases.
func TestTierForSelection(t *testing.T) {
	db, sr, sig := tierWalk(t, 6000)
	e := New(db)
	end := sig[len(sig)-1].T

	mult := func(target *tsdb.Series) int {
		_, m, _ := tsdb.ParseRollupName(target.Name())
		return m
	}

	// bound ≤ 0 means base precision; the base always answers.
	if got, m := e.TierFor(sr, 0, 0, end, 0); got != sr || m != 0 {
		t.Fatalf("bound 0: got %q mult %d, want base", got.Name(), m)
	}
	if got, m := e.TierFor(sr, 0, 0, end, -3); got != sr || m != 0 {
		t.Fatalf("bound <0: got %q mult %d, want base", got.Name(), m)
	}
	// A generous bound takes the coarsest tier.
	got, m := e.TierFor(sr, 0, 0, end, 100)
	if m != 16 || mult(got) != 16 {
		t.Fatalf("bound 100: got %q mult %d, want the 16× tier", got.Name(), m)
	}
	if hits := e.Counters().TierHits; hits != 1 {
		t.Fatalf("TierHits = %d after one tier-served plan", hits)
	}
	// A bound between the tiers' precisions lands on the finer one.
	if got, m := e.TierFor(sr, 0, 0, end, 5); m != 4 || mult(got) != 4 {
		t.Fatalf("bound 5: got %q mult %d, want the 4× tier", got.Name(), m)
	}
	// Tighter than every tier: base.
	if got, m := e.TierFor(sr, 0, 0, end, 2); got != sr || m != 0 {
		t.Fatalf("bound 2: got %q mult %d, want base", got.Name(), m)
	}
	// Negative dim asks for every dimension to fit.
	if _, m := e.TierFor(sr, -1, 0, end, 16); m != 16 {
		t.Fatalf("dim -1 bound 16: mult %d, want 16", m)
	}
	if got, m := e.TierFor(sr, -1, 0, end, 3); got != sr || m != 0 {
		t.Fatalf("dim -1 bound 3: got %q mult %d, want base", got.Name(), m)
	}
	// No overlap with the base span: base answers (and reports no data).
	if got, m := e.TierFor(sr, 0, end+1e6, end+2e6, 100); got != sr || m != 0 {
		t.Fatalf("disjoint range: got %q mult %d, want base", got.Name(), m)
	}
	// A series with no attached tiers answers itself.
	f, err := core.NewSwing([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Ingest("plain", f, sig[:200])
	if err != nil {
		t.Fatal(err)
	}
	if got, m := e.TierFor(plain, 0, 0, end, 100); got != plain || m != 0 {
		t.Fatalf("tier-less series: got %q mult %d, want base", got.Name(), m)
	}

	// Tiers trail the finalized prefix: extend the base past the built
	// tiers and a query touching the fresh tail must fall back.
	f2, err := core.NewSwing([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	var tail []core.Point
	for i := 0; i < 500; i++ {
		tail = append(tail, core.Point{T: end + 1 + float64(i), X: []float64{float64(i % 7)}})
	}
	segs, err := core.Run(f2, tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Append(segs...); err != nil {
		t.Fatal(err)
	}
	if got, m := e.TierFor(sr, 0, 0, end+400, 100); got != sr || m != 0 {
		t.Fatalf("fresh tail: got %q mult %d, want base fallback", got.Name(), m)
	}
	// Clipped to the tier-covered prefix the tier serves again.
	if _, m := e.TierFor(sr, 0, 0, end/2, 100); m != 16 {
		t.Fatalf("covered prefix: mult %d, want 16", m)
	}
}

// TestEpsWithin pins the per-dimension and all-dimension bound checks.
func TestEpsWithin(t *testing.T) {
	eps := []float64{1, 4}
	cases := []struct {
		dim   int
		bound float64
		want  bool
	}{
		{0, 1, true},
		{0, 0.5, false},
		{1, 4, true},
		{1, 3.9, false},
		{2, 100, false},  // dimension out of range never fits
		{-1, 4, true},    // all dims fit
		{-1, 3.9, false}, // the widest dim decides
	}
	for _, c := range cases {
		if got := epsWithin(eps, c.dim, c.bound); got != c.want {
			t.Fatalf("epsWithin(%v, %d, %v) = %v, want %v", eps, c.dim, c.bound, got, c.want)
		}
	}
}

// TestTierSlack checks the edge-uncertainty accounting: zero for a
// range that spans the tier (no partially covered coarse segments),
// positive count and value for a range clipping coarse segments, and
// the all-dimension step maximum.
func TestTierSlack(t *testing.T) {
	db, _, sig := tierWalk(t, 6000)
	tier, ok := db.Tier("w", 16)
	if !ok {
		t.Fatal("16× tier missing")
	}
	if c, v := tierSlack(tier, 0, math.Inf(-1), math.Inf(1)); c != 0 || v != 0 {
		t.Fatalf("full span: slack (%d, %v), want zero", c, v)
	}
	// A range strictly inside the tier clips (at most) two coarse
	// segments; scan a few offsets so at least one genuinely cuts a
	// multi-point segment.
	end := sig[len(sig)-1].T
	var count int
	var value float64
	for off := 0.1; off < 0.9; off += 0.1 {
		c, v := tierSlack(tier, 0, end*off, end*(off+0.05))
		if c > count {
			count, value = c, v
		}
		if cn, vn := tierSlack(tier, -1, end*off, end*(off+0.05)); cn != c || vn < v {
			t.Fatalf("dim -1 slack (%d, %v) vs dim 0 (%d, %v)", cn, vn, c, v)
		}
	}
	if count == 0 || value == 0 {
		t.Fatalf("no interior range clipped a coarse segment: slack (%d, %v)", count, value)
	}
}

// TestAnswerTierQuantiles checks the ledger's bands: zero slack is the
// sketch band ±ε exactly, any slack only ever widens it, and each AGG
// op's band is pinned with and without edge slack (count included).
func TestAnswerTierQuantiles(t *testing.T) {
	_, sr, _ := tierWalk(t, 3000)
	merged, _, err := sr.RangeSummary(0, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	qs := []float64{0, 0.25, 0.5, 0.9, 1}
	same := Bound{Epsilon: 1}.Quantiles(merged, qs)
	for i, q := range qs {
		base := merged.Query(q)
		base.Lo, base.Hi = base.Lo-1, base.Hi+1
		if same[i] != base {
			t.Fatalf("q=%v: zero slack diverged from the base band: %+v vs %+v", q, same[i], base)
		}
	}
	wide := Bound{Epsilon: 1, CountSlack: 50, ValueSlack: 0.75}.Quantiles(merged, qs)
	for i := range qs {
		if wide[i].Lo > same[i].Lo-0.75 || wide[i].Hi < same[i].Hi+0.75 {
			t.Fatalf("q=%v: slack band [%v, %v] does not contain widened base [%v, %v]",
				qs[i], wide[i].Lo, wide[i].Hi, same[i].Lo-0.75, same[i].Hi+0.75)
		}
	}

	a := sketch.Agg{Min: -2, Max: 6, Sum: 20, Count: 10, Segments: 3}
	base, edged := Bound{Epsilon: 0.5}, Bound{Epsilon: 0.5, CountSlack: 5, ValueSlack: 0.25}
	for _, c := range []struct {
		op        string
		b         Bound
		val, band float64
	}{
		{"min", base, -2, 0.5},
		{"max", base, 6, 0.5},
		{"avg", base, 2, 0.5},
		{"sum", base, 20, 5},
		{"count", base, 10, 0},
		{"min", edged, -2, 0.75},
		{"max", edged, 6, 0.75},
		{"avg", edged, 2, 0.75 + 5.0/10*((6+2)/2+0.75)},
		{"sum", edged, 20, 5 + 5*(6+0.75)},
		{"count", edged, 10, 5},
	} {
		if val, band := c.b.Agg(c.op, a); val != c.val || band != c.band {
			t.Errorf("%+v.Agg(%s) = (%v, ±%v), want (%v, ±%v)", c.b, c.op, val, band, c.val, c.band)
		}
	}
}

// TestBoundAwareAnswers drives the tier paths through the engine's
// public bound-aware entry points: a tier-served answer must report the
// tier's precision plus edge slack, and its band must still hold the
// base reconstruction's truth. Then an effective-ε inflation on the
// base (a degraded ingest session) must widen tier-served answers too.
func TestBoundAwareAnswers(t *testing.T) {
	db, sr, sig := tierWalk(t, 6000)
	e := New(db)
	end := sig[len(sig)-1].T
	t0, t1 := end*0.15, end*0.85
	qs := []float64{0, 0.25, 0.5, 0.9, 1}

	ab, err := e.AggregateBound("w", 0, t0, t1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Tier != 16 {
		t.Fatalf("agg Tier = %d, want 16", ab.Tier)
	}
	if ab.Epsilon != 16 {
		t.Fatalf("agg Epsilon = %v, want the 16× tier's contract", ab.Epsilon)
	}
	base, vals := foldOracle(sr, 0, t0, t1)
	band := ab.Epsilon + ab.ValueSlack + 1e-9
	if math.Abs(ab.Agg.Min-base.Min) > band || math.Abs(ab.Agg.Max-base.Max) > band {
		t.Fatalf("tier min/max %v/%v beyond ±%v of base %v/%v",
			ab.Agg.Min, ab.Agg.Max, band, base.Min, base.Max)
	}
	if math.Abs(ab.Agg.Mean()-base.Mean()) > band {
		t.Fatalf("tier mean %v beyond ±%v of base %v", ab.Agg.Mean(), band, base.Mean())
	}

	qb, err := e.QuantilesBound("w", 0, t0, t1, qs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if qb.Tier != 16 || qb.CountSlack == 0 {
		t.Fatalf("quantile Tier = %d, CountSlack = %d; want a tier-served edge-clipped answer",
			qb.Tier, qb.CountSlack)
	}
	sort.Float64s(vals)
	for i, q := range qs {
		truth := exactQuantile(vals, q)
		if truth < qb.Quantiles[i].Lo-1e-9 || truth > qb.Quantiles[i].Hi+1e-9 {
			t.Fatalf("q=%v: base quantile %v outside tier band [%v, %v]",
				q, truth, qb.Quantiles[i].Lo, qb.Quantiles[i].Hi)
		}
	}

	// A degraded session inflated the base bound by 0.5: tier-served
	// answers re-encode that already-coarse data, so their reported
	// precision must absorb the inflation too.
	sr.NoteEffectiveEpsilon([]float64{1.5})
	ab2, err := e.AggregateBound("w", 0, t0, t1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := ab.Epsilon + 0.5; math.Abs(ab2.Epsilon-want) > 1e-12 {
		t.Fatalf("inflated agg Epsilon = %v, want %v", ab2.Epsilon, want)
	}
	qb2, err := e.QuantilesBound("w", 0, t0, t1, qs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := qb.Epsilon + 0.5; math.Abs(qb2.Epsilon-want) > 1e-12 {
		t.Fatalf("inflated quantile Epsilon = %v, want %v", qb2.Epsilon, want)
	}
	for i := range qs {
		if qb2.Quantiles[i].Lo > qb.Quantiles[i].Lo-0.5+1e-12 ||
			qb2.Quantiles[i].Hi < qb.Quantiles[i].Hi+0.5-1e-12 {
			t.Fatalf("q=%v: inflated band [%v, %v] narrower than pre-inflation [%v, %v] + 0.5",
				qs[i], qb2.Quantiles[i].Lo, qb2.Quantiles[i].Hi, qb.Quantiles[i].Lo, qb.Quantiles[i].Hi)
		}
	}

	// A * answer's bound is the Merge of its series' bounds: add a
	// second, uninflated tiered series and fold by hand.
	f, err := core.NewSwing([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("v", f, gen.RandomWalk(gen.WalkConfig{N: 6000, P: 0.5, MaxDelta: 1.5, Seed: 10})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rollup("v"); err != nil {
		t.Fatal(err)
	}
	for _, bound := range []float64{0, 5, 100} {
		var aggFold, qFold Bound
		for _, name := range []string{"v", "w", All} {
			a, aerr := e.AggregateBound(name, 0, t0, t1, bound)
			q, qerr := e.QuantilesBound(name, 0, t0, t1, qs, bound)
			if aerr != nil || qerr != nil {
				t.Fatal(aerr, qerr)
			}
			if name == All && (a.Series != 2 || a.Bound != aggFold || q.Bound != qFold ||
				bound == 100 && (a.Epsilon != 16.5 || a.CountSlack == 0)) {
				t.Fatalf("bound %v: * bounds %+v / %+v over %d series, want the folds %+v / %+v",
					bound, a.Bound, q.Bound, a.Series, aggFold, qFold)
			}
			aggFold, qFold = aggFold.Merge(a.Bound), qFold.Merge(q.Bound)
		}
	}
}

// Bound-aware tier selection: a query that declares an acceptable
// error bound may be answered from a rollup tier — the same stream
// re-encoded at a coarser precision multiple, in far fewer segments —
// instead of the base series. The planner picks the coarsest tier whose
// composed bound still satisfies the request and whose coverage spans
// what the base could answer, falling back tier by tier to the base.
// Every answer carries the bound of the data that actually served it,
// plus an explicit slack for the one place a coarser encoding is not
// exchangeable with the base: the canonical sample grid of a partially
// covered coarse segment.
package query

import (
	"math"

	"github.com/pla-go/pla/internal/tsdb"
)

// TierFor resolves which series should answer a query over [t0, t1] in
// dimension dim (negative = all dimensions, the SCAN case) for base
// series sr, given the caller's acceptable error bound. It returns the
// coarsest attached rollup tier whose precision fits inside bound and
// whose coverage spans the base's answerable range, with its rollup
// multiplier; or sr itself with multiplier 0. bound ≤ 0 means "base
// precision", which the base always satisfies. A tier that serves a
// query counts as a tier hit.
func (e *Engine) TierFor(sr *tsdb.Series, dim int, t0, t1, bound float64) (*tsdb.Series, int) {
	if bound <= 0 {
		return sr, 0
	}
	tiers := e.db.Tiers(sr.Name())
	if len(tiers) == 0 {
		return sr, 0
	}
	// The base's answerable range: its span (provisional coverage
	// included) clipped to the query. A tier is only exchangeable for
	// the base if it covers all of it — tiers trail the finalized
	// prefix, so a query touching the fresh tail falls back.
	b0, b1, ok := sr.Span()
	if !ok {
		return sr, 0
	}
	eff0, eff1 := math.Max(t0, b0), math.Min(t1, b1)
	if eff0 > eff1 {
		return sr, 0 // no overlap; let the base path report no data
	}
	for _, tier := range tiers {
		if !epsWithin(tier.Epsilon(), dim, bound) {
			continue
		}
		s0, s1, ok := tier.Span()
		if !ok || s0 > eff0 || s1 < eff1 {
			continue
		}
		_, mult, _ := tsdb.ParseRollupName(tier.Name())
		e.tierHits.Add(1)
		return tier, mult
	}
	return sr, 0
}

// epsWithin reports whether a precision vector satisfies bound in the
// queried dimension — in every dimension when dim is negative.
func epsWithin(eps []float64, dim int, bound float64) bool {
	if dim >= 0 {
		return dim < len(eps) && eps[dim] <= bound
	}
	for _, e := range eps {
		if e > bound {
			return false
		}
	}
	return true
}

// planBound is the bound of one series' answer: eps is the precision
// of the data that answered, read after that data. A tier re-encodes
// data that may already have been degraded past the base contract, so
// a tier-served bound carries the base's effective-ε inflation too,
// plus the tier's edge slack.
func planBound(sr, target *tsdb.Series, mult, dim int, t0, t1, eps float64) Bound {
	b := Bound{Epsilon: eps, Tier: mult}
	if mult > 0 {
		b.CountSlack, b.ValueSlack = tierSlack(target, dim, t0, t1)
		b.Epsilon += sr.EffExtra(dim)
	}
	return b
}

// tierSlack measures the honest extra uncertainty of answering [t0, t1]
// from a tier: the at-most-two coarse segments only partially inside
// the range. A coarse segment's canonical sample grid redistributes its
// base segments' samples across its whole span, so clipping it can move
// up to its full Points count across the range boundary (count), and
// the clipped chord endpoints can sit up to two per-sample value steps
// away from the base grid's (value). Fully covered segments contribute
// exactly (the rollup conserves their Points), so base answers — and
// tier answers to exactly-aligned ranges — get zero slack.
func tierSlack(tier *tsdb.Series, dim int, t0, t1 float64) (count int, value float64) {
	for _, seg := range tier.RangeEdges(t0, t1) {
		count += seg.Points
		if seg.Points > 1 {
			step := 0.0
			if dim >= 0 {
				step = math.Abs(seg.X1[dim]-seg.X0[dim]) / float64(seg.Points-1)
			} else {
				for d := range seg.X0 {
					step = math.Max(step, math.Abs(seg.X1[d]-seg.X0[d])/float64(seg.Points-1))
				}
			}
			value = math.Max(value, 2*step)
		}
	}
	return count, value
}

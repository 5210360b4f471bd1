package query

import (
	"math"

	"github.com/pla-go/pla/internal/sketch"
)

// Bound is the precision ledger of one AGG or QUANTILE answer: every
// term the reply's bound field or [lo, hi] band must absorb, composed
// here and nowhere else.
//
//   - Epsilon is the per-sample precision of the data that answered:
//     the series' effective ε (the contract, inflated by any degraded
//     or shed ingest session), times the tier multiple when a rollup
//     tier served. Every original sample lies within ±Epsilon of the
//     reconstruction.
//   - CountSlack and ValueSlack are a tier's edge uncertainty (see
//     tierSlack): partially covered coarse segments can move up to
//     CountSlack canonical samples across the range boundary and drift
//     clipped chord endpoints by up to ValueSlack. Both are zero for a
//     base-served answer and for a tier range that cuts no segment.
//
// So min/max answer within ±(Epsilon+ValueSlack), avg adds the mean
// shift CountSlack samples can cause, sum is ±Epsilon per sample plus
// CountSlack samples' worth, and count is exact only when CountSlack
// is zero. A * answer's bound is the Merge of its series' bounds.
type Bound struct {
	Epsilon float64
	// Tier is the rollup multiplier of the coarsest tier that served a
	// contributing series (0 = base data only).
	Tier       int
	CountSlack int
	ValueSlack float64
}

// Merge folds another series' bound into a fan-out answer's: the worst
// ε and value slack, the summed count slack (each series' edges shift
// samples independently) and the coarsest tier.
func (b Bound) Merge(o Bound) Bound {
	b.Epsilon = math.Max(b.Epsilon, o.Epsilon)
	b.Tier = max(b.Tier, o.Tier)
	b.CountSlack += o.CountSlack
	b.ValueSlack = math.Max(b.ValueSlack, o.ValueSlack)
	return b
}

// Agg extracts the statistic op (min, max, avg, sum or count) from an
// aggregate along with its composed bound: ±band around val contains
// the statistic of the original samples. Each of the CountSlack
// samples a tier edge can shift is worth at most the observed value
// range plus the precision width.
func (b Bound) Agg(op string, a sketch.Agg) (val, band float64) {
	cs, vs := float64(b.CountSlack), b.ValueSlack
	switch op {
	case "min":
		return a.Min, b.Epsilon + vs
	case "max":
		return a.Max, b.Epsilon + vs
	case "avg":
		band = b.Epsilon + vs
		if cs > 0 && a.Count > 0 {
			band += cs / a.Count * ((a.Max-a.Min)/2 + b.Epsilon + vs)
		}
		return a.Mean(), band
	case "sum":
		band = b.Epsilon * a.Count
		if cs > 0 {
			band += cs * (math.Max(math.Abs(a.Min), math.Abs(a.Max)) + b.Epsilon + vs)
		}
		return a.Sum, band
	default: // count
		return a.Count, cs
	}
}

// Quantiles evaluates qs against a merged range summary. Each band
// composes the sketch's rank error, the ±Epsilon every sample may sit
// from the reconstruction, and the tier edges: the rank can shift by
// CountSlack (the summary's N counts partially covered coarse segments
// in full), so the band is the union of the bands at q ∓ CountSlack/N,
// further widened by ValueSlack.
func (b Bound) Quantiles(merged *sketch.Summary, qs []float64) []sketch.Quantile {
	shift := float64(b.CountSlack) / float64(merged.N())
	out := make([]sketch.Quantile, len(qs))
	for i, q := range qs {
		ans := merged.Query(q)
		if b.CountSlack > 0 {
			ans.Lo = math.Min(ans.Lo, merged.Query(math.Max(q-shift, 0)).Lo)
			ans.Hi = math.Max(ans.Hi, merged.Query(math.Min(q+shift, 1)).Hi)
		}
		// ε first, then the slack: the association is part of the
		// reply bytes.
		ans.Lo = ans.Lo - b.Epsilon - b.ValueSlack
		ans.Hi = ans.Hi + b.Epsilon + b.ValueSlack
		out[i] = ans
	}
	return out
}

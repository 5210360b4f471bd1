// Package sketch provides the segment-native query primitives: an
// ε-approximate mergeable quantile summary in the Greenwald–Khanna
// family, and exact closed-form aggregates over the uniform sample
// reconstruction of a piece-wise linear segment.
//
// The summary follows the MERGE/COMPRESS design popularised by the
// mergeable-summaries line of work (Greenwald–Khanna 2001; Agarwal et
// al. 2012) and the weighted adaptation used by gradient-boosting
// quantile streams: entries carry explicit rank bounds, MERGE combines
// two summaries with epsNew = max(eps1, eps2), and COMPRESS reduces a
// summary to b+1 entries at the cost of epsNew = epsOld + 1/b. Error is
// measured in rank space as a fraction of the total weight.
//
// Quantiles of a PLA archive are quantiles of values, and a segment's
// chord quantizes values when a long segment is folded into a bounded
// number of sketch entries. That residual is tracked separately, in
// value space, as the summary's Slack: any reported quantile band is
// already widened by it. The caller composes the final answer band by
// adding the series' filter ε on top.
//
// A window summary is built without a general sort. The samples a
// segment contributes lie on its chord, so they arrive in value order;
// Builder merges those runs, in pooled buffers, and coalesces equal
// values after ordering (a −0/+0 tie becomes +0). Merge walks both
// summaries with forward cursors. The summaries are the ones a full
// sort and a binary search per entry give, to the byte; the tests keep
// those as references.
package sketch

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Eps is the rank-error budget a freshly built window summary is
// compressed to: COMPRESS to CompressEntries+1 entries of an exact
// summary yields eps = 1/CompressEntries.
const (
	// CompressEntries is the b in "compress to b+1 entries".
	CompressEntries = 128
	// Eps is the rank-error fraction of a compressed window summary.
	Eps = 1.0 / CompressEntries
	// maxSegEntries bounds how many entries one segment contributes
	// when its samples are folded into a builder; beyond it the chord
	// is chunked and the quantization becomes value-space Slack.
	maxSegEntries = 64
)

// Entry is one retained value with its exact rank bounds: the
// cumulative weight of all items ≤ V lies in [Rmin, Rmax], and W of
// that weight sits exactly at V.
type Entry struct {
	V, W, Rmin, Rmax float64
}

// Summary is an ε-approximate quantile summary over weighted values.
// The zero value is an empty summary. Summaries are immutable once
// built except through Compress; Merge returns a new Summary.
type Summary struct {
	eps     float64 // rank-error fraction of total weight
	slack   float64 // value-space quantization residual
	n       float64 // total inserted weight
	entries []Entry // sorted by V; Rmin, Rmax nondecreasing
}

// Eps returns the summary's rank-error fraction.
func (s *Summary) Eps() float64 { return s.eps }

// Slack returns the value-space quantization residual.
func (s *Summary) Slack() float64 { return s.slack }

// N returns the total inserted weight.
func (s *Summary) N() float64 { return s.n }

// Len returns the number of retained entries.
func (s *Summary) Len() int { return len(s.entries) }

// Builder accumulates weighted values and bakes them into a Summary.
// It is the write side of the sketch: cheap appends, and at Build a
// merge of the sorted runs the appends already hold. AddSeg samples a
// chord, so each segment contributes a monotone run; Build finds the
// maximal monotone runs in append order, reverses the descending ones
// and merges the runs bottom-up in pairs, alternating between the
// builder's buffer and one scratch buffer. Any input order is sorted
// correctly; long runs only make it fast. Both buffers come from a
// pool and go back once the summary holds its own copy.
//
// After ordering, equal values coalesce into one entry whose weight is
// the sum of theirs. With integer weights (all AddSeg adds) the sums,
// and so the summary, do not depend on the order of ties. A tie of −0
// and +0 coalesces to +0.
type Builder struct {
	vals  []Entry // V, W used; ranks assigned at Build
	slack float64
	pool  *buffers // where vals came from; nil once built
}

// buffers is the pooled storage of one build: the appended values, the
// merge scratch and the run boundaries.
type buffers struct {
	vals, tmp []Entry
	runs      []int
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	p := bufPool.Get().(*buffers)
	return &Builder{vals: p.vals[:0], pool: p}
}

// Add records one value with the given weight (w > 0).
func (b *Builder) Add(v, w float64) {
	if w <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	b.vals = append(b.vals, Entry{V: v, W: w})
}

// widenSlack raises the builder's value-space residual.
func (b *Builder) widenSlack(s float64) {
	if s > b.slack {
		b.slack = s
	}
}

// Empty reports whether nothing has been added.
func (b *Builder) Empty() bool { return len(b.vals) == 0 }

// Build orders the accumulated values into an exact summary (eps 0)
// and, when it holds more than CompressEntries+1 entries, compresses it
// to CompressEntries+1 for eps = Eps. The builder is reset.
func (b *Builder) Build() *Summary { return b.build(CompressEntries) }

// BuildExact bakes the accumulated values without compressing — the
// shape used for query-edge segments, whose handful of samples are kept
// rank-exact. The builder is reset.
func (b *Builder) BuildExact() *Summary { return b.build(0) }

// build bakes the values into an exact summary in pooled storage, then
// compresses it to compress+1 entries (none when compress is 0) or
// copies it out, and returns the storage to the pool.
func (b *Builder) build(compress int) *Summary {
	vals, p := b.vals, b.pool
	s := &Summary{slack: b.slack}
	*b = Builder{}
	if len(vals) > 0 {
		if p == nil {
			p = bufPool.Get().(*buffers)
		}
		exact := p.order(vals)
		// Coalesce equal values, then assign exact cumulative ranks.
		out := exact[:1]
		for _, e := range exact[1:] {
			if last := &out[len(out)-1]; e.V == last.V {
				last.W += e.W
				if !math.Signbit(e.V) {
					last.V = e.V // only changes a −0 to +0
				}
				continue
			}
			out = append(out, e)
		}
		cum := 0.0
		for i := range out {
			cum += out[i].W
			out[i].Rmin = cum
			out[i].Rmax = cum
		}
		s.n, s.entries = cum, out
		if compress > 0 && len(out) > compress+1 {
			s.Compress(compress)
		} else {
			s.entries = append(make([]Entry, 0, len(out)), out...)
		}
	}
	if p != nil {
		bufPool.Put(p)
	}
	return s
}

// order sorts vals by V, stably, and returns the sorted slice, which is
// vals or p.tmp. It reverses each maximal strictly descending run in
// place, then merges adjacent runs pairwise, each pass writing the
// other buffer, until one run is left. The two buffers are kept in p
// for the next build.
func (p *buffers) order(vals []Entry) []Entry {
	runs := append(p.runs[:0], 0)
	for i := 0; i < len(vals); {
		j := i + 1
		if j < len(vals) && vals[j].V < vals[i].V {
			for j < len(vals) && vals[j].V < vals[j-1].V {
				j++
			}
			slices.Reverse(vals[i:j])
		} else {
			for j < len(vals) && vals[j].V >= vals[j-1].V {
				j++
			}
		}
		runs = append(runs, j)
		i = j
	}
	src, dst := vals, slices.Grow(p.tmp[:0], len(vals))[:len(vals)]
	for len(runs) > 2 {
		// runs[k] is the start of run k; pair run k with run k+1 (or
		// copy it alone when it is the last), compacting runs in place:
		// entry k/2+1 is written only after runs[k+2] was read.
		next := runs[:1]
		for k := 0; k+1 < len(runs); k += 2 {
			lo, mid, hi := runs[k], runs[k+1], runs[k+1]
			if k+2 < len(runs) {
				hi = runs[k+2]
			}
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		runs = next
		src, dst = dst, src
	}
	p.vals, p.tmp, p.runs = src[:0], dst[:0], runs[:0]
	return src
}

// mergeRuns merges the sorted runs a and b into dst (len(a)+len(b)
// long), taking from a on ties so the merge is stable.
func mergeRuns(dst, a, b []Entry) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].V < a[i].V {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Compress reduces the summary to at most b+1 entries, adding 1/b to
// its rank-error fraction. The first and last entries (the data min and
// max) are always retained, so extremes survive any compression chain.
// A summary already within b+1 entries is left untouched.
func (s *Summary) Compress(b int) {
	if b <= 0 || len(s.entries) <= b+1 {
		return
	}
	kept := make([]Entry, 1, b+1)
	kept[0] = s.entries[0]
	for j := 1; j < b; j++ {
		target := float64(j) / float64(b) * s.n
		i := sort.Search(len(s.entries), func(i int) bool {
			return mid(s.entries[i]) >= target
		})
		if i == len(s.entries) {
			i--
		}
		if i > 0 && target-mid(s.entries[i-1]) < mid(s.entries[i])-target {
			i--
		}
		if e := s.entries[i]; e.V > kept[len(kept)-1].V {
			kept = append(kept, e)
		}
	}
	if last := s.entries[len(s.entries)-1]; last.V > kept[len(kept)-1].V {
		kept = append(kept, last)
	}
	s.entries = kept
	s.eps += 1.0 / float64(b)
}

func mid(e Entry) float64 { return (e.Rmin + e.Rmax) / 2 }

// Merge combines two summaries into a new one covering both inputs'
// data with epsNew = max(eps1, eps2): every merged entry's rank bounds
// are recomputed exactly from the other summary's bounds, so no rank
// information is lost beyond what the inputs had already given up.
// Slack, like eps, is a max. Either input may be nil or empty.
//
// Both inputs' entries must be strictly increasing in V, as every
// Builder, Compress, Merge and ParseSummary output is: the merge walks
// the two with forward cursors instead of searching the other summary
// for each entry.
func Merge(a, b *Summary) *Summary {
	if a == nil || len(a.entries) == 0 {
		if b == nil {
			return &Summary{}
		}
		out := *b
		if a != nil {
			out.eps = math.Max(out.eps, a.eps)
			out.slack = math.Max(out.slack, a.slack)
		}
		out.entries = append([]Entry(nil), b.entries...)
		return &out
	}
	if len(b.entries) == 0 {
		out := *a
		out.eps = math.Max(out.eps, b.eps)
		out.slack = math.Max(out.slack, b.slack)
		out.entries = append([]Entry(nil), a.entries...)
		return &out
	}
	out := &Summary{
		eps:     math.Max(a.eps, b.eps),
		slack:   math.Max(a.slack, b.slack),
		n:       a.n + b.n,
		entries: make([]Entry, 0, len(a.entries)+len(b.entries)),
	}
	i, j := 0, 0
	for i < len(a.entries) || j < len(b.entries) {
		var e Entry
		var other *Summary
		var k int // the other summary's cursor
		if j == len(b.entries) || (i < len(a.entries) && a.entries[i].V <= b.entries[j].V) {
			e, other, k = a.entries[i], b, j
			i++
		} else {
			e, other, k = b.entries[j], a, i
			j++
		}
		// Weight of the other summary's items ≤ e.V: at least the Rmin of
		// its last entry with value ≤ e.V; at most the weight strictly
		// below its first entry with value > e.V. Everything before the
		// other's cursor is already merged, so ≤ e.V; step past an entry
		// equal to e.V to reach the first one above it.
		oe := other.entries
		for k < len(oe) && oe[k].V <= e.V {
			k++
		}
		if k > 0 {
			e.Rmin += oe[k-1].Rmin
		}
		if k < len(oe) {
			e.Rmax += oe[k].Rmax - oe[k].W
		} else {
			e.Rmax += other.n
		}
		if m := len(out.entries); m > 0 && out.entries[m-1].V == e.V {
			// Both inputs retained this value: coalesce, intersecting the
			// two rank intervals (each contains the true cumulative
			// weight at V, so the intersection is non-empty and tighter).
			prev := &out.entries[m-1]
			prev.W += e.W
			prev.Rmin = math.Max(prev.Rmin, e.Rmin)
			prev.Rmax = math.Min(prev.Rmax, e.Rmax)
			continue
		}
		out.entries = append(out.entries, e)
	}
	// Repair pass: for summaries describing real data every invariant
	// below already holds and this is a no-op, but inputs that merely
	// parse (a fuzzer's crafted blob) can carry mutually inconsistent
	// bounds; widen them so the merged summary keeps the encoding's
	// invariants instead of poisoning downstream consumers.
	loMin, loMax := 0.0, 0.0
	for i := range out.entries {
		e := &out.entries[i]
		e.Rmin = math.Max(e.Rmin, loMin)
		e.Rmax = math.Max(math.Max(e.Rmax, loMax), e.Rmin)
		loMin, loMax = e.Rmin, e.Rmax
	}
	return out
}

// Quantile is one answered quantile: the sketch's estimate plus the
// band [Lo, Hi] the true q-quantile of the inserted data is guaranteed
// to lie in (rank uncertainty translated to values, widened by Slack).
type Quantile struct {
	Q, Value, Lo, Hi float64
}

// Query answers the q-quantile (0 ≤ q ≤ 1) with its guaranteed band.
// An empty summary answers all-NaN.
func (s *Summary) Query(q float64) Quantile {
	if len(s.entries) == 0 || s.n <= 0 {
		nan := math.NaN()
		return Quantile{Q: q, Value: nan, Lo: nan, Hi: nan}
	}
	q = math.Min(math.Max(q, 0), 1)
	r := q * s.n
	band := s.eps * s.n
	es := s.entries
	// Estimate: the entry whose mid-rank is nearest the target.
	i := sort.Search(len(es), func(i int) bool { return mid(es[i]) >= r })
	if i == len(es) {
		i--
	}
	if i > 0 && r-mid(es[i-1]) < mid(es[i])-r {
		i--
	}
	ans := Quantile{Q: q, Value: es[i].V, Lo: es[0].V, Hi: es[len(es)-1].V}
	// Lower bound: the last entry that provably sits below every
	// admissible rank; upper bound symmetric. The data min and max are
	// always entries, so the fallbacks above are sound.
	if j := sort.Search(len(es), func(j int) bool { return es[j].Rmax >= r-band }); j > 0 {
		ans.Lo = es[j-1].V
	}
	if j := sort.Search(len(es), func(j int) bool { return es[j].Rmin > r+band }); j < len(es) {
		ans.Hi = es[j].V
	}
	ans.Lo -= s.slack
	ans.Hi += s.slack
	return ans
}

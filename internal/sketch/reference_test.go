package sketch

import (
	"math"
	"sort"
)

// The sort-based window build and the binary-search Merge, kept
// verbatim from before Build merged runs and Merge walked cursors: the
// equivalence tests and fuzz targets diff the live code against them.

// refBuild is the reference Build: refBuildExact, then Compress.
func refBuild(b *Builder) *Summary {
	s := refBuildExact(b)
	s.Compress(CompressEntries)
	return s
}

// refBuildExact is the reference BuildExact: one sort.Slice of every
// appended value.
func refBuildExact(b *Builder) *Summary {
	vals := b.vals
	b.vals = nil
	slack := b.slack
	b.slack = 0
	if len(vals) == 0 {
		return &Summary{slack: slack}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].V < vals[j].V })
	// Coalesce equal values, then assign exact cumulative ranks.
	out := vals[:1]
	for _, e := range vals[1:] {
		if e.V == out[len(out)-1].V {
			out[len(out)-1].W += e.W
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
	return &Summary{n: cum, slack: slack, entries: out}
}

// refMerge is the reference Merge: a sort.Search into the other summary
// per merged entry.
func refMerge(a, b *Summary) *Summary {
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
		if j == len(b.entries) || (i < len(a.entries) && a.entries[i].V <= b.entries[j].V) {
			e, other = a.entries[i], b
			i++
		} else {
			e, other = b.entries[j], a
			j++
		}
		// Weight of the other summary's items ≤ e.V: at least the Rmin of
		// its last entry with value ≤ e.V; at most the weight strictly
		// below its first entry with value > e.V.
		oe := other.entries
		k := sort.Search(len(oe), func(k int) bool { return oe[k].V > e.V })
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

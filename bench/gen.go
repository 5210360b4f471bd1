package main

import (
	"math"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
)

// walks is a workload's raw input: a few pre-generated random-walk
// blocks of chunk points each (the paper's §5.3 model, p = 0.5, steps
// uniform in [0, 0.4)). Series s sends block index(s, r) as
// its r-th chunk, shifted to start at time r·chunk, so every series is
// an endless strictly-increasing stream built from a bounded amount of
// generated data, and any raw sample can be recomputed for checking.
type walks struct {
	blocks [][]core.Point
	chunk  int
}

// mix derives an independent generator seed from the run seed, a
// per-purpose salt and an index.
func mix(seed, salt, i uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9 + i + 1
	x ^= x >> 31
	return x*0x94D049BB133111EB | 1
}

// walkBlocks is how many blocks the bulk workloads generate: enough
// that the walk's compressibility (points per segment, and with it
// every bytes-per-point metric) varies by well under 1% from seed to
// seed.
const walkBlocks = 64

func newWalks(seed, salt uint64, blocks, chunk int) walks {
	g := walks{blocks: make([][]core.Point, blocks), chunk: chunk}
	for i := range g.blocks {
		g.blocks[i] = gen.RandomWalk(gen.WalkConfig{N: chunk, P: 0.5, MaxDelta: 0.4, Seed: mix(seed, salt, uint64(i))})
	}
	return g
}

// index says which block series sends as its round-th chunk. The odd
// multiplier spreads the (series, round) pairs of a workload with many
// more blocks than rounds (uplink-durable) over all of them.
func (g walks) index(series, round int) int {
	return (series*31 + round) % len(g.blocks)
}

func (g walks) block(series, round int) []core.Point {
	return g.blocks[g.index(series, round)]
}

// fill writes series' round-th chunk into dst (len ≥ chunk) and returns
// it. The value slices are shared with the block — filters clone what
// they keep — so a chunk costs one pass over 32 bytes per point.
func (g walks) fill(dst []core.Point, series, round int) []core.Point {
	blk, off := g.block(series, round), float64(round*g.chunk)
	dst = dst[:g.chunk]
	for i := range blk {
		dst[i] = core.Point{T: blk[i].T + off, X: blk[i].X}
	}
	return dst
}

// at returns the raw sample series sent at integer time t.
func (g walks) at(series int, t int) float64 {
	return g.block(series, t/g.chunk)[t%g.chunk].X[0]
}

// qclass is one query kind of the read mix.
type qclass int

const (
	qAT qclass = iota
	qSCAN
	qAGG
	qAGGBOUND
	qQUANTILE
	nClasses
)

var classNames = [nClasses]string{"at", "scan", "agg", "aggbound", "quantile"}

// batchShape is the read mix's proportions, 2000 AT : 1500 SCAN :
// 1000 AGG avg : 500 AGG max BOUND : 500 QUANTILE, in lowest terms: one
// batch of eleven queries, issued in a seeded-random order.
var batchShape = [nClasses]int{4, 3, 2, 1, 1}

const (
	scanSpan   = 200  // time units a SCAN covers (≈60 segments at ε=0.2)
	recentSpan = 2000 // "newest" window the under-ingest mix aims half its ranges at
)

// querySpec is one query with its range left relative: u places it
// inside the series' span as of the moment it is issued, which is what
// lets the same generated mix run against a growing archive.
type querySpec struct {
	class  qclass
	series int
	u      float64
	recent bool // aim at the newest recentSpan time units
}

// genMix draws batches batches over nSeries series. With recentHalf,
// every other AT/SCAN/AGG is aimed at the newest recentSpan units.
func genMix(seed uint64, batches, nSeries int, recentHalf bool) []querySpec {
	rng := gen.NewRNG(seed)
	var shape []qclass
	for c, n := range batchShape {
		for ; n > 0; n-- {
			shape = append(shape, qclass(c))
		}
	}
	out := make([]querySpec, 0, batches*len(shape))
	for b := 0; b < batches; b++ {
		for i := len(shape) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shape[i], shape[j] = shape[j], shape[i]
		}
		for _, c := range shape {
			q := querySpec{class: c, series: rng.Intn(nSeries), u: rng.Float64()}
			if recentHalf && c <= qAGG {
				q.recent = rng.Intn(2) == 0
			}
			out = append(out, q)
		}
	}
	return out
}

// resolve turns a spec into a concrete [t0, t1] given that the series
// holds samples at integer times 0 … n−1. AT returns t0 == t1, an
// integer sample time, so the answer can be checked against the raw
// sample.
func (q querySpec) resolve(n int) (t0, t1 float64) {
	end := float64(n - 1)
	switch q.class {
	case qAT:
		if q.recent {
			t0 = end - math.Floor(q.u*math.Min(recentSpan, end))
		} else {
			t0 = math.Floor(q.u * float64(n))
		}
		return t0, t0
	case qSCAN:
		if q.recent {
			t0 = math.Max(0, end-recentSpan) + q.u*(math.Min(recentSpan, end)-scanSpan)
		} else {
			t0 = q.u * (end - scanSpan)
		}
		return t0, t0 + scanSpan
	case qQUANTILE:
		t0 = q.u * end * 7 / 8
		return t0, t0 + end/8
	default: // qAGG, qAGGBOUND
		if q.recent {
			return math.Max(0, end-recentSpan), end
		}
		return 0, end
	}
}

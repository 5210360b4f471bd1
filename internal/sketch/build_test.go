package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/pla-go/pla/internal/core"
)

// windowShapes generate one window of segments each. Together they
// cover the orders a build sees: short and long ascending and
// descending chords, chunked segments (weights above 1), one value
// throughout, and coarse values whose samples tie across segments.
var windowShapes = []struct {
	name string
	seg  func(rng *rand.Rand, x float64) (x1 float64, points int)
}{
	{"rough", func(rng *rand.Rand, x float64) (float64, int) {
		return x + rng.NormFloat64(), 1 + rng.Intn(3)
	}},
	{"smooth", func(rng *rand.Rand, x float64) (float64, int) {
		return x + 4*rng.NormFloat64(), 55
	}},
	{"chunked", func(rng *rand.Rand, x float64) (float64, int) {
		return x + 20*rng.NormFloat64(), 65 + rng.Intn(400)
	}},
	{"flat", func(rng *rand.Rand, x float64) (float64, int) {
		return x, 1 + rng.Intn(60)
	}},
	{"descending", func(rng *rand.Rand, x float64) (float64, int) {
		return x - 0.1 - 3*rng.Float64(), 2 + rng.Intn(60)
	}},
	{"rounded", func(rng *rand.Rand, x float64) (float64, int) {
		// +0 turns a rounded −0 into +0: a −0/+0 tie is the one input
		// whose output may differ, and TestBuildSignedZeroTie covers it.
		return math.Round(x+2*rng.NormFloat64()) + 0, 1 + rng.Intn(5)
	}},
}

// shapeWindow returns WindowSize consecutive segments of the shape.
// Each chord starts where the last one ended (rounded, for the rounded
// shape, so its samples fall on a coarse grid), descending chords
// restart above zero so the window crosses it.
func shapeWindow(shape int, seed int64) []core.Segment {
	rng := rand.New(rand.NewSource(seed))
	gen := windowShapes[shape]
	segs := make([]core.Segment, WindowSize)
	t, x := 0.0, math.Round(10*rng.NormFloat64())+0
	for i := range segs {
		x1, p := gen.seg(rng, x)
		dt := float64(p)
		segs[i] = seg(t, t+dt, x, x1, p)
		t += dt + 1
		x = x1
		if gen.name == "descending" && i%16 == 15 {
			x = 20 * rng.Float64()
		}
	}
	return segs
}

// sameSummary fails unless got and want are equal field for field and
// encode to the same bytes.
func sameSummary(t *testing.T, label string, got, want *Summary) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: summary differs from the reference\n got %+v\nwant %+v", label, got, want)
	}
	if g, w := got.AppendBinary(nil), want.AppendBinary(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: encoding differs from the reference", label)
	}
}

// TestBuildMatchesSortReference checks that merging runs reproduces
// the sort-based build exactly: window blocks, query-edge exact builds
// and a Merge fold of the blocks, on every shape and 20 seeds.
func TestBuildMatchesSortReference(t *testing.T) {
	for si, shape := range windowShapes {
		var blocks, refBlocks []*Summary
		for seed := int64(1); seed <= 20; seed++ {
			segs := shapeWindow(si, seed)
			label := fmt.Sprintf("%s/seed %d", shape.name, seed)

			all := math.Inf(1)
			adds := len(fill(segs, -all, all).vals)
			want := refBuild(fill(segs, -all, all))
			got := BuildBlock(0, 1, func(i int) core.Segment { return segs[i] }).Sketches[0]
			sameSummary(t, label+" block", got, want)
			if shape.name == "rounded" || shape.name == "flat" {
				if exact := refBuildExact(fill(segs, -all, all)); exact.Len() >= adds {
					t.Fatalf("%s: no ties among %d samples", label, adds)
				}
			}
			blocks, refBlocks = append(blocks, got), append(refBlocks, want)

			// A query edge: an uncompressed build over a clipped range.
			t0, t1 := segs[40].T0+0.5, segs[200].T1-0.5
			b := NewBuilder()
			for _, s := range segs {
				AddSeg(b, s, 0, t0, t1)
			}
			sameSummary(t, label+" exact", b.BuildExact(), refBuildExact(fill(segs, t0, t1)))
		}
		got, want := &Summary{}, &Summary{}
		for i := range blocks {
			got, want = Merge(got, blocks[i]), refMerge(want, refBlocks[i])
			sameSummary(t, shape.name+" merge fold", got, want)
		}
	}
}

// fill returns a reference builder holding segs' samples in [t0, t1].
func fill(segs []core.Segment, t0, t1 float64) *Builder {
	b := &Builder{}
	for _, s := range segs {
		AddSeg(b, s, 0, t0, t1)
	}
	return b
}

// TestBuildSignedZeroTie pins the one tie whose representative an
// unstable sort left to chance: −0 and +0 coalesce to +0, whatever
// order they arrive in; zeros of one sign keep it.
func TestBuildSignedZeroTie(t *testing.T) {
	neg := math.Copysign(0, -1)
	for _, tc := range []struct {
		vals []float64
		sign bool // want −0
	}{
		{[]float64{neg, 0}, false},
		{[]float64{0, neg}, false},
		{[]float64{1, neg, -1, neg, 0, neg, 2}, false},
		{[]float64{neg, neg, -3, 5}, true},
		{[]float64{0, 0, 3}, false},
	} {
		for _, build := range []func(*Builder) *Summary{(*Builder).Build, (*Builder).BuildExact} {
			b := NewBuilder()
			zeros := 0
			for _, v := range tc.vals {
				b.Add(v, 1)
				if v == 0 {
					zeros++
				}
			}
			s := build(b)
			var z *Entry
			for i := range s.entries {
				if s.entries[i].V == 0 {
					z = &s.entries[i]
				}
			}
			if z == nil || z.W != float64(zeros) || math.Signbit(z.V) != tc.sign {
				t.Fatalf("%v: zero entry %+v, want weight %d and signbit %v", tc.vals, z, zeros, tc.sign)
			}
		}
	}
}

// TestBuildBlockConcurrent builds blocks from several goroutines at
// once, so they share the buffer pool, and checks each against a build
// made alone. Run it under -race.
func TestBuildBlockConcurrent(t *testing.T) {
	want := make([][]byte, len(windowShapes))
	for si := range windowShapes {
		segs := shapeWindow(si, 7)
		want[si] = BuildBlock(0, 1, func(i int) core.Segment { return segs[i] }).Sketches[0].AppendBinary(nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*len(windowShapes); k++ {
				si := (g + k) % len(windowShapes)
				segs := shapeWindow(si, 7)
				got := BuildBlock(0, 1, func(i int) core.Segment { return segs[i] }).Sketches[0].AppendBinary(nil)
				if !bytes.Equal(got, want[si]) {
					t.Errorf("goroutine %d: %s block differs from the one built alone", g, windowShapes[si].name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkBuildBlock(b *testing.B) {
	for _, shape := range []int{0, 1} { // rough, smooth
		segs := shapeWindow(shape, 1)
		at := func(i int) core.Segment { return segs[i] }
		b.Run(windowShapes[shape].name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildBlock(0, 1, at)
			}
		})
	}
}

// BenchmarkMergeFold folds 15 compressed window summaries left to
// right, as a QUANTILE over 15 cached windows does.
func BenchmarkMergeFold(b *testing.B) {
	var sums []*Summary
	for seed := int64(1); seed <= 15; seed++ {
		segs := shapeWindow(1, seed)
		sums = append(sums, BuildBlock(0, 1, func(i int) core.Segment { return segs[i] }).Sketches[0])
	}
	b.ReportAllocs()
	for b.Loop() {
		m := &Summary{}
		for _, s := range sums {
			m = Merge(m, s)
		}
	}
}

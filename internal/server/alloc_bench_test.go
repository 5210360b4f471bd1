package server

import (
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/tsdb"
)

// BenchmarkShardApplyZeroAlloc pins the worker's steady-state apply path
// (no WAL: the in-memory backend) at 0 allocs/op — the `make alloc-check`
// gate for the shard job path. The series is recreated every resetEvery
// appends so the benchmark's memory stays bounded; the recreate cost is
// amortized to nothing per op, exactly like the archive's own slice
// growth.
func BenchmarkShardApplyZeroAlloc(b *testing.B) {
	const resetEvery = 1 << 17
	sh := newShard(0, 16, nil, nil)
	db := tsdb.New()
	s, err := db.Create("bench", []float64{0.5}, false)
	if err != nil {
		b.Fatal(err)
	}
	x0, x1 := []float64{1.5}, []float64{2.5}
	var pending []chan error
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == resetEvery-1 {
			if err := db.Drop("bench"); err != nil {
				b.Fatal(err)
			}
			if s, err = db.Create("bench", []float64{0.5}, false); err != nil {
				b.Fatal(err)
			}
			t = 0
		}
		j := job{series: s, seg: core.Segment{T0: t, T1: t + 1, X0: x0, X1: x1, Points: 2}}
		pending = sh.apply(j, pending)
		t += 2
	}
	b.StopTimer()
	if got := sh.rejected.Load(); got != 0 {
		b.Fatalf("%d segments rejected during benchmark", got)
	}
	_ = pending
}

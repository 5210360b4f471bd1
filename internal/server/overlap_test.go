package server_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/server"
)

// scriptFilter is a stub filter that emits a fixed segment script when
// the stream finishes, whatever points it was pushed: the way to put a
// sequence no real filter produces on the wire.
type scriptFilter struct {
	eps  []float64
	segs []core.Segment
}

func (f *scriptFilter) Dim() int                                { return len(f.eps) }
func (f *scriptFilter) Epsilon() []float64                      { return f.eps }
func (f *scriptFilter) Push(core.Point) ([]core.Segment, error) { return nil, nil }
func (f *scriptFilter) Finish() ([]core.Segment, error)         { return f.segs, nil }
func (f *scriptFilter) Stats() core.Stats                       { return core.Stats{Segments: len(f.segs)} }

// TestIngestRejectsOverlap sends [0,100] (0→100), then [1,2] and [3,4],
// which start inside it. The server must store the first and reject the
// other two, and every verb must then answer [40,60] from the one chord.
func TestIngestRejectsOverlap(t *testing.T) {
	line := func(t0, t1 float64, pts int) core.Segment {
		return core.Segment{T0: t0, T1: t1, X0: []float64{t0}, X1: []float64{t1}, Points: pts}
	}
	for _, backend := range []server.StoreBackend{server.BackendMem, server.BackendMmap} {
		t.Run(backend.String(), func(t *testing.T) {
			s, addr := startBackend(t, t.TempDir(), backend, nil)
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			})
			f := &scriptFilter{eps: []float64{0.5}, segs: []core.Segment{line(0, 100, 101), line(1, 2, 2), line(3, 4, 2)}}
			c, err := server.Dial(addr, "ov", f)
			if err != nil {
				t.Fatal(err)
			}
			ack, err := c.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ack != (server.Ack{Applied: 1, Rejected: 2}) {
				t.Fatalf("ack %+v, want Applied:1 Rejected:2", ack)
			}

			q, err := server.DialQuery(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			at, err := q.At("ov", 50)
			if err != nil || at[0] != 50 {
				t.Errorf("AT ov 50 = %v, %v; want 50", at, err)
			}
			mean, err := q.Mean("ov", 0, 40, 60)
			if err != nil || math.Abs(mean.Value-50) > 1e-9 {
				t.Errorf("MEAN ov 0 40 60 = %+v, %v; want 50", mean, err)
			}
			mx, err := q.Max("ov", 0, 40, 60)
			if err != nil || math.Abs(mx.Value-60) > 1e-9 {
				t.Errorf("MAX ov 0 40 60 = %+v, %v; want 60", mx, err)
			}
			amx, err := q.Agg("max", "ov", 0, 40, 60)
			if err != nil || math.Abs(amx.Value-60) > 1e-9 {
				t.Errorf("AGG max ov 0 40 60 = %+v, %v; want 60", amx, err)
			}
		})
	}
}

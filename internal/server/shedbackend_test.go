package server_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/server"
)

// TestSampleShedBackendParity is the degraded-mode differential test:
// one decimating Sample-policy session runs against a mem-backed and an
// mmap-backed durable server, and the two must answer every query with
// identical bytes — through a compaction sweep and a restart — while
// the archived reconstruction honours the *reported* inflated ±ε, not
// the handshake contract the session renegotiated away.
func TestSampleShedBackendParity(t *testing.T) {
	const contract = 0.1
	type inst struct {
		s    *server.Server
		addr string
		dir  string
	}
	// A long retune period keeps the server's control loop out of the
	// run: the only degradation is the stride the test forces, so both
	// backends see byte-identical segment streams.
	tweak := func(cfg *server.Config) {
		cfg.Policy = server.Sample
		cfg.RetunePeriod = time.Hour
	}
	backends := []server.StoreBackend{server.BackendMem, server.BackendMmap}
	insts := make([]inst, len(backends))
	for i, b := range backends {
		dir := t.TempDir()
		s, addr := startBackend(t, dir, b, tweak)
		insts[i] = inst{s: s, addr: addr, dir: dir}
	}

	signal := walks(1, 800)[0]
	reported := make([]float64, len(insts))
	for i, in := range insts {
		c, err := server.DialAdaptive(in.addr, "shed", server.FilterSpec{
			Kind: "swing", Epsilon: []float64{contract},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range signal {
			if j == 100 {
				if err := c.SetStride(2); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c.ShedPoints() == 0 {
			t.Fatal("the forced stride shed nothing")
		}
		reported[i] = c.EffectiveEpsilon()[0]
	}
	if reported[0] != reported[1] {
		t.Fatalf("identical sessions reported different ε: %g vs %g", reported[0], reported[1])
	}
	if reported[0] <= contract {
		t.Fatalf("reported ε %g did not inflate over the contract", reported[0])
	}

	cmds := []string{
		"SERIES",
		"SCAN shed 0 100000",
		"AT shed 17.5",
		"AT shed 600",
		"MEAN shed 0 3 700",
		"MIN shed 0 3 700",
		"MAX shed 0 3 700",
		"LAG shed",
		"AGG min shed 0 0 100000",
		"AGG max shed 0 0 100000",
		"AGG avg shed 0 0 100000",
		"AGG sum shed 0 0 100000",
		"AGG count shed 0 0 100000",
		"QUANTILE shed 0 0 100000 0 0.25 0.5 0.9 1",
	}

	// checkBounds asserts, against the live archive, that every original
	// sample reconstructs within the session's reported inflated ε — the
	// honest-degradation contract queries advertise.
	checkBounds := func(stage string) {
		for _, in := range insts {
			sr, err := in.s.DB().Get("shed")
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			qe := sr.QueryEpsilon()[0]
			if math.Abs(qe-reported[0]) > 1e-9 {
				t.Fatalf("%s (%s): query bound %g, want the reported %g", stage, in.dir, qe, reported[0])
			}
			for _, p := range signal {
				x, ok := sr.At(p.T)
				if !ok {
					t.Fatalf("%s (%s): no coverage at t=%v", stage, in.dir, p.T)
				}
				if e := math.Abs(x[0] - p.X[0]); e > qe+1e-9 {
					t.Fatalf("%s (%s): error %g at t=%v exceeds the reported bound %g", stage, in.dir, e, p.T, qe)
				}
			}
		}
	}
	compare := func(stage string) {
		want := rawQuery(t, insts[0].addr, cmds)
		got := rawQuery(t, insts[1].addr, cmds)
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: responses diverge at byte %d:\nmem:  %q\nmmap: %q", stage, i, tail(want, i), tail(got, i))
		}
		if !strings.Contains(want, "shed") {
			t.Fatalf("%s: comparison ran against an empty archive:\n%s", stage, want)
		}
		checkBounds(stage)
	}
	compare("live")

	// A compaction sweep moves the mmap backend onto sealed extents; the
	// inflated bound and the parity must both survive it.
	for _, in := range insts {
		if err := in.s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	compare("compacted")

	// Restart both from their directories alone: the effective-ε control
	// series replays from the store and re-seeds the query bound.
	for i := range insts {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := insts[i].s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		s, addr := startBackend(t, insts[i].dir, backends[i], tweak)
		insts[i].s, insts[i].addr = s, addr
	}
	defer func() {
		for _, in := range insts {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			in.s.Shutdown(ctx)
			cancel()
		}
	}()
	compare("restarted")
}

// TestSampleUnderQueuePressure overloads a starved server — one shard, a
// two-segment queue — with four retune-capable sensors at an ε tight
// enough that a random walk finalizes a segment every couple of points.
// Each sensor streams at least points samples and keeps going until the
// control loop has made some sensor decimate, so the shed path always
// runs. Sample must spend precision, never data: no segment is dropped,
// every sent time stays answerable, and every reconstruction lies within
// the series' reported query bound.
func TestSampleUnderQueuePressure(t *testing.T) {
	const sensors, points, maxPoints, eps = 4, 4000, 100_000, 0.05
	// A 1 ms retune period lets the control loop act inside a short run.
	s, err := server.New(nil, server.Config{
		Shards:       1,
		QueueDepth:   2,
		Policy:       server.Sample,
		RetunePeriod: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}()

	signals := walks(sensors, maxPoints)
	acks := make([]server.Ack, sensors)
	errs := make([]error, sensors)
	var engaged atomic.Bool // some sensor has decimated
	var wg sync.WaitGroup
	for i, sig := range signals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.DialAdaptive(ln.Addr().String(), fmt.Sprintf("press-%d", i),
				server.FilterSpec{Kind: "swing", Epsilon: []float64{eps}})
			if err != nil {
				errs[i] = err
				return
			}
			for n, p := range sig {
				// Two, because Close re-sends a trailing dropped point and
				// un-counts it.
				if c.ShedPoints() >= 2 {
					engaged.Store(true)
				}
				if n >= points && engaged.Load() {
					signals[i] = sig[:n]
					break
				}
				if err := c.Send(p); err != nil {
					errs[i] = err
					return
				}
			}
			acks[i], errs[i] = c.Close()
		}()
	}
	wg.Wait()

	var shed, sent int64
	for _, sm := range s.Metrics().Shards {
		shed += sm.ShedPoints
	}
	for i, sig := range signals {
		if errs[i] != nil {
			t.Fatalf("sensor %d: %v", i, errs[i])
		}
		sent += int64(len(sig))
	}
	t.Logf("%d of %d points decimated under pressure", shed, sent)
	if shed == 0 {
		t.Fatalf("no decimation reached the server within %d points per sensor", maxPoints)
	}
	for i, sig := range signals {
		if acks[i].Dropped != 0 {
			t.Fatalf("sensor %d: Sample dropped %d segments", i, acks[i].Dropped)
		}
		sr, err := s.DB().Get(fmt.Sprintf("press-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		qe := sr.QueryEpsilon()[0]
		for _, p := range sig {
			x, ok := sr.At(p.T)
			if !ok {
				t.Fatalf("sensor %d: no coverage at t=%v", i, p.T)
			}
			if e := math.Abs(x[0] - p.X[0]); e > qe+1e-9 {
				t.Fatalf("sensor %d: error %g at t=%v exceeds the reported bound %g", i, e, p.T, qe)
			}
		}
	}
}

// tail clips s around byte i for a divergence report.
func tail(s string, i int) string {
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/server"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/wal"
)

// TestDemo runs the loopback self-check: any precision violation or lost
// segment fails it.
func TestDemo(t *testing.T) {
	runDemo(t, server.Config{Shards: 4, QueueDepth: 128}, "tcp", 9, 400, 25)
}

// TestDemoUDP runs the same self-check with the fleet streaming over
// the datagram transport: the precision bands and lag accounting must
// hold regardless of the ingest wire.
func TestDemoUDP(t *testing.T) {
	runDemo(t, server.Config{Shards: 4, QueueDepth: 128}, "udp", 9, 400, 25)
}

// TestDemoDurable runs the self-check with a data directory on each
// store backend, at plad's default shards and queue depth: ingest, drain,
// then restart from disk as configured, resharded and on the other
// backend, verifying segment-for-segment equality each time.
func TestDemoDurable(t *testing.T) {
	for _, backend := range []server.StoreBackend{server.BackendMem, server.BackendMmap} {
		t.Run(backend.String(), func(t *testing.T) {
			cfg := server.Config{
				Shards:       8,
				QueueDepth:   1024,
				DataDir:      t.TempDir(),
				StoreBackend: backend,
				Sync:         wal.SyncAlways,
			}
			runDemo(t, cfg, "tcp", 6, 1500, 25)
		})
	}
}

// demoSensor is one synthetic client of the self-check fleet.
type demoSensor struct {
	name   string
	kind   string
	eps    float64
	maxLag int // swing/slide sensors stream lag-bounded when > 0
	signal []core.Point
}

func demoFleet(clients, points, maxLag int) []demoSensor {
	kinds := []string{"cache", "linear", "swing", "slide"}
	fleet := make([]demoSensor, clients)
	for i := range fleet {
		seed := uint64(i + 1)
		var signal []core.Point
		lag := 0
		switch i % 4 {
		case 0:
			signal = gen.Sine(points, 10, float64(points)/8, 0.05, seed)
		case 1:
			signal = gen.Steps(points, 40, 5, seed)
		case 2:
			signal = gen.RandomWalk(gen.WalkConfig{N: points, P: 0.5, MaxDelta: 0.4, Seed: seed})
			lag = maxLag
		default:
			signal = gen.SSTLike(points, seed)
			lag = maxLag
		}
		fleet[i] = demoSensor{
			name:   fmt.Sprintf("sensor-%02d", i),
			kind:   kinds[i%4],
			eps:    0.25,
			maxLag: lag,
			signal: signal,
		}
	}
	return fleet
}

func demoFilter(kind string, eps float64, maxLag int) (core.Filter, error) {
	e := []float64{eps}
	switch kind {
	case "cache":
		return core.NewCache(e)
	case "linear":
		return core.NewLinear(e)
	case "swing":
		if maxLag > 0 {
			return core.NewSwing(e, core.WithSwingMaxLag(maxLag))
		}
		return core.NewSwing(e)
	default:
		if maxLag > 0 {
			return core.NewSlide(e, core.WithSlideMaxLag(maxLag))
		}
		return core.NewSlide(e)
	}
}

// shutdown drains s, failing t if live sessions had to be force-closed.
func shutdown(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// runDemo drives the full sensor → server → query loop on loopback and
// verifies the precision contract end to end. transport selects the
// ingest wire ("tcp" or "udp"; queries always run over TCP). With a
// DataDir configured it finishes by restarting the server from the data
// directory alone and verifying the recovered archive segment for
// segment.
func runDemo(t *testing.T, cfg server.Config, transport string, clients, points, maxLag int) {
	s, err := server.New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, s) }) // idempotent: covers early failures
	db := s.DB()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()
	ingestAddr := addr
	if transport == "udp" {
		ua, err := s.ListenUDP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		ingestAddr = ua.String()
	}

	fleet := demoFleet(clients, points, maxLag)
	start := time.Now()
	var wg sync.WaitGroup
	acks := make([]server.Ack, len(fleet))
	errs := make([]error, len(fleet))
	for i, sn := range fleet {
		wg.Add(1)
		go func(i int, sn demoSensor) {
			defer wg.Done()
			f, err := demoFilter(sn.kind, sn.eps, sn.maxLag)
			if err != nil {
				errs[i] = err
				return
			}
			c, err := server.DialTransport(transport, ingestAddr, sn.name, f)
			if err != nil {
				errs[i] = err
				return
			}
			if err := c.SendBatch(sn.signal); err != nil {
				errs[i] = err
				return
			}
			acks[i], errs[i] = c.Close()
		}(i, sn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %s: %v", fleet[i].name, err)
		}
	}
	elapsed := time.Since(start)

	q, err := server.DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	for i, sn := range fleet {
		t0, t1 := sn.signal[0].T, sn.signal[len(sn.signal)-1].T
		// Per-sample contract: every sample within ε of the reconstruction.
		worst, recSum := 0.0, 0.0
		for _, p := range sn.signal {
			x, err := q.At(sn.name, p.T)
			if err != nil {
				t.Fatalf("%s: At(%v): %v", sn.name, p.T, err)
			}
			worst = math.Max(worst, math.Abs(x[0]-p.X[0]))
			recSum += x[0]
		}
		if worst > sn.eps+1e-9 {
			t.Errorf("%s: worst sample error %g exceeds ε %g", sn.name, worst, sn.eps)
		}
		recMean := recSum / float64(len(sn.signal))
		// Aggregate bands against the generated ground truth.
		trueMin, trueMax, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, p := range sn.signal {
			trueMin = math.Min(trueMin, p.X[0])
			trueMax = math.Max(trueMax, p.X[0])
			sum += p.X[0]
		}
		trueMean := sum / float64(len(sn.signal))
		mean, err := q.Mean(sn.name, 0, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		mn, err := q.Min(sn.name, 0, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		mx, err := q.Max(sn.name, 0, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if trueMin < mn.Lo()-1e-9 || trueMax > mx.Hi()+1e-9 {
			t.Errorf("%s: true [%g, %g] outside the MIN/MAX bands [%g, %g]", sn.name, trueMin, trueMax, mn.Lo(), mx.Hi())
		}
		// The deterministic mean guarantee runs through the reconstruction
		// evaluated at the sample times: averaging |rec−x| ≤ ε bounds it.
		// The time-weighted MEAN must in turn sit inside the
		// reconstruction's own [min, max] envelope.
		if math.Abs(recMean-trueMean) > mean.Epsilon+1e-9 {
			t.Errorf("%s: sampled reconstruction mean %g is more than %g from the true mean %g", sn.name, recMean, mean.Epsilon, trueMean)
		}
		if mean.Value < mn.Value-1e-9 || mean.Value > mx.Value+1e-9 {
			t.Errorf("%s: MEAN %g outside [MIN %g, MAX %g]", sn.name, mean.Value, mn.Value, mx.Value)
		}
		t.Logf("%-9s %-7s %6d points %5d segments  mean %7.3f±%.2f (true %.3f)",
			sn.name, sn.kind, len(sn.signal), acks[i].Applied, recMean, mean.Epsilon, trueMean)
	}

	m := s.Metrics()
	totalPoints := clients * points
	t.Logf("%s ingest: %d points as %d segments (%d B on the wire, %.1fx vs raw) in %v",
		transport, totalPoints, m.Segments, m.Bytes,
		float64(encode.RawSize(totalPoints, 1))/math.Max(float64(m.Bytes), 1), elapsed.Round(time.Millisecond))

	// Lag-bounded sensors drained cleanly: every advertised bound must be
	// on record with a fully finalized, staleness-free series behind it.
	lagged := 0
	for _, sn := range fleet {
		if sn.maxLag == 0 {
			continue
		}
		info, err := q.Lag(sn.name)
		if err != nil {
			t.Fatalf("%s: LAG: %v", sn.name, err)
		}
		if info.Bound != int64(sn.maxLag) || info.Pending != 0 || info.Stale != 0 ||
			info.Covered != int64(len(sn.signal)) {
			t.Errorf("%s: lag accounting off after drain: %+v", sn.name, info)
		}
		lagged++
	}
	if maxLag > 0 && lagged == 0 {
		t.Error("no lag-bounded session was checked")
	}

	// Segment-native pushdown: AGG and QUANTILE answer from summary
	// windows plus closed-form edge segments, never a per-point fold.
	// Check their composed bands against the generated ground truth.
	for _, sn := range fleet {
		t0, t1 := sn.signal[0].T, sn.signal[len(sn.signal)-1].T
		cnt, err := q.Agg("count", sn.name, 0, t0, t1)
		if err != nil {
			t.Fatalf("%s: AGG count: %v", sn.name, err)
		}
		mn, err := q.Agg("min", sn.name, 0, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		mx, err := q.Agg("max", sn.name, 0, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		med, err := q.Quantiles(sn.name, 0, t0, t1, 0.5)
		if err != nil {
			t.Fatalf("%s: QUANTILE: %v", sn.name, err)
		}
		vals := make([]float64, len(sn.signal))
		trueMin, trueMax := math.Inf(1), math.Inf(-1)
		for i, p := range sn.signal {
			vals[i] = p.X[0]
			trueMin = math.Min(trueMin, p.X[0])
			trueMax = math.Max(trueMax, p.X[0])
		}
		sort.Float64s(vals)
		trueMed := vals[(len(vals)-1)/2]
		if cnt.Count != int64(len(sn.signal)) {
			t.Errorf("%s: AGG count %d, sensor sent %d", sn.name, cnt.Count, len(sn.signal))
		}
		if trueMin < mn.Lo()-1e-9 || trueMax > mx.Hi()+1e-9 {
			t.Errorf("%s: true [%g, %g] outside the AGG min/max bands [%g, %g]", sn.name, trueMin, trueMax, mn.Lo(), mx.Hi())
		}
		if trueMed < med[0].Lo-1e-9 || trueMed > med[0].Hi+1e-9 {
			t.Errorf("%s: true median %g outside the QUANTILE band [%g, %g]", sn.name, trueMed, med[0].Lo, med[0].Hi)
		}
	}
	fleetCnt, err := q.Agg("count", "*", 0, 0, math.MaxFloat64)
	if err != nil {
		t.Fatalf("AGG count *: %v", err)
	}
	if fleetCnt.Count != int64(totalPoints) {
		t.Errorf("fan-out AGG counted %d samples, fleet sent %d", fleetCnt.Count, totalPoints)
	}

	// Detach the archive contents before Shutdown: under the mmap
	// backend the drain unmaps the extent files, so the comparison
	// baseline must not read through them afterwards.
	want := detach(db)
	shutdown(t, s)
	if cfg.DataDir == "" {
		return
	}
	verifyRecovery(t, cfg, want)
	// Restart once more with a different shard count: the partitioned
	// logs must migrate into the new sharding without losing a segment.
	resharded := cfg
	resharded.Shards = cfg.Shards*2 + 1
	verifyRecovery(t, resharded, want)
	// And once more on the other store backend: the same directory must
	// migrate between mem and mmap without losing a segment.
	flipped := resharded
	if flipped.StoreBackend == server.BackendMmap {
		flipped.StoreBackend = server.BackendMem
	} else {
		flipped.StoreBackend = server.BackendMmap
	}
	verifyRecovery(t, flipped, want)
}

// detach deep-copies an archive's contents into a plain in-memory
// archive, so comparisons can outlive the server (and, under the mmap
// backend, the extent mappings) that produced it.
func detach(db *tsdb.Archive) *tsdb.Archive {
	out := tsdb.New()
	for _, name := range db.Names() {
		src, err := db.Get(name)
		if err != nil {
			continue
		}
		dst, err := out.Create(name, src.Epsilon(), src.Constant())
		if err != nil {
			continue
		}
		dst.Append(src.Segments()...)
		dst.SetPoints(src.Points())
	}
	return out
}

// verifyRecovery rebuilds a server from the data directory alone and
// checks the recovered archive matches the drained one segment for
// segment — the durability half of the self-check.
func verifyRecovery(t *testing.T, cfg server.Config, want *tsdb.Archive) {
	s, err := server.New(nil, cfg)
	if err != nil {
		t.Fatalf("recovery (%d shards, %v store): %v", cfg.Shards, cfg.StoreBackend, err)
	}
	defer shutdown(t, s)
	db := s.DB()
	names := want.Names()
	if got := db.Names(); len(got) != len(names) {
		t.Fatalf("recovery (%d shards, %v store): %d series, want %d", cfg.Shards, cfg.StoreBackend, len(got), len(names))
	}
	var segs int
	for _, name := range names {
		ws, err := want.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := db.Get(name)
		if err != nil {
			t.Fatalf("recovery: series %q missing: %v", name, err)
		}
		wsegs, gsegs := ws.Segments(), gs.Segments()
		if len(gsegs) != len(wsegs) {
			t.Fatalf("recovery: %s has %d segments, want %d", name, len(gsegs), len(wsegs))
		}
		for i := range wsegs {
			a, b := wsegs[i], gsegs[i]
			if a.T0 != b.T0 || a.T1 != b.T1 || a.Connected != b.Connected || a.Points != b.Points {
				t.Fatalf("recovery: %s segment %d differs: %+v vs %+v", name, i, a, b)
			}
			for d := range a.X0 {
				if a.X0[d] != b.X0[d] || a.X1[d] != b.X1[d] {
					t.Fatalf("recovery: %s segment %d values differ in dim %d", name, i, d)
				}
			}
		}
		segs += len(gsegs)
	}
	t.Logf("restart (%d shards, %v store) verified: %d series, %d segments identical",
		cfg.Shards, cfg.StoreBackend, len(names), segs)
}

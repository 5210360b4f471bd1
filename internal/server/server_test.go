package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/wal"
)

// startServer launches a server on an ephemeral loopback port and returns
// it with a cleanup that shuts it down.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	db := tsdb.New()
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-serveErr; err != ErrClosed {
			t.Errorf("Serve returned %v, want ErrClosed", err)
		}
	})
	return s, ln.Addr().String()
}

// sensor is one test client's workload: a named signal and the filter it
// streams through.
type sensor struct {
	name   string
	signal []core.Point
	filter func() (core.Filter, error)
	eps    []float64
}

// testFleet builds n single- and multi-dimensional sensors cycling over
// every filter kind.
func testFleet(n int) []sensor {
	fleet := make([]sensor, n)
	for i := range fleet {
		i := i
		eps := []float64{0.25}
		var signal []core.Point
		var filter func() (core.Filter, error)
		switch i % 4 {
		case 0:
			signal = gen.Sine(600, 10, 120, 0.05, uint64(i+1))
			filter = func() (core.Filter, error) { return core.NewCache(eps) }
		case 1:
			signal = gen.Steps(600, 25, 4, uint64(i+1))
			filter = func() (core.Filter, error) { return core.NewLinear(eps) }
		case 2:
			signal = gen.RandomWalk(gen.WalkConfig{N: 600, P: 0.5, MaxDelta: 0.4, Seed: uint64(i + 1)})
			filter = func() (core.Filter, error) { return core.NewSwing(eps) }
		default:
			eps = []float64{0.25, 0.4, 0.3}
			signal = gen.MultiWalk(gen.MultiWalkConfig{
				WalkConfig:  gen.WalkConfig{N: 600, P: 0.5, MaxDelta: 0.4, Seed: uint64(i + 1)},
				Dims:        3,
				Correlation: 0.5,
			})
			filter = func() (core.Filter, error) { return core.NewSlide(eps) }
		}
		fleet[i] = sensor{name: fmt.Sprintf("sensor-%02d", i), signal: signal, filter: filter, eps: eps}
	}
	return fleet
}

// runSensor streams a sensor's signal through a dialed client and returns
// the ack.
func runSensor(addr string, sn sensor) (Ack, core.Stats, int64, error) {
	f, err := sn.filter()
	if err != nil {
		return Ack{}, core.Stats{}, 0, err
	}
	c, err := Dial(addr, sn.name, f)
	if err != nil {
		return Ack{}, core.Stats{}, 0, err
	}
	for _, p := range sn.signal {
		if err := c.Send(p); err != nil {
			return Ack{}, core.Stats{}, 0, fmt.Errorf("%s: send: %w", sn.name, err)
		}
	}
	ack, err := c.Close()
	// Stats/BytesSent after Close include the final segments + terminator.
	return ack, c.Stats(), c.BytesSent(), err
}

// TestConcurrentClientsEpsilonBound drives 12 simultaneous clients over
// loopback TCP and asserts that every resolved sample of every sensor is
// within its ε of the archive's reconstruction, and that the aggregate
// bands contain the true sample statistics they bound.
func TestConcurrentClientsEpsilonBound(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4, QueueDepth: 64})
	fleet := testFleet(12)

	var wg sync.WaitGroup
	acks := make([]Ack, len(fleet))
	stats := make([]core.Stats, len(fleet))
	sent := make([]int64, len(fleet))
	errs := make([]error, len(fleet))
	for i, sn := range fleet {
		wg.Add(1)
		go func(i int, sn sensor) {
			defer wg.Done()
			acks[i], stats[i], sent[i], errs[i] = runSensor(addr, sn)
		}(i, sn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	q, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	for i, sn := range fleet {
		if acks[i].Rejected != 0 || acks[i].Dropped != 0 {
			t.Errorf("%s: ack %+v, want no rejects/drops", sn.name, acks[i])
		}
		if int(acks[i].Applied) != stats[i].Segments {
			t.Errorf("%s: applied %d of %d finalized segments", sn.name, acks[i].Applied, stats[i].Segments)
		}
		// The paper's contract, end to end: every sample within ε of the
		// served reconstruction, per dimension.
		recSum := make([]float64, len(sn.eps))
		for _, p := range sn.signal {
			x, err := q.At(sn.name, p.T)
			if err != nil {
				t.Fatalf("%s: At(%v): %v", sn.name, p.T, err)
			}
			for d := range p.X {
				if diff := math.Abs(x[d] - p.X[d]); diff > sn.eps[d]+1e-9 {
					t.Fatalf("%s: |rec−x| = %v > ε = %v at t=%v dim %d", sn.name, diff, sn.eps[d], p.T, d)
				}
				recSum[d] += x[d]
			}
		}
		// Aggregate bands: the true extrema must respect the one-sided
		// guarantees, and the true mean must sit inside the ±ε band up to
		// the continuous-vs-sampled slack.
		t0, t1 := sn.signal[0].T, sn.signal[len(sn.signal)-1].T
		for d := range sn.eps {
			trueMin, trueMax, trueSum := math.Inf(1), math.Inf(-1), 0.0
			for _, p := range sn.signal {
				trueMin = math.Min(trueMin, p.X[d])
				trueMax = math.Max(trueMax, p.X[d])
				trueSum += p.X[d]
			}
			trueMean := trueSum / float64(len(sn.signal))
			mn, err := q.Min(sn.name, d, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			if trueMin < mn.Lo()-1e-9 {
				t.Errorf("%s dim %d: true min %v below band floor %v", sn.name, d, trueMin, mn.Lo())
			}
			mx, err := q.Max(sn.name, d, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			if trueMax > mx.Hi()+1e-9 {
				t.Errorf("%s dim %d: true max %v above band ceiling %v", sn.name, d, trueMax, mx.Hi())
			}
			me, err := q.Mean(sn.name, d, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			// The deterministic mean band runs through the reconstruction
			// at the sample times (|rec−x| ≤ ε averages to ≤ ε); the
			// time-weighted MEAN must sit in the reconstruction's own
			// [min, max] envelope.
			recMean := recSum[d] / float64(len(sn.signal))
			if math.Abs(recMean-trueMean) > me.Epsilon+1e-9 {
				t.Errorf("%s dim %d: true mean %v outside reconstruction band %v ± %v",
					sn.name, d, trueMean, recMean, me.Epsilon)
			}
			if me.Value < mn.Value-1e-9 || me.Value > mx.Value+1e-9 {
				t.Errorf("%s dim %d: MEAN %v outside [MIN %v, MAX %v]", sn.name, d, me.Value, mn.Value, mx.Value)
			}
		}
	}

	// Metrics agree with the acks, and both ends count the same wire
	// bytes (handshake + frames + terminator).
	var applied, wire int64
	for i, a := range acks {
		applied += a.Applied
		wire += sent[i]
	}
	m := srv.Metrics()
	if m.Segments != applied || m.Rejected != 0 {
		t.Errorf("server metrics %+v, want %d segments, 0 rejected", m, applied)
	}
	if m.Bytes != wire {
		t.Errorf("server counted %d wire bytes, clients sent %d", m.Bytes, wire)
	}
	if m.TotalSessions != int64(len(fleet)) {
		t.Errorf("total sessions %d, want %d", m.TotalSessions, len(fleet))
	}
	rows, err := q.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var viaQuery int64
	for _, r := range rows {
		viaQuery += r.Segments
	}
	if viaQuery != applied {
		t.Errorf("METRICS reports %d segments, want %d", viaQuery, applied)
	}
	infos, err := q.Series()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(fleet) {
		t.Errorf("SERIES lists %d series, want %d", len(infos), len(fleet))
	}
}

// TestShutdownDrain starts a graceful shutdown while clients are still
// streaming and asserts that no finalized segment is lost: everything the
// acks count as applied is in the archive when Shutdown returns.
func TestShutdownDrain(t *testing.T) {
	db := tsdb.New()
	// A tiny queue forces real backpressure through the drain path.
	s, err := New(db, Config{Shards: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	fleet := testFleet(8)
	acks := make([]Ack, len(fleet))
	errs := make([]error, len(fleet))
	connected := make(chan struct{}, len(fleet))
	var wg sync.WaitGroup
	for i, sn := range fleet {
		wg.Add(1)
		go func(i int, sn sensor) {
			defer wg.Done()
			f, err := sn.filter()
			if err != nil {
				errs[i] = err
				connected <- struct{}{}
				return
			}
			c, err := Dial(ln.Addr().String(), sn.name, f)
			connected <- struct{}{}
			if err != nil {
				errs[i] = err
				return
			}
			for _, p := range sn.signal {
				if err := c.Send(p); err != nil {
					errs[i] = err
					return
				}
			}
			acks[i], errs[i] = c.Close()
		}(i, sn)
	}
	// Begin the shutdown as soon as every handshake is through, while the
	// sessions are still pumping points. Graceful drain must wait for all
	// of them.
	for range fleet {
		<-connected
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != ErrClosed {
		t.Errorf("Serve returned %v, want ErrClosed", err)
	}

	var wantSegs int64
	for i := range fleet {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if acks[i].Rejected != 0 || acks[i].Dropped != 0 {
			t.Errorf("%s: ack %+v, want clean", fleet[i].name, acks[i])
		}
		wantSegs += acks[i].Applied
	}
	var gotSegs int
	for _, name := range db.Names() {
		sr, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		gotSegs += sr.Len()
	}
	if int64(gotSegs) != wantSegs {
		t.Errorf("archive holds %d segments after drain, acks promised %d", gotSegs, wantSegs)
	}
	// New sessions are refused after shutdown.
	if _, err := Dial(ln.Addr().String(), "late", mustLinear(t)); err == nil {
		t.Error("Dial succeeded after Shutdown")
	}
}

func mustLinear(t *testing.T) core.Filter {
	t.Helper()
	f, err := core.NewLinear([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNetPipeSession runs a full ingest round trip over net.Pipe via
// ServeConn — no sockets involved.
func TestNetPipeSession(t *testing.T) {
	db := tsdb.New()
	s, err := New(db, Config{Shards: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	cli, srvEnd := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeConn(srvEnd) }()

	// NewClient's handshake blocks until the server answers, so build it
	// concurrently with the server's reader.
	type dialed struct {
		c   *Client
		err error
	}
	dialCh := make(chan dialed, 1)
	signal := gen.Sine(200, 5, 50, 0, 7)
	go func() {
		f, err := core.NewSwing([]float64{0.2})
		if err != nil {
			dialCh <- dialed{err: err}
			return
		}
		c, err := NewClient(cli, "pipe-series", f)
		dialCh <- dialed{c: c, err: err}
	}()
	d := <-dialCh
	if d.err != nil {
		t.Fatal(d.err)
	}
	if err := d.c.SendBatch(signal); err != nil {
		t.Fatal(err)
	}
	ack, err := d.c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	if ack.Applied == 0 || ack.Rejected != 0 || ack.Dropped != 0 {
		t.Fatalf("ack %+v", ack)
	}
	sr, err := db.Get("pipe-series")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range signal {
		x, ok := sr.At(p.T)
		if !ok {
			t.Fatalf("t=%v not covered", p.T)
		}
		if math.Abs(x[0]-p.X[0]) > 0.2+1e-9 {
			t.Fatalf("|rec−x| = %v > ε at t=%v", math.Abs(x[0]-p.X[0]), p.T)
		}
	}
}

// TestContractMismatch rejects a second client declaring a different
// precision contract for an existing series.
func TestContractMismatch(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	f1, _ := core.NewLinear([]float64{0.5})
	c, err := Dial(addr, "shared", f1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f2, _ := core.NewLinear([]float64{0.9})
	if _, err := Dial(addr, "shared", f2); err == nil {
		t.Fatal("mismatched contract accepted")
	}
	f3, _ := core.NewCache([]float64{0.5})
	if _, err := Dial(addr, "shared", f3); err == nil {
		t.Fatal("constant/linear mismatch accepted")
	}
	// A matching redial is fine.
	f4, _ := core.NewLinear([]float64{0.5})
	c4, err := Dial(addr, "shared", f4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryErrors exercises the textual error paths.
func TestQueryErrors(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	q, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.At("nope", 1); err == nil {
		t.Error("AT on missing series succeeded")
	}
	// An injected newline must be rejected client-side, and must not
	// desynchronise the session for later calls.
	if _, err := q.At("x\nMETRICS", 1); !errors.Is(err, ErrProtocol) {
		t.Errorf("AT with embedded newline returned %v, want ErrProtocol", err)
	}
	if _, err := q.Series(); err != nil {
		t.Errorf("session desynchronised after rejected name: %v", err)
	}
	if _, err := q.do("FROB x"); err == nil {
		t.Error("unknown command succeeded")
	}
	// Covered series, uncovered time.
	f, _ := core.NewLinear([]float64{0.5})
	c, err := Dial(addr, "small", f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Sine(50, 2, 10, 0, 1) {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.At("small", 1e9); err == nil {
		t.Error("AT outside coverage succeeded")
	}
	segs, err := q.Scan("small", 0, 49)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Error("SCAN returned nothing over the covered range")
	}
}

// TestSeriesNameValidation rejects names that would break the
// line-oriented query protocol, on both ends of the handshake.
func TestSeriesNameValidation(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	for _, bad := range []string{"", "two words", "tab\tname", "line\nbreak", "ctrl\x01", string([]byte{0xff, 0xfe})} {
		if _, err := Dial(addr, bad, mustLinear(t)); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	// The server enforces it independently of the client library.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := append([]byte(magicIngest), 3, 'a', ' ', 'b')
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := readStatus(bufio.NewReader(conn)); err == nil {
		t.Error("server accepted a series name with a space")
	}
	// Valid names still work.
	c, err := Dial(addr, "ok-name_9.x", mustLinear(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownClosesQuerySessions: an idle query connection must not
// hold a graceful drain open.
func TestShutdownClosesQuerySessions(t *testing.T) {
	db := tsdb.New()
	s, err := New(db, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	q, err := DialQuery(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Series(); err != nil { // session is live
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Shutdown took %v with only an idle query session attached", elapsed)
	}
	q.Close()
}

// TestAggregateNoData maps empty-range aggregates to ErrNoData, distinct
// from other rejections.
func TestAggregateNoData(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	c, err := Dial(addr, "gap", mustLinear(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Sine(50, 2, 10, 0, 1) { // covers [0, 49]
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Mean("gap", 0, 5000, 6000); !errors.Is(err, ErrNoData) {
		t.Errorf("empty-range MEAN returned %v, want ErrNoData", err)
	}
	if _, err := q.Min("gap", 0, 10, 5); errors.Is(err, ErrNoData) || err == nil {
		t.Errorf("inverted range MIN returned %v, want a non-ErrNoData rejection", err)
	}
}

// TestGroupCommitBatchesBarriers proves the group-commit contract
// deterministically: many barriers queued behind segments drain in one
// pass and share a single WAL commit (one fsync under SyncAlways), and
// every waiter is acknowledged.
func TestGroupCommitBatchesBarriers(t *testing.T) {
	st, _, err := wal.Open(t.TempDir(), 1, tsdb.New(), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := newShard(0, 64, st.Shard(0), nil) // worker not started: jobs pile up
	sr, _, err := st.DB().GetOrCreate("g", []float64{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	fsyncs0 := st.Shard(0).Metrics().Fsyncs
	var barriers []chan error
	for i := 0; i < 8; i++ {
		sh.enqueue(job{series: sr, seg: core.Segment{
			T0: float64(i), T1: float64(i) + 0.5, X0: []float64{0}, X1: []float64{1}, Points: 2,
		}}, Block)
		b := make(chan error, 1)
		barriers = append(barriers, b)
		sh.enqueue(job{barrier: b}, Block)
	}
	close(sh.jobs)
	sh.run() // drains everything in one greedy pass

	for i, b := range barriers {
		if err, ok := <-b; ok && err != nil {
			t.Fatalf("barrier %d: %v", i, err)
		}
	}
	if got := sh.commits.Load(); got != 1 {
		t.Fatalf("%d commit batches for 8 barriers, want 1 (group commit)", got)
	}
	if got := sh.barriers.Load(); got != 8 {
		t.Fatalf("acked %d barriers, want 8", got)
	}
	if got := st.Shard(0).Metrics().Fsyncs - fsyncs0; got != 1 {
		t.Fatalf("%d fsyncs for 8 barriers, want 1", got)
	}
	if got := sh.segments.Load(); got != 8 {
		t.Fatalf("applied %d segments, want 8", got)
	}
}

// TestRetentionEndToEnd runs retention through the server path: ingest,
// compact with a window, verify the old segments left both the archive
// and (after restart) the disk.
func TestRetentionEndToEnd(t *testing.T) {
	dataDir := t.TempDir()
	db := tsdb.New()
	// testFleet signals cover t ∈ [0, 599]; retain the last 100 units.
	s, err := New(db, Config{Shards: 2, DataDir: dataDir, Sync: wal.SyncAlways, RetainSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	fleet := testFleet(4)
	for _, sn := range fleet {
		if _, _, _, err := runSensor(addrOf(ln), sn); err != nil {
			t.Fatal(err)
		}
	}
	full := make(map[string]int)
	for _, sn := range fleet {
		sr, err := db.Get(sn.name)
		if err != nil {
			t.Fatal(err)
		}
		full[sn.name] = sr.Len()
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, sn := range fleet {
		sr, err := db.Get(sn.name)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Len() >= full[sn.name] {
			t.Errorf("%s: %d segments after retention compaction, had %d — nothing aged out", sn.name, sr.Len(), full[sn.name])
		}
		segs := sr.Segments()
		if len(segs) == 0 {
			t.Fatalf("%s: retention emptied the series", sn.name)
		}
		_, end, _ := sr.Span()
		if segs[0].T1 < end-100 {
			t.Errorf("%s: oldest surviving segment ends at %v, window floor %v", sn.name, segs[0].T1, end-100)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The restart serves the pruned state, not the full history.
	db2 := tsdb.New()
	s2, err := New(db2, Config{Shards: 2, DataDir: dataDir, RetainSegments: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	for _, sn := range fleet {
		live, _ := db.Get(sn.name)
		got, err := db2.Get(sn.name)
		if err != nil {
			t.Fatalf("%s lost across retention restart: %v", sn.name, err)
		}
		if got.Len() != live.Len() {
			t.Errorf("%s: %d segments after restart, want %d", sn.name, got.Len(), live.Len())
		}
	}
}

// copyDataDir clones a data directory byte for byte (shard subdirs
// included) — the moral equivalent of reading the disk after a crash,
// without racing the still-open file handles of the "crashed" server.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyTree(t, src, dst)
	return dst
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillAndRestartDurability is the durability acceptance test: under
// wal.SyncAlways, every batch acked before a hard crash must survive a
// restart, segment for segment — including when the crash tears the last
// WAL write in half.
func TestKillAndRestartDurability(t *testing.T) {
	dataDir := t.TempDir()
	db := tsdb.New()
	s, err := New(db, Config{Shards: 4, QueueDepth: 64, DataDir: dataDir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	// The server is never shut down cleanly in this test — that is the
	// point — but the goroutines are reaped at the end.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	fleet := testFleet(8)
	var wg sync.WaitGroup
	acks := make([]Ack, len(fleet))
	errs := make([]error, len(fleet))
	for i, sn := range fleet {
		wg.Add(1)
		go func(i int, sn sensor) {
			defer wg.Done()
			acks[i], _, _, errs[i] = runSensor(addrOf(ln), sn)
		}(i, sn)
	}
	wg.Wait()
	var acked int64
	for i := range fleet {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		acked += acks[i].Applied
	}

	// "Kill": copy the data directory out from under the live server and
	// tear every shard's WAL tail, as a crash mid-write would.
	crashed := copyDataDir(t, dataDir)
	_, wals, err := walScan(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) == 0 {
		t.Fatal("no wal files written")
	}
	for _, tail := range wals {
		f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x42, 0x13}); err != nil { // half a record
			t.Fatal(err)
		}
		f.Close()
	}

	// Restart from the crashed copy twice — once with the same shard
	// count (pure per-shard recovery) and once with a different one (the
	// replay-into-new-sharding migration) — and compare segment for
	// segment with the live archive: everything acked was fsynced, so
	// nothing may be missing or reordered either way.
	for _, shards := range []int{4, 3} {
		crashedCopy := copyDataDir(t, crashed)
		db2 := tsdb.New()
		s2, err := New(db2, Config{Shards: shards, DataDir: crashedCopy, Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		var recovered int64
		for _, sn := range fleet {
			live, err := db.Get(sn.name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db2.Get(sn.name)
			if err != nil {
				t.Fatalf("shards=%d: series %q lost in crash: %v", shards, sn.name, err)
			}
			lsegs, gsegs := live.Segments(), got.Segments()
			if len(gsegs) != len(lsegs) {
				t.Fatalf("shards=%d: %s: recovered %d segments, live archive has %d", shards, sn.name, len(gsegs), len(lsegs))
			}
			for i := range lsegs {
				l, g := lsegs[i], gsegs[i]
				if l.T0 != g.T0 || l.T1 != g.T1 || l.Connected != g.Connected || l.Points != g.Points ||
					fmt.Sprint(l.X0) != fmt.Sprint(g.X0) || fmt.Sprint(l.X1) != fmt.Sprint(g.X1) {
					t.Fatalf("shards=%d: %s: segment %d differs after recovery:\nlive %+v\ngot  %+v", shards, sn.name, i, l, g)
				}
			}
			recovered += int64(len(gsegs))
		}
		if recovered != acked {
			t.Fatalf("shards=%d: recovered %d segments, acks promised %d", shards, recovered, acked)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s2.Shutdown(ctx)
		cancel()
	}
}

// addrOf shortens ln.Addr().String().
func addrOf(ln net.Listener) string { return ln.Addr().String() }

// walScan lists a data directory's wal and snapshot files in path order,
// descending into the per-shard partition directories.
func walScan(dir string) (snaps, wals []string, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".plaa"):
			snaps = append(snaps, path)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			wals = append(wals, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(snaps)
	sort.Strings(wals)
	return snaps, wals, nil
}

// TestGracefulDrainSnapshot checks that a durable server's Shutdown
// leaves exactly one snapshot and no wal tail, and that a restart serves
// the same data with a pure snapshot load.
func TestGracefulDrainSnapshot(t *testing.T) {
	dataDir := t.TempDir()
	db := tsdb.New()
	s, err := New(db, Config{Shards: 2, DataDir: dataDir, Sync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	fleet := testFleet(4)
	for _, sn := range fleet {
		if _, _, _, err := runSensor(addrOf(ln), sn); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	snaps, wals, err := walScan(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || len(wals) != 0 {
		t.Fatalf("after drain: %d snapshots, %d wal files; want exactly 1 snapshot per shard (2)", len(snaps), len(wals))
	}

	db2 := tsdb.New()
	s2, err := New(db2, Config{Shards: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	for _, sn := range fleet {
		live, err := db.Get(sn.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db2.Get(sn.name)
		if err != nil {
			t.Fatalf("series %q missing after snapshot restart: %v", sn.name, err)
		}
		if got.Len() != live.Len() || got.Points() != live.Points() {
			t.Fatalf("%s: %d segments/%d points after restart, want %d/%d",
				sn.name, got.Len(), got.Points(), live.Len(), live.Points())
		}
	}
}

// TestCompactionUnderIngest forces automatic compaction while sessions
// stream, then restarts and verifies nothing was lost across the
// snapshot+truncate cycle.
func TestCompactionUnderIngest(t *testing.T) {
	dataDir := t.TempDir()
	db := tsdb.New()
	s, err := New(db, Config{Shards: 2, DataDir: dataDir, Sync: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	fleet := testFleet(6)
	var wg sync.WaitGroup
	errs := make([]error, len(fleet))
	for i, sn := range fleet {
		wg.Add(1)
		go func(i int, sn sensor) {
			defer wg.Done()
			_, _, _, errs[i] = runSensor(addrOf(ln), sn)
		}(i, sn)
	}
	// Compact concurrently with the ingest instead of waiting for the
	// background ticker's cadence.
	compactErr := make(chan error, 1)
	go func() { compactErr <- s.Compact() }()
	wg.Wait()
	if err := <-compactErr; err != nil {
		t.Fatalf("compact during ingest: %v", err)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	db2 := tsdb.New()
	s2, err := New(db2, Config{Shards: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	for _, sn := range fleet {
		live, _ := db.Get(sn.name)
		got, err := db2.Get(sn.name)
		if err != nil {
			t.Fatalf("series %q lost across compaction: %v", sn.name, err)
		}
		if got.Len() != live.Len() {
			t.Fatalf("%s: %d segments after restart, want %d", sn.name, got.Len(), live.Len())
		}
	}
}

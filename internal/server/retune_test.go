package server

import (
	"bufio"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/gen"
)

// TestAdaptiveSessionEndToEnd runs a decimating session against a
// Sample-policy server and checks the whole degradation ledger: shed
// counts reach the shard metrics, the series' query bound widens to the
// announced effective ε, and the archived reconstruction honours it.
func TestAdaptiveSessionEndToEnd(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2, Policy: Sample})
	signal := gen.RandomWalk(gen.WalkConfig{N: 500, P: 0.5, MaxDelta: 0.4, Seed: 21})

	c, err := DialAdaptive(addr, "adaptive", FilterSpec{Kind: "swing", Epsilon: []float64{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Capable() {
		t.Fatal("server did not acknowledge the retune capability")
	}
	for i, p := range signal {
		if i == 100 {
			if err := c.SetStride(2); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	reported := append([]float64(nil), c.EffectiveEpsilon()...)
	shed := c.ShedPoints()
	if shed == 0 {
		t.Fatal("stride 2 shed nothing")
	}
	if reported[0] <= 0.1 {
		t.Fatalf("effective ε %g did not inflate over the contract", reported[0])
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Close's exact final announcement makes the server's ledger match
	// the client's lifetime counters.
	reported = c.EffectiveEpsilon() // Close settles a trailing pending drop
	shed = c.ShedPoints()
	var gotShed int64
	for _, sm := range s.Metrics().Shards {
		gotShed += sm.ShedPoints
	}
	if gotShed != int64(shed) {
		t.Fatalf("server shed ledger %d != client %d", gotShed, shed)
	}

	sr, err := s.db.Get("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	qe := sr.QueryEpsilon()
	if math.Abs(qe[0]-reported[0]) > 1e-9 {
		t.Fatalf("query bound %g, want the announced %g", qe[0], reported[0])
	}
	for _, p := range signal {
		x, ok := sr.At(p.T)
		if !ok {
			t.Fatalf("no coverage at t=%v — decimation must not lose intervals", p.T)
		}
		if e := math.Abs(x[0] - p.X[0]); e > qe[0]+1e-9 {
			t.Fatalf("error %g at t=%v exceeds the reported bound %g", e, p.T, qe[0])
		}
	}
}

// TestPlainClientAgainstSampleServer pins old-client compatibility: a
// client without the capability runs under Sample exactly as under
// Block — statusOK handshake, nothing shed, contract bounds.
func TestPlainClientAgainstSampleServer(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 1, Policy: Sample})
	f, err := core.NewSwing([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "plain", f)
	if err != nil {
		t.Fatal(err)
	}
	signal := gen.RandomWalk(gen.WalkConfig{N: 300, P: 0.5, MaxDelta: 0.4, Seed: 4})
	if err := c.SendBatch(signal); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Dropped != 0 {
		t.Fatalf("Sample dropped %d segments from a plain client", ack.Dropped)
	}
	sr, err := s.db.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if qe := sr.QueryEpsilon(); qe[0] != 0.1 {
		t.Fatalf("plain session query bound %g, want the contract 0.1", qe[0])
	}
	if n := s.retuneSessionCount(); n != 0 {
		t.Fatalf("%d retune sessions registered for a plain client", n)
	}
}

// TestAdaptiveClientAgainstOldServer drives the adaptive client at a
// fake pre-retune server (handshake answered with plain statusOK) and
// checks the client degrades to exactly the old behaviour: no opRetune
// record ever reaches the wire, and the session closes with a clean ack.
func TestAdaptiveClientAgainstOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type oldResult struct {
		retunes int
		applied int64
		err     error
	}
	resCh := make(chan oldResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			resCh <- oldResult{err: err}
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		magic := make([]byte, 4)
		if _, err := io.ReadFull(br, magic); err != nil {
			resCh <- oldResult{err: err}
			return
		}
		if _, err := readName(br); err != nil {
			resCh <- oldResult{err: err}
			return
		}
		dec, err := encode.NewDecoder(encode.NewFrameReader(br))
		if err != nil {
			resCh <- oldResult{err: err}
			return
		}
		// The old server's answer: plain acceptance, no capability.
		if err := writeStatusOK(conn); err != nil {
			resCh <- oldResult{err: err}
			return
		}
		var applied int64
		for {
			_, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				resCh <- oldResult{err: err}
				return
			}
			applied++
		}
		if err := writeAck(conn, Ack{Applied: applied}); err != nil {
			resCh <- oldResult{err: err}
			return
		}
		resCh <- oldResult{retunes: dec.RetuneGen(), applied: applied}
	}()

	c, err := DialAdaptive(ln.Addr().String(), "legacy", FilterSpec{Kind: "swing", Epsilon: []float64{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Capable() {
		t.Fatal("client claims capability an old server never acked")
	}
	// A locally forced stride still decimates — but must stay silent.
	if err := c.SetStride(2); err != nil {
		t.Fatal(err)
	}
	signal := gen.RandomWalk(gen.WalkConfig{N: 300, P: 0.5, MaxDelta: 0.4, Seed: 9})
	for _, p := range signal {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.retunes != 0 {
		t.Fatalf("%d opRetune records reached an old server", res.retunes)
	}
	if ack.Applied != res.applied || ack.Applied == 0 {
		t.Fatalf("ack %+v vs server applied %d", ack, res.applied)
	}
	if c.ShedPoints() == 0 {
		t.Fatal("local stride did not decimate")
	}
}

// TestServerRenegotiatesUnderBudget runs a server whose ε byte budget is
// far below the session's rate and checks a live renegotiation arrives,
// is applied mid-stream, and widens the archived query bound.
func TestServerRenegotiatesUnderBudget(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 1, EpsBudget: 1, RetunePeriod: 10 * time.Millisecond})
	c, err := DialAdaptive(addr, "budgeted", FilterSpec{Kind: "swing", Epsilon: []float64{0.05}})
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.NewRNG(31)
	x, tt := 0.0, 0.0
	deadline := time.Now().Add(10 * time.Second)
	for c.Retunes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no renegotiation applied within 10s")
		}
		x += rng.Float64() - 0.5
		tt++
		if err := c.Send(core.Point{T: tt, X: []float64{x}}); err != nil {
			t.Fatal(err)
		}
	}
	// A few more points under the widened contract, then a clean end.
	for i := 0; i < 100; i++ {
		x += rng.Float64() - 0.5
		tt++
		if err := c.Send(core.Point{T: tt, X: []float64{x}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.EffectiveEpsilon()[0]; got <= 0.05 {
		t.Fatalf("effective ε %g did not widen under budget pressure", got)
	}
	m := s.Metrics()
	if m.RetuneFrames == 0 {
		t.Fatal("server counted no renegotiation frames")
	}
	sr, err := s.db.Get("budgeted")
	if err != nil {
		t.Fatal(err)
	}
	if qe := sr.QueryEpsilon(); qe[0] <= 0.05 {
		t.Fatalf("query bound %g did not widen", qe[0])
	}
}

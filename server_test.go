package pla_test

// Exercises the network server through the facade's clients. The
// server is built from internal/server, as plad builds it; every client
// call goes through pla.DialServer and pla.DialQuery, exactly like an
// external consumer following the README.

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	pla "github.com/pla-go/pla"
	"github.com/pla-go/pla/internal/server"
	"github.com/pla-go/pla/internal/wal"
)

func TestPublicServerRoundTrip(t *testing.T) {
	srv, err := server.New(pla.NewArchive(), server.Config{Shards: 2, Policy: server.Block})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	signal := pla.RandomWalk(pla.WalkConfig{N: 500, P: 0.5, MaxDelta: 0.4, Seed: 11})
	f, err := pla.NewSlideFilter([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pla.DialServer(ln.Addr().String(), "public-walk", f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range signal {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied == 0 || ack.Rejected != 0 || ack.Dropped != 0 {
		t.Fatalf("ack %+v", ack)
	}

	q, err := pla.DialQuery(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, p := range signal {
		x, err := q.At("public-walk", p.T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x[0]-p.X[0]) > 0.5+1e-9 {
			t.Fatalf("|rec−x| = %v > ε at t=%v", math.Abs(x[0]-p.X[0]), p.T)
		}
	}
	if _, err := q.Mean("public-walk", 0, 1e8, 1e9); !errors.Is(err, pla.ErrNoData) {
		t.Fatalf("empty range: %v, want pla.ErrNoData", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPublicServerDurability runs an ingest → shutdown → restart cycle
// through the facade: the restarted server must serve the same series
// from its data directory.
func TestPublicServerDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Shards: 2, DataDir: dir, Sync: wal.SyncAlways}
	srv, err := server.New(pla.NewArchive(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	signal := pla.RandomWalk(pla.WalkConfig{N: 400, P: 0.5, MaxDelta: 0.4, Seed: 7})
	f, err := pla.NewSwingFilter([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pla.DialServer(ln.Addr().String(), "durable-walk", f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range signal {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	db := pla.NewArchive()
	srv2, err := server.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()
	s, err := db.Get("durable-walk")
	if err != nil {
		t.Fatal(err)
	}
	if int64(s.Len()) != ack.Applied {
		t.Fatalf("recovered %d segments, acked %d", s.Len(), ack.Applied)
	}
	for _, p := range signal {
		x, ok := s.At(p.T)
		if !ok {
			t.Fatalf("t=%v uncovered after recovery", p.T)
		}
		if math.Abs(x[0]-p.X[0]) > 0.5+1e-9 {
			t.Fatalf("|rec−x| = %v > ε at t=%v after recovery", math.Abs(x[0]-p.X[0]), p.T)
		}
	}
}

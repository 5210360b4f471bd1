package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/wal"
)

// TestHTTPObservability exercises the /metrics and /healthz endpoint a
// durable server exposes: starting before Serve holds a listener,
// healthy while serving, per-shard gauges and WAL counters present
// after traffic, draining after Shutdown.
func TestHTTPObservability(t *testing.T) {
	srv, err := New(tsdb.New(), Config{Shards: 2, DataDir: t.TempDir(), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("/healthz before Serve = %d %q, want 503 starting", code, body)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != ErrClosed {
			t.Errorf("Serve returned %v, want ErrClosed", err)
		}
	})
	// Addr turns non-nil once Serve holds the listener, and not before.
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := ln.Addr().String()
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	// Push one TCP and one UDP session through so counters move on both
	// transports.
	c, err := Dial(addr, "observed", mustLinear(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Sine(200, 3, 40, 0, 2) {
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ua, err := srv.ListenUDP("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	uc, err := DialTransport("udp", ua.String(), "observed-udp", mustLinear(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := uc.SendBatch(gen.Sine(200, 3, 40, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := uc.Close(); err != nil {
		t.Fatal(err)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"plad_sessions_total 2",
		`plad_shard_queue_capacity{shard="0"}`,
		`plad_shard_queue_capacity{shard="1"}`,
		"plad_shard_segments_total",
		"plad_shard_wal_bytes_total",
		"plad_shard_wal_fsyncs_total",
		"plad_shard_barriers_total",
		"plad_shard_commits_total",
		`plad_transport_sessions_total{transport="tcp"} 1`,
		`plad_transport_sessions_total{transport="udp"} 1`,
		`plad_transport_segments_total{transport="tcp"}`,
		`plad_transport_segments_total{transport="udp"}`,
		"plad_udp_datagrams_total",
		"plad_udp_drops_total",
		"plad_udp_dups_total",
		"plad_udp_out_of_window_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The session's stream-end barrier committed and fsynced at least one
	// shard's partition.
	if !strings.Contains(body, "plad_shard_commits_total{shard=") {
		t.Errorf("/metrics has no per-shard commit counter:\n%s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz after Shutdown = %d %q, want 503 draining", code, body)
	}
}

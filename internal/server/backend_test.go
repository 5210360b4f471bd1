package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/server"
)

// startBackend builds a durable server over the given store backend and
// returns it with a live loopback address. tweak, when non-nil, adjusts
// the config before the server starts.
func startBackend(t *testing.T, dir string, backend server.StoreBackend, tweak func(*server.Config)) (*server.Server, string) {
	t.Helper()
	cfg := server.Config{
		Shards:       3,
		DataDir:      dir,
		StoreBackend: backend,
		Logf:         t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := server.New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

// rawQuery runs a fixed command script over one raw query session and
// returns the exact bytes the server answered with.
func rawQuery(t *testing.T, addr string, cmds []string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sb strings.Builder
	sb.WriteString("PLDQ")
	for _, c := range cmds {
		sb.WriteString(c)
		sb.WriteString("\n")
	}
	sb.WriteString("QUIT\n")
	if _, err := io.WriteString(conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStoreBackendQueryParity drives the identical workload — plain and
// lag-bounded sessions over real TCP, a compaction in the middle, a
// restart at the end — through a mem-backed and an mmap-backed server,
// and requires the raw bytes of every query response to be identical.
// This is the acceptance bar for the second backend: not "equivalent",
// byte-equal.
func TestStoreBackendQueryParity(t *testing.T) {
	runBackendQueryParity(t, nil, false)
}

// TestStoreBackendQueryParityCompacted is the same byte-equality bar
// with extent compaction forced aggressive (merge from two extents up)
// and a sweep after each ingest phase: the second sweep seals a second
// extent per series and merges the pile in the same pass, so the final
// queries are answered from merged bit-packed v2 extents — which must
// change nothing observable.
func TestStoreBackendQueryParityCompacted(t *testing.T) {
	runBackendQueryParity(t, func(cfg *server.Config) { cfg.ExtentCompactMin = 2 }, true)
}

func runBackendQueryParity(t *testing.T, tweak func(*server.Config), compacted bool) {
	type inst struct {
		s    *server.Server
		addr string
		dir  string
	}
	backends := []server.StoreBackend{server.BackendMem, server.BackendMmap}
	insts := make([]inst, len(backends))
	for i, b := range backends {
		dir := t.TempDir()
		s, addr := startBackend(t, dir, b, tweak)
		insts[i] = inst{s: s, addr: addr, dir: dir}
	}

	signals := walks(4, 1200)
	halves := func(k int) [][]core.Point {
		out := make([][]core.Point, len(signals))
		for i, sig := range signals {
			mid := len(sig) / 2
			if k == 0 {
				out[i] = sig[:mid]
			} else {
				out[i] = sig[mid:]
			}
		}
		return out
	}

	ingest := func(phase int) {
		for _, in := range insts {
			if res, err := round(in.addr, "walk", halves(phase), 0, 0); err != nil || res.Rejected != 0 || res.Dropped != 0 {
				t.Fatalf("%s phase %d: %+v, %v", in.dir, phase, res, err)
			}
			if res, err := round(in.addr, "lagged", halves(phase), 20, 100); err != nil || res.Rejected != 0 {
				t.Fatalf("%s lag phase %d: %+v, %v", in.dir, phase, res, err)
			}
		}
	}

	// A compaction sweep: the mem backend snapshots, the mmap backend
	// seals its extents (and, when the policy is aggressive, merges
	// them), and both keep serving.
	sweep := func() {
		for _, in := range insts {
			if err := in.s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0)
	sweep()
	ingest(1)
	if compacted {
		sweep()
		if got := insts[1].s.Metrics().MStore.Compactions; got == 0 {
			t.Fatal("aggressive policy committed no extent merges")
		}
	}

	var cmds []string
	cmds = append(cmds, "SERIES")
	for c := 0; c < 4; c++ {
		for _, prefix := range []string{"walk", "lagged"} {
			name := fmt.Sprintf("%s-%d", prefix, c)
			cmds = append(cmds,
				"SCAN "+name+" 0 100000",
				"AT "+name+" 17.5",
				"AT "+name+" 600",
				"MEAN "+name+" 0 3 900",
				"MIN "+name+" 0 3 900",
				"MAX "+name+" 0 3 900",
				"LAG "+name,
				"AGG min "+name+" 0 0 100000",
				"AGG max "+name+" 0 3 900",
				"AGG avg "+name+" 0 0 100000",
				"AGG sum "+name+" 0 0 100000",
				"AGG count "+name+" 0 0 100000",
				"QUANTILE "+name+" 0 0 100000 0 0.25 0.5 0.9 1",
			)
		}
	}
	// The fan-out pushdown path: joined over every series, byte-stable
	// whatever the backend or goroutine interleaving.
	cmds = append(cmds,
		"AGG min * 0 0 100000",
		"AGG sum * 0 0 100000",
		"QUANTILE * 0 0 100000 0.1 0.5 0.99",
	)

	compare := func(stage string) {
		want := rawQuery(t, insts[0].addr, cmds)
		got := rawQuery(t, insts[1].addr, cmds)
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			clip := func(s string) string {
				if hi > len(s) {
					return s[lo:]
				}
				return s[lo:hi]
			}
			t.Fatalf("%s: query responses differ at byte %d:\nmem:  …%q…\nmmap: …%q…", stage, i, clip(want), clip(got))
		}
		if !strings.Contains(want, "walk-0") {
			t.Fatalf("%s: comparison ran against an empty archive:\n%s", stage, want)
		}
	}
	compare("live")

	// Restart both from their directories alone and compare again: the
	// mmap server now answers from mapped extents plus a replayed tail.
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

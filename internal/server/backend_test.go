package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
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
// and requires the raw bytes of every query response to be identical,
// and identical to testdata/TestStoreBackendQueryParity_golden.txt.
// This is the acceptance bar for the second backend: not "equivalent",
// byte-equal, and equal to a fixed transcript so the two cannot drift
// together.
func TestStoreBackendQueryParity(t *testing.T) {
	runBackendQueryParity(t, nil, 2, false, nil)
}

// TestStoreBackendQueryParityCompacted is the same byte-equality bar
// with extent compaction forced aggressive (merge from two extents up)
// and a sweep after each ingest phase: the second sweep seals a second
// extent per series and merges the pile in the same pass, so the final
// queries are answered from merged bit-packed v2 extents — which must
// change nothing observable.
func TestStoreBackendQueryParityCompacted(t *testing.T) {
	runBackendQueryParity(t, func(cfg *server.Config) { server.SetExtentCompactMin(cfg, 2) }, 2, true,
		func(t *testing.T, m server.Metrics) {
			if m.MStore.Compactions == 0 {
				t.Fatal("aggressive policy committed no extent merges")
			}
		})
}

// TestStoreBackendQueryParityFragmented is the same bar over a sealed
// archive left fragmented: twenty ingest phases, a sweep after each and
// extent compaction off, so every mmap series holds at least sixteen
// extents and sealed lookups choose among many of them.
func TestStoreBackendQueryParityFragmented(t *testing.T) {
	runBackendQueryParity(t, func(cfg *server.Config) { server.SetExtentCompactMin(cfg, -1) }, 20, true,
		func(t *testing.T, m server.Metrics) {
			if m.MStore.Extents < 16*paritySeries {
				t.Fatalf("%d extents over %d series, want ≥ 16 each", m.MStore.Extents, paritySeries)
			}
		})
}

// paritySeries is how many series the parity workload ingests: four
// plain and four lag-bounded walks.
const paritySeries = 8

// runBackendQueryParity ingests the parity workload in phases (each a
// fresh session per series over the next slice of every signal) with a
// compaction sweep between phases, and after the last one too when
// sweepLast is set. It then replays the parity script on both backends,
// live and again after a restart, and requires both transcripts to
// equal the test's golden file. check, when non-nil, inspects the mmap
// server's metrics after the live queries. No reply field is masked:
// none depends on wall time.
func runBackendQueryParity(t *testing.T, tweak func(*server.Config), phases int, sweepLast bool, check func(*testing.T, server.Metrics)) {
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

	signals := walks(paritySeries/2, 1200)
	slice := func(k int) [][]core.Point {
		out := make([][]core.Point, len(signals))
		for i, sig := range signals {
			out[i] = sig[k*len(sig)/phases : (k+1)*len(sig)/phases]
		}
		return out
	}
	ingest := func(phase int) {
		for _, in := range insts {
			if res, err := round(in.addr, "walk", slice(phase), 0, 0); err != nil || res.Rejected != 0 || res.Dropped != 0 {
				t.Fatalf("%s phase %d: %+v, %v", in.dir, phase, res, err)
			}
			if res, err := round(in.addr, "lagged", slice(phase), 20, 100); err != nil || res.Rejected != 0 {
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
	for k := 0; k < phases; k++ {
		ingest(k)
		if k < phases-1 || sweepLast {
			sweep()
		}
	}

	var cmds []string
	cmds = append(cmds, "SERIES")
	for c := 0; c < paritySeries/2; c++ {
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
			cmds = append(cmds, boundaryProbes(t, insts[0].addr, name)...)
		}
	}
	// The fan-out pushdown path: joined over every series, byte-stable
	// whatever the backend or goroutine interleaving.
	cmds = append(cmds,
		"AGG min * 0 0 100000",
		"AGG sum * 0 0 100000",
		"QUANTILE * 0 0 100000 0.1 0.5 0.99",
	)

	// Each stage's transcript must be the same from both backends; the
	// golden file holds the live stage and then the restarted one.
	var golden [2]strings.Builder
	stage := func(name string) {
		for i, in := range insts {
			fmt.Fprintf(&golden[i], "# %s\n%s", name, transcript(t, in.addr, cmds))
		}
		if !strings.Contains(golden[0].String(), "walk-0") {
			t.Fatalf("%s: transcript ran against an empty archive:\n%s", name, golden[0].String())
		}
	}
	stage("live")
	if check != nil {
		check(t, insts[1].s.Metrics())
	}

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
	stage("restarted")

	checkGolden(t, t.Name()+"_golden.txt", golden[0].String())
	if d := firstDiff(golden[1].String(), golden[0].String()); d != "" {
		t.Fatalf("mmap backend against mem: %s", d)
	}
}

// boundaryProbes reads the series' segments with a first SCAN and
// returns probes placed where a range walk starts or stops: AT, SCAN,
// MEAN, MIN and MAX exactly on the first, a middle and the last
// segment's start and end and across segment joins, inside the first
// gap between two sessions' segments, before the first segment and
// after the last.
func boundaryProbes(t *testing.T, addr, name string) []string {
	t.Helper()
	type span struct{ t0, t1 string }
	var segs []span
	lines := strings.Split(transcript(t, addr, []string{"SCAN " + name + " -1e9 1e9"}), "\n")
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		segs = append(segs, span{f[0], f[1]})
	}
	if len(segs) < 3 {
		t.Fatalf("%s: %d segments, want ≥ 3 for boundary probes", name, len(segs))
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	str := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var out []string
	agg := func(lo, hi string) {
		out = append(out,
			"MEAN "+name+" 0 "+lo+" "+hi,
			"MIN "+name+" 0 "+lo+" "+hi,
			"MAX "+name+" 0 "+lo+" "+hi,
		)
	}
	rng := func(lo, hi string) {
		out = append(out, "SCAN "+name+" "+lo+" "+hi)
		agg(lo, hi)
	}
	n := len(segs)
	for _, i := range []int{0, n / 2, n - 1} {
		s := segs[i]
		out = append(out, "AT "+name+" "+s.t0, "AT "+name+" "+s.t1)
		rng(s.t0, s.t1)
		if i+1 < n {
			rng(s.t1, segs[i+1].t0) // across the join to the next segment
			rng(s.t0, segs[i+1].t1) // two whole segments, start to end
		}
	}
	agg(segs[1].t0, segs[n-2].t1) // most of the series; its SCAN would repeat the full one
	for i := 0; i+1 < n; i++ {
		if lo, hi := num(segs[i].t1), num(segs[i+1].t0); hi > lo {
			out = append(out, "AT "+name+" "+str((lo+hi)/2))
			rng(str(lo+(hi-lo)/4), str(hi-(hi-lo)/4))
			break
		}
	}
	first, last := num(segs[0].t0), num(segs[n-1].t1)
	out = append(out, "AT "+name+" "+str(first-1), "AT "+name+" "+str(last+1))
	rng(str(first-10), str(first-1))
	rng(str(last+1), str(last+10))
	return out
}

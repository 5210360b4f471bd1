package server_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/server"
)

// withTiers configures the canonical rollup ladder used across these
// tests: 4× and 16× the ingest precision (ingestEps).
func withTiers(cfg *server.Config) { cfg.RollupTiers = []int{4, 16} }

// checkContained asserts the tiered answer's band contains the
// base-precision answer — the differential guarantee bound-aware tier
// selection must keep whatever tier served the query.
func checkContained(t *testing.T, label string, base, tier server.AggValue) {
	t.Helper()
	tol := 1e-6 + 1e-9*math.Abs(base.Value)
	if base.Value < tier.Lo()-tol || base.Value > tier.Hi()+tol {
		t.Errorf("%s: base answer %v outside tier band [%v, %v] (bound %v)",
			label, base.Value, tier.Lo(), tier.Hi(), tier.Bound)
	}
}

// TestRollupTierDifferential is the acceptance test for bound-aware tier
// selection: randomized ranges and bounds over random-walk series, on
// both store backends, through a compaction sweep (which builds and
// extends the tiers) and a restart. For every trial the tiered AGG and
// QUANTILE answers' bands must contain the base-precision answers, and a
// coarse-bound query over the full range must read fewer segments than
// the base query it replaces.
func TestRollupTierDifferential(t *testing.T) {
	for _, backend := range []server.StoreBackend{server.BackendMem, server.BackendMmap} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s, addr := startBackend(t, dir, backend, withTiers)

			const points = 4000
			signals := walks(3, points)

			// Two ingest phases with a compaction sweep after each: the
			// first sweep builds the tiers, the second extends them
			// incrementally past the old high-water mark.
			for k := 0; k < 2; k++ {
				part := make([][]core.Point, len(signals))
				for i, sig := range signals {
					mid := len(sig) / 2
					if k == 0 {
						part[i] = sig[:mid]
					} else {
						part[i] = sig[mid:]
					}
				}
				if res, err := round(addr, "walk", part, 0, 0); err != nil || res.Rejected != 0 || res.Dropped != 0 {
					t.Fatalf("ingest phase %d: %+v, %v", k, res, err)
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if m := s.Metrics(); !m.RollupActive || m.RollupBuilds == 0 || m.RollupSegments == 0 {
				t.Fatalf("no rollup activity after sweeps: %+v", m)
			}

			trials := func(stage string) {
				q, err := server.DialQuery(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()

				// A coarse bound over the full range must be served from a
				// tier: far fewer contributing segments, honest wider bound.
				base, err := q.Agg("avg", "walk-0", 0, 0, points)
				if err != nil {
					t.Fatal(err)
				}
				coarse, err := q.AggBound("avg", "walk-0", 0, 0, points, 16*ingestEps)
				if err != nil {
					t.Fatal(err)
				}
				if coarse.Segments*2 > base.Segments {
					t.Errorf("%s: coarse-bound AGG read %d segments vs base %d, want < half",
						stage, coarse.Segments, base.Segments)
				}
				checkContained(t, stage+" avg full-range", base, coarse)

				rng := gen.NewRNG(99)
				ops := []string{"min", "max", "avg", "sum", "count"}
				bounds := []float64{0, ingestEps, 4 * ingestEps, 16 * ingestEps, 1000}
				for trial := 0; trial < 60; trial++ {
					series := fmt.Sprintf("walk-%d", trial%3)
					if trial%10 == 9 {
						series = "*"
					}
					t0 := rng.Float64() * points
					t1 := t0 + rng.Float64()*(points-t0)
					bound := bounds[trial%len(bounds)]
					op := ops[trial%len(ops)]
					label := fmt.Sprintf("%s trial %d: AGG %s %s [%v, %v] bound %v",
						stage, trial, op, series, t0, t1, bound)

					base, berr := q.Agg(op, series, 0, t0, t1)
					tier, terr := q.AggBound(op, series, 0, t0, t1, bound)
					if (berr == nil) != (terr == nil) {
						t.Fatalf("%s: base err %v vs tier err %v", label, berr, terr)
					}
					if berr != nil {
						continue // empty range: both paths agree there is no data
					}
					checkContained(t, label, base, tier)

					bq, berr := q.Quantiles(series, 0, t0, t1, 0, 0.25, 0.5, 0.9, 1)
					tq, terr := q.QuantilesBound(series, 0, t0, t1, bound, 0, 0.25, 0.5, 0.9, 1)
					if (berr == nil) != (terr == nil) {
						t.Fatalf("%s: quantile base err %v vs tier err %v", label, berr, terr)
					}
					if berr != nil {
						continue
					}
					for i := range bq {
						tol := 1e-6 + 1e-9*math.Abs(bq[i].Value)
						if bq[i].Value < tq[i].Lo-tol || bq[i].Value > tq[i].Hi+tol {
							t.Errorf("%s: q=%v base %v outside tier band [%v, %v]",
								label, bq[i].Q, bq[i].Value, tq[i].Lo, tq[i].Hi)
						}
					}
				}
			}
			trials("live")

			// Restart from the directory alone. The mmap backend reloads
			// its tiers from sealed extents; the mem backend rebuilds them
			// on the first sweep (snapshots never persist derived data).
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := s.Shutdown(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			s, addr = startBackend(t, dir, backend, withTiers)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				s.Shutdown(ctx)
				cancel()
			}()
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			trials("restarted")
		})
	}
}

// TestBoundWireProtocol pins the BOUND grammar down at the wire level:
// trailing optional keyword, case-insensitive, rejected with a parse
// error when malformed, and harmless (base fallback) on a server with no
// tiers configured.
func TestBoundWireProtocol(t *testing.T) {
	dir := t.TempDir()
	s, addr := startBackend(t, dir, server.BackendMem, withTiers)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}()
	signals := walks(1, 1000)
	if res, err := round(addr, "walk", signals, 0, 0); err != nil || res.Rejected != 0 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// The tier-served reply must differ from base only in its coverage
	// accounting and honest bound, and upper/lower case BOUND must parse
	// identically.
	upper := rawQuery(t, addr, []string{"AGG avg walk-0 0 0 1000 BOUND 8"})
	lower := rawQuery(t, addr, []string{"AGG avg walk-0 0 0 1000 bound 8"})
	if upper != lower {
		t.Errorf("BOUND keyword is case-sensitive:\n%q\n%q", upper, lower)
	}
	if strings.HasPrefix(upper, "ERR") {
		t.Fatalf("bound query failed: %q", upper)
	}

	for _, bad := range []string{
		"AGG avg walk-0 0 0 1000 BOUND nope",
		"AGG avg walk-0 0 0 1000 BOUND -1",
		"AGG avg walk-0 0 0 1000 BOUND NaN",
		"QUANTILE walk-0 0 0 1000 0.5 BOUND x",
		"SCAN walk-0 0 1000 BOUND x",
	} {
		if out := rawQuery(t, addr, []string{bad}); !strings.HasPrefix(out, "ERR") {
			t.Errorf("%q accepted: %q", bad, out)
		}
	}

	// A server with no ladder answers bound queries from base data.
	s2, addr2 := startBackend(t, t.TempDir(), server.BackendMem, nil)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s2.Shutdown(ctx)
		cancel()
	}()
	if res, err := round(addr2, "walk", signals, 0, 0); err != nil || res.Rejected != 0 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	with := rawQuery(t, addr2, []string{"AGG avg walk-0 0 0 1000 BOUND 50"})
	without := rawQuery(t, addr2, []string{"AGG avg walk-0 0 0 1000"})
	if with != without {
		t.Errorf("tierless server: bound answer differs from base:\n%q\n%q", with, without)
	}
}

// TestMetricNamesMatchScrape keeps MetricNames — the contract the
// operations documentation is checked against — honest: a fully-featured
// server (mmap backend, rollup ladder, TCP and UDP traffic, bound
// queries, a compaction sweep) is scraped and the distinct metric names
// encountered, in exposition order, must equal MetricNames exactly.
func TestMetricNamesMatchScrape(t *testing.T) {
	dir := t.TempDir()
	s, addr := startBackend(t, dir, server.BackendMmap, withTiers)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}()
	signals := walks(2, 600)
	if res, err := round(addr, "walk", signals, 0, 0); err != nil || res.Rejected != 0 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if out := rawQuery(t, addr, []string{"AGG avg walk-0 0 0 600 BOUND 8"}); strings.HasPrefix(out, "ERR") {
		t.Fatalf("bound query failed: %q", out)
	}

	web := httptest.NewServer(s.Handler())
	defer web.Close()
	resp, err := http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if !seen[name] {
			seen[name] = true
			got = append(got, name)
		}
	}
	want := server.MetricNames()
	if len(got) != len(want) {
		t.Fatalf("scrape has %d metric names, MetricNames lists %d:\nscrape: %v\nlist:   %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("metric %d: scrape %q, MetricNames %q", i, got[i], want[i])
		}
	}
}

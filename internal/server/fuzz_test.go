package server

import (
	"bufio"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/tsdb"
)

// FuzzQueryLine feeds arbitrary command lines to the PLDQ dispatcher
// over a small in-memory archive with a 4×/16× rollup ladder: two
// walks (one with its effective ε inflated by a shed session) and a
// two-dimensional walk. Whatever the line, the server must not panic
// and must answer exactly one OK or ERR reply, every listing must end
// with its "." line, every AGG bound must be finite and ≥ 0, and every
// QUANTILE row must satisfy lo ≤ value ≤ hi.
func FuzzQueryLine(f *testing.F) {
	db := tsdb.New()
	s, err := New(db, Config{Shards: 1, RollupTiers: []int{4, 16}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	sigs := map[string][]core.Point{
		"walk-0": gen.RandomWalk(gen.WalkConfig{N: 1000, P: 0.5, MaxDelta: 0.4, Seed: 1}),
		"walk-1": gen.RandomWalk(gen.WalkConfig{N: 1000, P: 0.5, MaxDelta: 0.4, Seed: 2}),
		"multi": gen.MultiWalk(gen.MultiWalkConfig{
			WalkConfig: gen.WalkConfig{N: 600, P: 0.5, MaxDelta: 0.4, Seed: 3}, Dims: 2, Correlation: 0.5}),
	}
	for name, sig := range sigs {
		fl, err := core.NewSwing([]float64{0.5, 0.5}[:len(sig[0].X)])
		if err != nil {
			f.Fatal(err)
		}
		if _, err := db.Ingest(name, fl, sig); err != nil {
			f.Fatal(err)
		}
		if _, err := db.Rollup(name); err != nil {
			f.Fatal(err)
		}
	}
	sr, err := db.Get("walk-1")
	if err != nil {
		f.Fatal(err)
	}
	sr.NoteEffectiveEpsilon([]float64{0.75})

	for _, line := range []string{
		"SERIES",
		"METRICS",
		"LAG walk-0",
		"AT walk-0 17.5",
		"AT multi 600",
		"MEAN walk-0 0 3 900",
		"MIN multi 1 3 900",
		"MAX walk-1 0 -inf inf",
		"AGG min walk-0 0 0 1000",
		"AGG max * 0 3 900 BOUND 8",
		"AGG avg walk-1 0 0 1000 BOUND 2",
		"AGG sum * 0 -inf inf BOUND 100",
		"AGG count walk-0 0 100.5 101 BOUND 8",
		"AGG avg multi 1 0 0",
		"QUANTILE walk-0 0 0 1000 0 0.5 1",
		"QUANTILE * 0 0 1000 0.25 0.9 BOUND 100",
		"QUANTILE walk-1 0 500 500.5 0.5 bound 2",
		"QUANTILE walk-0 5 0 1 0.5",
		"QUANTILE walk-0 -1 0 1 0.5",
		"SCAN walk-0 0 50",
		"SCAN multi 0 1000 BOUND 8",
		"AGG median walk-0 0 0 1",
		"AGG avg walk-0 0 0 1000 BOUND -1",
		"AT nope 1",
		"bogus",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		if len(args) == 0 || strings.EqualFold(args[0], "QUIT") {
			return // serveQuery handles these before dispatch
		}
		var sb strings.Builder
		w := bufio.NewWriter(&sb)
		cmd := strings.ToUpper(args[0])
		s.query(w, cmd, args[1:])
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("%q: reply %q does not end a line", line, out)
		}
		rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		replies := 0
		for _, r := range rows {
			if r == "OK" || strings.HasPrefix(r, "OK ") || strings.HasPrefix(r, "ERR ") {
				replies++
			}
		}
		if replies != 1 || !(strings.HasPrefix(rows[0], "OK") || strings.HasPrefix(rows[0], "ERR ")) {
			t.Fatalf("%q: want one OK/ERR reply first, got %q", line, out)
		}
		if rows[0] == "OK" && rows[len(rows)-1] != "." {
			t.Fatalf("%q: listing not terminated: %q", line, out)
		}
		if !strings.HasPrefix(rows[0], "OK") {
			return
		}
		num := func(field string) float64 {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatalf("%q: reply field %q: %v", line, field, err)
			}
			return v
		}
		switch cmd {
		case "AGG":
			fields := strings.Fields(rows[0])
			if len(fields) != 7 {
				t.Fatalf("%q: AGG reply %q", line, rows[0])
			}
			if b := num(fields[2]); math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
				t.Fatalf("%q: AGG bound %v", line, b)
			}
		case "QUANTILE":
			for _, r := range rows[1 : len(rows)-1] {
				fields := strings.Fields(r)
				if len(fields) != 5 {
					t.Fatalf("%q: QUANTILE row %q", line, r)
				}
				if v, lo, hi := num(fields[1]), num(fields[2]), num(fields[3]); !(lo <= v && v <= hi) {
					t.Fatalf("%q: QUANTILE row %q: value outside [lo, hi]", line, r)
				}
			}
		}
	})
}

package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"

	"github.com/pla-go/pla/internal/tsdb"
)

// The query protocol is line oriented: one command per line, one
// response. Single-valued responses are one line, "OK ..." or "ERR ...";
// listing responses are an "OK" line, the items, and a lone "." line.
// Floats travel as strconv 'g'/-1 so they round-trip exactly.
//
//	SERIES                       → items "name dim constant segments points"
//	AT <series> <t>              → "OK v0 v1 ..." | "ERR no data ..."
//	MEAN <series> <dim> <t0> <t1> → "OK value eps covered segments stale"
//	MIN / MAX (same shape)       → "OK value eps covered segments stale"
//	AGG <op> <series|*> <dim> <t0> <t1> [BOUND <b>] → "OK value bound count segments windows stale"
//	QUANTILE <series|*> <dim> <t0> <t1> <q>... [BOUND <b>] → items "q value lo hi stale"
//	SCAN <series> <t0> <t1> [BOUND <b>] → items "t0 t1 connected points provisional x0... x1..."
//	LAG <series>                 → "OK consumed final pending stale bound"
//	METRICS                      → items "shard segments points rejected 0 bytes qlen qcap lagsess lagpts lagupd" (the 0 is the reserved dropped column)
//	QUIT                         → "OK bye", connection closes
//
// The stale field of the aggregates is the series-level staleness at
// query time — how many consumed samples finalized coverage trails (see
// tsdb.Series.Staleness) — so a caller can tell a genuinely flat signal
// (stale ≈ 0 or bounded by the advertised m) from a lagging filter
// still sitting on an open interval. LAG breaks the same accounting
// out in full: samples consumed, finally covered, provisionally
// covered, the staleness, and the last advertised m_max_lag bound.
//
// AGG and QUANTILE are the segment-native pushdown commands
// (internal/query): they answer from precomputed per-window summaries
// plus closed-form edge segments — O(windows + edge segments), never
// O(points) — and accept "*" as the series to fold every series into
// one answer. AGG's op is min, max, avg, sum or count; the reply's
// bound field is the op's composed precision, windows is how many
// summary blocks covered the range, and count is the number of
// original samples. Each QUANTILE row's [lo, hi] band is guaranteed to
// contain the true quantile of the original samples. query.Bound
// composes both; this file only prints them.
//
// The optional trailing BOUND argument on SCAN, AGG and QUANTILE
// declares the caller's acceptable per-sample error bound. When the
// server keeps rollup tiers (Config.RollupTiers) it answers from the
// coarsest tier whose precision fits inside the bound and whose
// coverage spans the queried range, reading far fewer segments;
// otherwise — and always without BOUND, whose default is the base ε —
// the base series answers. Either way the reply's bound field (and
// each quantile's [lo, hi] band) is composed from the data that
// actually answered, so it stays honest: a tier-served AGG carries the
// tier's ±m·ε plus an explicit slack for coarse segments only partially
// inside the range. BOUND 0 forces the base tier.
//
// Reply widening: the staleness extension appended fields to the
// aggregate replies (4 → 5), METRICS rows (8 → 11) and SCAN rows (the
// provisional flag). The bundled QueryClient accepts both the old and
// the new shapes, but query clients predating the extension need
// upgrading alongside the server — the line protocol carries no
// version for the server to key reply shapes on. The ingest protocol
// is unaffected (its compatibility runs through the PLA1/PLA2 encode
// handshake).
func (s *Server) serveQuery(conn net.Conn, br *bufio.Reader) {
	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := strings.Fields(line)
		cmd := strings.ToUpper(args[0])
		if cmd == "QUIT" {
			fmt.Fprintln(w, "OK bye")
			w.Flush()
			return
		}
		s.query(w, cmd, args[1:])
		if w.Flush() != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		// A read error or an over-long command line (Scanner ErrTooLong)
		// — surface it, or the session just looks hung-then-closed.
		s.logf("server: %s: query session: %v", conn.RemoteAddr(), err)
	}
}

func (s *Server) query(w *bufio.Writer, cmd string, args []string) {
	switch cmd {
	case "SERIES":
		fmt.Fprintln(w, "OK")
		for _, name := range s.db.Names() {
			if validateName(name) != nil {
				// A series created locally by an embedder with a name the
				// line protocol cannot carry (whitespace/control chars):
				// unaddressable here, and emitting it raw would corrupt
				// the listing for every field-splitting client.
				continue
			}
			sr, err := s.db.Get(name)
			if err != nil {
				continue // dropped between Names and Get
			}
			st := sr.Stats()
			fmt.Fprintf(w, "%s %d %s %d %d\n", name, st.Dim, boolWord(sr.Constant()), st.Segments, st.Points)
		}
		fmt.Fprintln(w, ".")
	case "METRICS":
		fmt.Fprintln(w, "OK")
		for _, sm := range s.Metrics().Shards {
			// The fifth column (dropped) is reserved and always 0.
			fmt.Fprintf(w, "%d %d %d %d 0 %d %d %d %d %d %d\n",
				sm.Shard, sm.Segments, sm.Points, sm.Rejected, sm.Bytes, sm.QueueLen, sm.QueueCap,
				sm.LagSessions, sm.LagPoints, sm.LagUpdates)
		}
		fmt.Fprintln(w, ".")
	case "LAG":
		sr, _, err := s.queriedSeries(args, 0)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(w, "OK %d %d %d %d %d\n",
			sr.Consumed(), sr.FinalPoints(), sr.PendingPoints(), sr.Staleness(), sr.LagHint())
	case "AT":
		sr, rest, err := s.queriedSeries(args, 1)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		t, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			fmt.Fprintf(w, "ERR bad time %q\n", rest[0])
			return
		}
		x, ok := sr.At(t)
		if !ok {
			fmt.Fprintf(w, "ERR no data at %v\n", t)
			return
		}
		fmt.Fprintf(w, "OK%s\n", floatsWord(x))
	case "MEAN", "MIN", "MAX":
		sr, rest, err := s.queriedSeries(args, 3)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		dim, err := strconv.Atoi(rest[0])
		if err != nil {
			fmt.Fprintf(w, "ERR bad dim %q\n", rest[0])
			return
		}
		t0, err0 := strconv.ParseFloat(rest[1], 64)
		t1, err1 := strconv.ParseFloat(rest[2], 64)
		if err0 != nil || err1 != nil {
			fmt.Fprintf(w, "ERR bad range %q %q\n", rest[1], rest[2])
			return
		}
		var res tsdb.AggregateResult
		switch cmd {
		case "MEAN":
			res, err = sr.Mean(dim, t0, t1)
		case "MIN":
			res, err = sr.Min(dim, t0, t1)
		default:
			res, err = sr.Max(dim, t0, t1)
		}
		if err != nil {
			// The "no data" prefix is part of the protocol: clients map
			// it to ErrNoData, distinct from other rejections.
			if errors.Is(err, tsdb.ErrNoData) {
				fmt.Fprintf(w, "ERR no data in [%v, %v]\n", t0, t1)
			} else {
				fmt.Fprintf(w, "ERR %v\n", err)
			}
			return
		}
		fmt.Fprintf(w, "OK %s %s %s %d %d\n",
			floatWord(res.Value), floatWord(res.Epsilon), floatWord(res.Covered), res.Segments, sr.Staleness())
	case "AGG":
		args, bound, err := stripBound(args)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if len(args) != 5 {
			fmt.Fprintf(w, "ERR want AGG op series dim t0 t1 [BOUND b], got %d args\n", len(args))
			return
		}
		op := strings.ToLower(args[0])
		if !validAggOp(op) {
			fmt.Fprintf(w, "ERR unknown aggregate %q (want min, max, avg, sum or count)\n", args[0])
			return
		}
		dim, err := strconv.Atoi(args[2])
		if err != nil {
			fmt.Fprintf(w, "ERR bad dim %q\n", args[2])
			return
		}
		t0, err0 := strconv.ParseFloat(args[3], 64)
		t1, err1 := strconv.ParseFloat(args[4], 64)
		if err0 != nil || err1 != nil {
			fmt.Fprintf(w, "ERR bad range %q %q\n", args[3], args[4])
			return
		}
		res, err := s.engine.AggregateBound(args[1], dim, t0, t1, bound)
		if err != nil {
			if errors.Is(err, tsdb.ErrNoData) {
				fmt.Fprintf(w, "ERR no data in [%v, %v]\n", t0, t1)
			} else {
				fmt.Fprintf(w, "ERR %v\n", err)
			}
			return
		}
		val, bound := res.Bound.Agg(op, res.Agg)
		fmt.Fprintf(w, "OK %s %s %d %d %d %d\n",
			floatWord(val), floatWord(bound), int64(res.Agg.Count), res.Agg.Segments,
			res.Stats.CachedWindows+res.Stats.BuiltWindows, res.Stale)
	case "QUANTILE":
		args, bound, err := stripBound(args)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if len(args) < 5 {
			fmt.Fprintf(w, "ERR want QUANTILE series dim t0 t1 q... [BOUND b], got %d args\n", len(args))
			return
		}
		dim, err := strconv.Atoi(args[1])
		if err != nil {
			fmt.Fprintf(w, "ERR bad dim %q\n", args[1])
			return
		}
		t0, err0 := strconv.ParseFloat(args[2], 64)
		t1, err1 := strconv.ParseFloat(args[3], 64)
		if err0 != nil || err1 != nil {
			fmt.Fprintf(w, "ERR bad range %q %q\n", args[2], args[3])
			return
		}
		qs := make([]float64, len(args[4:]))
		for i, a := range args[4:] {
			if qs[i], err = strconv.ParseFloat(a, 64); err != nil {
				fmt.Fprintf(w, "ERR bad quantile %q\n", a)
				return
			}
		}
		res, err := s.engine.QuantilesBound(args[0], dim, t0, t1, qs, bound)
		if err != nil {
			if errors.Is(err, tsdb.ErrNoData) {
				fmt.Fprintf(w, "ERR no data in [%v, %v]\n", t0, t1)
			} else {
				fmt.Fprintf(w, "ERR %v\n", err)
			}
			return
		}
		fmt.Fprintln(w, "OK")
		for _, ans := range res.Quantiles {
			fmt.Fprintf(w, "%s %s %s %s %d\n",
				floatWord(ans.Q), floatWord(ans.Value), floatWord(ans.Lo), floatWord(ans.Hi), res.Stale)
		}
		fmt.Fprintln(w, ".")
	case "SCAN":
		args, bound, err := stripBound(args)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		sr, rest, err := s.queriedSeries(args, 2)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		t0, err0 := strconv.ParseFloat(rest[0], 64)
		t1, err1 := strconv.ParseFloat(rest[1], 64)
		if err0 != nil || err1 != nil {
			fmt.Fprintf(w, "ERR bad range %q %q\n", rest[0], rest[1])
			return
		}
		// A scan has no single queried dimension, so a tier must satisfy
		// the bound in every one to stand in for the base.
		sr, _ = s.engine.TierFor(sr, -1, t0, t1, bound)
		segs, err := sr.Scan(t0, t1)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
		for _, seg := range segs {
			fmt.Fprintf(w, "%s %s %s %d %s%s%s\n",
				floatWord(seg.T0), floatWord(seg.T1), boolWord(seg.Connected), seg.Points,
				boolWord(seg.Provisional), floatsWord(seg.X0), floatsWord(seg.X1))
		}
		fmt.Fprintln(w, ".")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
}

// queriedSeries resolves args[0] as a series name and checks that exactly
// want further arguments follow.
func (s *Server) queriedSeries(args []string, want int) (*tsdb.Series, []string, error) {
	if len(args) != want+1 {
		return nil, nil, fmt.Errorf("want series + %d args, got %d", want, len(args))
	}
	sr, err := s.db.Get(args[0])
	if err != nil {
		return nil, nil, err
	}
	return sr, args[1:], nil
}

// validAggOp reports whether op names an AGG statistic.
func validAggOp(op string) bool {
	switch op {
	case "min", "max", "avg", "sum", "count":
		return true
	}
	return false
}

// stripBound splits an optional trailing "BOUND <b>" pair off a query's
// argument list. Absent, the bound is 0 — base precision.
func stripBound(args []string) (rest []string, bound float64, err error) {
	n := len(args)
	if n < 2 || !strings.EqualFold(args[n-2], "BOUND") {
		return args, 0, nil
	}
	bound, err = strconv.ParseFloat(args[n-1], 64)
	if err != nil || math.IsNaN(bound) || bound < 0 {
		return nil, 0, fmt.Errorf("bad bound %q", args[n-1])
	}
	return args[:n-2], bound, nil
}

func floatWord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floatsWord(x []float64) string {
	var b strings.Builder
	for _, v := range x {
		b.WriteByte(' ')
		b.WriteString(floatWord(v))
	}
	return b.String()
}

func boolWord(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

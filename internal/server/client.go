package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/transport"
)

// Client is the sensor side of an ingest session: it runs the filter
// locally (only ε-bounded segments cross the wire) and streams finalized
// segments to the server. Like the transport.Transmitter it wraps, a
// Client is owned by one goroutine.
type Client struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	tx   *transport.Transmitter
	// cw counts bytes below the framing layer — actual wire traffic,
	// unlike the transmitter's own counter which sits above the
	// frame-length prefixes and the handshake.
	cw     *encode.CountingWriter
	closed bool
}

// Dial connects to a plad server and opens an ingest session writing
// series name through filter f.
func Dial(addr, name string, f core.Filter) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, name, f)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// FilterSpec names a filter configuration, so callers (flags, config
// files, the load generator) can construct lag-bounded swing/slide
// filters without importing the filter constructors.
type FilterSpec struct {
	// Kind selects the filter family: "swing" (default when empty),
	// "slide" or "cache".
	Kind string
	// Epsilon is the per-dimension precision contract.
	Epsilon []float64
	// MaxLag bounds the receiver lag to m points (Sections 3.3, 4.3);
	// 0 leaves the filter unbounded. Sessions opened with a bound
	// advertise it in the handshake and ship provisional receiver
	// updates, so the server's archive never trails the sensor by m or
	// more points.
	MaxLag int
}

// NewFilter constructs the described filter.
func (fs FilterSpec) NewFilter() (core.Filter, error) {
	kind := fs.Kind
	if kind == "" {
		kind = "swing"
	}
	switch kind {
	case "swing":
		var opts []core.SwingOption
		if fs.MaxLag > 0 {
			opts = append(opts, core.WithSwingMaxLag(fs.MaxLag))
		}
		return core.NewSwing(fs.Epsilon, opts...)
	case "slide":
		var opts []core.SlideOption
		if fs.MaxLag > 0 {
			opts = append(opts, core.WithSlideMaxLag(fs.MaxLag))
		}
		return core.NewSlide(fs.Epsilon, opts...)
	case "cache":
		if fs.MaxLag > 0 {
			return nil, fmt.Errorf("%w: the cache filter has no max-lag variant", core.ErrMaxLag)
		}
		return core.NewCache(fs.Epsilon)
	default:
		return nil, fmt.Errorf("unknown filter kind %q (want swing, slide or cache)", fs.Kind)
	}
}

// DialSpec connects to a plad server and opens an ingest session through
// a filter built from spec — the by-name construction path for
// lag-bounded clients.
func DialSpec(addr, name string, spec FilterSpec) (*Client, error) {
	f, err := spec.NewFilter()
	if err != nil {
		return nil, err
	}
	return Dial(addr, name, f)
}

// NewClient opens an ingest session over an existing connection (a
// net.Pipe end in tests, a TLS wrapper in deployments). It blocks until
// the server accepts or rejects the handshake.
func NewClient(conn io.ReadWriteCloser, name string, f core.Filter) (*Client, error) {
	cw := encode.NewCountingWriter(conn)
	if err := writeHandshake(cw, magicIngest, name); err != nil {
		return nil, err
	}
	tx, err := transport.NewTransmitter(encode.NewFrameWriter(cw), f)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	if err := readStatus(br); err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: br, tx: tx, cw: cw}, nil
}

// Send consumes one sample; finalized segments ship immediately.
func (c *Client) Send(p core.Point) error {
	if c.closed {
		return ErrClosed
	}
	return c.tx.Send(p)
}

// SendBatch consumes a batch of samples with one wire flush.
func (c *Client) SendBatch(ps []core.Point) error {
	if c.closed {
		return ErrClosed
	}
	return c.tx.SendBatch(ps)
}

// Flush ships a provisional receiver update covering every sample the
// filter has consumed that no shipped segment covers yet — the
// heartbeat that keeps the server's archive fresh when a lag-bounded
// stream goes quiet mid-interval (a sensor with nothing new to say
// would otherwise leave its last announcement's window open
// indefinitely). It is a no-op on sessions without a max-lag bound.
func (c *Client) Flush() error {
	if c.closed {
		return ErrClosed
	}
	return c.tx.FlushPending()
}

// Stats exposes the local filter's counters.
func (c *Client) Stats() core.Stats { return c.tx.Stats() }

// BytesSent returns the bytes put on the wire so far, handshake and
// frame prefixes included — the session's actual traffic, matching what
// the server's shard metrics attribute to it.
func (c *Client) BytesSent() int64 { return c.cw.BytesWritten() }

// Close finishes the filter, ships the final segments and the stream
// terminator, and blocks for the server's acknowledgement — when Close
// returns a nil error, every finalized segment the ack counts as applied
// is queryable in the archive.
func (c *Client) Close() (Ack, error) {
	if c.closed {
		return Ack{}, ErrClosed
	}
	c.closed = true
	defer c.conn.Close()
	if err := c.tx.Close(); err != nil {
		return Ack{}, err
	}
	return readAck(c.br)
}

// Aggregate is a queried statistic with its deterministic precision band:
// the corresponding statistic of the original samples is guaranteed to be
// ≥ Lo() for MIN, ≤ Hi() for MAX, and within the band for per-sample
// reconstructions (see tsdb.AggregateResult for the fine print on MEAN).
type Aggregate struct {
	Value    float64
	Epsilon  float64
	Covered  float64
	Segments int
	// Stale is the series' staleness at query time: how many samples the
	// sender has consumed that finalized coverage trails (lag-bounded
	// sessions keep it ≤ their advertised m). It distinguishes a flat
	// signal — whose value genuinely has not moved — from a lagging
	// filter still sitting on an open interval. Older servers do not
	// report it; it is then 0.
	Stale int64
}

// Lo returns Value − Epsilon, the band's lower edge.
func (a Aggregate) Lo() float64 { return a.Value - a.Epsilon }

// Hi returns Value + Epsilon, the band's upper edge.
func (a Aggregate) Hi() float64 { return a.Value + a.Epsilon }

// SeriesInfo is one row of a SERIES listing.
type SeriesInfo struct {
	Name     string
	Dim      int
	Constant bool
	Segments int
	Points   int
}

// QueryClient speaks the line-oriented query protocol. It is owned by one
// goroutine; open several for concurrent queries.
type QueryClient struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
}

// DialQuery connects to a plad server and opens a query session.
func DialQuery(addr string) (*QueryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	q, err := NewQueryClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return q, nil
}

// NewQueryClient opens a query session over an existing connection.
func NewQueryClient(conn io.ReadWriteCloser) (*QueryClient, error) {
	if err := writeHandshake(conn, magicQuery, ""); err != nil {
		return nil, err
	}
	return &QueryClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// Close ends the session.
func (q *QueryClient) Close() error {
	fmt.Fprintln(q.bw, "QUIT")
	q.bw.Flush()
	return q.conn.Close()
}

// do sends one command and returns the fields of a single-line "OK"
// response. A "no data" error maps to ErrNoData.
func (q *QueryClient) do(cmd string) ([]string, error) {
	if _, err := fmt.Fprintln(q.bw, cmd); err != nil {
		return nil, err
	}
	if err := q.bw.Flush(); err != nil {
		return nil, err
	}
	line, err := q.br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "OK" || strings.HasPrefix(line, "OK "):
		return strings.Fields(strings.TrimPrefix(line, "OK")), nil
	case strings.HasPrefix(line, "ERR no data"):
		return nil, fmt.Errorf("%w%s", ErrNoData, strings.TrimPrefix(line, "ERR no data"))
	case strings.HasPrefix(line, "ERR "):
		return nil, fmt.Errorf("%w: %s", ErrRejected, strings.TrimPrefix(line, "ERR "))
	default:
		return nil, fmt.Errorf("%w: unexpected reply %q", ErrProtocol, line)
	}
}

// doMulti sends one command and returns the item lines of a listing
// response (between "OK" and ".").
func (q *QueryClient) doMulti(cmd string) ([]string, error) {
	if _, err := q.do(cmd); err != nil {
		return nil, err
	}
	var items []string
	for {
		line, err := q.br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("%w: truncated listing: %v", ErrProtocol, err)
		}
		line = strings.TrimSpace(line)
		if line == "." {
			return items, nil
		}
		items = append(items, line)
	}
}

// At evaluates a series' reconstruction at time t. Every original sample
// at t is within the series' ε of the returned vector, per dimension.
func (q *QueryClient) At(series string, t float64) ([]float64, error) {
	if err := validateName(series); err != nil {
		return nil, err
	}
	fields, err := q.do(fmt.Sprintf("AT %s %s", series, floatWord(t)))
	if err != nil {
		return nil, err
	}
	return parseFloats(fields)
}

// Mean returns the time-weighted mean of the reconstruction.
func (q *QueryClient) Mean(series string, dim int, t0, t1 float64) (Aggregate, error) {
	return q.aggregate("MEAN", series, dim, t0, t1)
}

// Min returns the minimum of the reconstruction; any original sample in
// range is ≥ the result's Lo().
func (q *QueryClient) Min(series string, dim int, t0, t1 float64) (Aggregate, error) {
	return q.aggregate("MIN", series, dim, t0, t1)
}

// Max returns the maximum of the reconstruction; any original sample in
// range is ≤ the result's Hi().
func (q *QueryClient) Max(series string, dim int, t0, t1 float64) (Aggregate, error) {
	return q.aggregate("MAX", series, dim, t0, t1)
}

func (q *QueryClient) aggregate(op, series string, dim int, t0, t1 float64) (Aggregate, error) {
	// Names travel unescaped in the line protocol; an embedded newline
	// would inject a second command and desynchronise every later reply.
	if err := validateName(series); err != nil {
		return Aggregate{}, err
	}
	fields, err := q.do(fmt.Sprintf("%s %s %d %s %s", op, series, dim, floatWord(t0), floatWord(t1)))
	if err != nil {
		return Aggregate{}, err
	}
	// 4 fields from servers predating the staleness extension, 5 since.
	if len(fields) != 4 && len(fields) != 5 {
		return Aggregate{}, fmt.Errorf("%w: %s reply %q", ErrProtocol, op, fields)
	}
	vals, err := parseFloats(fields[:3])
	if err != nil {
		return Aggregate{}, err
	}
	segs, err := strconv.Atoi(fields[3])
	if err != nil {
		return Aggregate{}, fmt.Errorf("%w: %s reply %q", ErrProtocol, op, fields)
	}
	agg := Aggregate{Value: vals[0], Epsilon: vals[1], Covered: vals[2], Segments: segs}
	if len(fields) == 5 {
		if agg.Stale, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
			return Aggregate{}, fmt.Errorf("%w: %s reply %q", ErrProtocol, op, fields)
		}
	}
	return agg, nil
}

// AggValue is one AGG answer: a segment-native pushdown statistic with
// its composed precision bound (±Bound contains the statistic of the
// original samples; see query.Bound for its terms) and the coverage
// accounting that proves the pushdown — Windows summary blocks answered
// wholesale, Segments contributing segments, never a per-point fold.
type AggValue struct {
	Value float64
	Bound float64
	// Count is the number of original samples in range.
	Count int64
	// Segments is the number of contributing segments.
	Segments int
	// Windows is how many precomputed summary blocks covered the range.
	Windows int
	// Stale is the worst contributing series' staleness at query time.
	Stale int64
}

// Lo returns Value − Bound, the band's lower edge.
func (a AggValue) Lo() float64 { return a.Value - a.Bound }

// Hi returns Value + Bound, the band's upper edge.
func (a AggValue) Hi() float64 { return a.Value + a.Bound }

// Agg answers a pushdown range aggregate — op is "min", "max", "avg",
// "sum" or "count" — for one series, or joined across every series when
// series is "*".
func (q *QueryClient) Agg(op, series string, dim int, t0, t1 float64) (AggValue, error) {
	return q.AggBound(op, series, dim, t0, t1, 0)
}

// AggBound is Agg with an acceptable error bound: a server keeping
// rollup tiers may answer from the coarsest tier whose precision fits
// inside bound, reading far fewer segments. The reply's Bound field
// stays honest either way — it reflects the data that actually
// answered. bound ≤ 0 requests base precision.
func (q *QueryClient) AggBound(op, series string, dim int, t0, t1, bound float64) (AggValue, error) {
	if series != "*" {
		if err := validateName(series); err != nil {
			return AggValue{}, err
		}
	}
	fields, err := q.do(fmt.Sprintf("AGG %s %s %d %s %s%s",
		op, series, dim, floatWord(t0), floatWord(t1), boundWord(bound)))
	if err != nil {
		return AggValue{}, err
	}
	if len(fields) != 6 {
		return AggValue{}, fmt.Errorf("%w: AGG reply %q", ErrProtocol, fields)
	}
	vals, err := parseFloats(fields[:2])
	if err != nil {
		return AggValue{}, err
	}
	var n [4]int64
	for i, f := range fields[2:] {
		if n[i], err = strconv.ParseInt(f, 10, 64); err != nil {
			return AggValue{}, fmt.Errorf("%w: AGG reply %q", ErrProtocol, fields)
		}
	}
	return AggValue{
		Value: vals[0], Bound: vals[1], Count: n[0],
		Segments: int(n[1]), Windows: int(n[2]), Stale: n[3],
	}, nil
}

// QuantileValue is one QUANTILE answer row: the q-quantile of the
// reconstruction with a [Lo, Hi] band guaranteed to contain the true
// quantile of the original samples (rank uncertainty, sketch slack and
// the ingest filter's ±ε composed).
type QuantileValue struct {
	Q, Value, Lo, Hi float64
	Stale            int64
}

// Quantiles answers the given quantiles (each in [0, 1]) for one
// series, or over the union of every series' samples when series is
// "*".
func (q *QueryClient) Quantiles(series string, dim int, t0, t1 float64, qs ...float64) ([]QuantileValue, error) {
	return q.QuantilesBound(series, dim, t0, t1, 0, qs...)
}

// QuantilesBound is Quantiles with an acceptable error bound, with the
// same tier semantics as AggBound; each answer's [Lo, Hi] band is
// composed from the data that actually answered.
func (q *QueryClient) QuantilesBound(series string, dim int, t0, t1, bound float64, qs ...float64) ([]QuantileValue, error) {
	if series != "*" {
		if err := validateName(series); err != nil {
			return nil, err
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%w: no quantiles requested", ErrProtocol)
	}
	items, err := q.doMulti(fmt.Sprintf("QUANTILE %s %d %s %s%s%s",
		series, dim, floatWord(t0), floatWord(t1), floatsWord(qs), boundWord(bound)))
	if err != nil {
		return nil, err
	}
	out := make([]QuantileValue, 0, len(items))
	for _, it := range items {
		f := strings.Fields(it)
		if len(f) != 5 {
			return nil, fmt.Errorf("%w: quantile row %q", ErrProtocol, it)
		}
		vals, err := parseFloats(f[:4])
		if err != nil {
			return nil, err
		}
		stale, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: quantile row %q", ErrProtocol, it)
		}
		out = append(out, QuantileValue{Q: vals[0], Value: vals[1], Lo: vals[2], Hi: vals[3], Stale: stale})
	}
	return out, nil
}

// LagInfo is a series' freshness accounting as reported by LAG.
type LagInfo struct {
	// Consumed is the high-water of samples the series has represented,
	// provisional coverage included — how far the sender is known to
	// have gotten.
	Consumed int64
	// Covered is the samples finalized segments represent.
	Covered int64
	// Pending is the samples covered only by provisional (max-lag)
	// announcements right now.
	Pending int64
	// Stale is Consumed − Covered, the window a lag-bounded session
	// keeps ≤ its advertised m.
	Stale int64
	// Bound is the last m_max_lag bound an ingest session advertised for
	// the series (0 = none).
	Bound int64
}

// Lag returns the series' freshness accounting, distinguishing a flat
// signal from a lagging filter.
func (q *QueryClient) Lag(series string) (LagInfo, error) {
	if err := validateName(series); err != nil {
		return LagInfo{}, err
	}
	fields, err := q.do("LAG " + series)
	if err != nil {
		return LagInfo{}, err
	}
	if len(fields) != 5 {
		return LagInfo{}, fmt.Errorf("%w: LAG reply %q", ErrProtocol, fields)
	}
	var n [5]int64
	for i, f := range fields {
		if n[i], err = strconv.ParseInt(f, 10, 64); err != nil {
			return LagInfo{}, fmt.Errorf("%w: LAG reply %q", ErrProtocol, fields)
		}
	}
	return LagInfo{Consumed: n[0], Covered: n[1], Pending: n[2], Stale: n[3], Bound: n[4]}, nil
}

// Series lists the archive's series.
func (q *QueryClient) Series() ([]SeriesInfo, error) {
	items, err := q.doMulti("SERIES")
	if err != nil {
		return nil, err
	}
	out := make([]SeriesInfo, 0, len(items))
	for _, it := range items {
		f := strings.Fields(it)
		if len(f) != 5 {
			return nil, fmt.Errorf("%w: series row %q", ErrProtocol, it)
		}
		dim, e1 := strconv.Atoi(f[1])
		segs, e2 := strconv.Atoi(f[3])
		pts, e3 := strconv.Atoi(f[4])
		if e1 != nil || e2 != nil || e3 != nil {
			return nil, fmt.Errorf("%w: series row %q", ErrProtocol, it)
		}
		out = append(out, SeriesInfo{Name: f[0], Dim: dim, Constant: f[2] == "1", Segments: segs, Points: pts})
	}
	return out, nil
}

// Scan returns the stored segments overlapping [t0, t1].
func (q *QueryClient) Scan(series string, t0, t1 float64) ([]core.Segment, error) {
	return q.ScanBound(series, t0, t1, 0)
}

// ScanBound is Scan with an acceptable error bound: a server keeping
// rollup tiers may return the coarser tier's segments — far fewer of
// them — when the tier's precision fits inside bound in every
// dimension. bound ≤ 0 requests the base segments.
func (q *QueryClient) ScanBound(series string, t0, t1, bound float64) ([]core.Segment, error) {
	if err := validateName(series); err != nil {
		return nil, err
	}
	items, err := q.doMulti(fmt.Sprintf("SCAN %s %s %s%s",
		series, floatWord(t0), floatWord(t1), boundWord(bound)))
	if err != nil {
		return nil, err
	}
	out := make([]core.Segment, 0, len(items))
	for _, it := range items {
		f := strings.Fields(it)
		// t0 t1 connected points provisional x0... x1... — the vector
		// split is implied by the row length. Rows from servers predating
		// the provisional flag lack that field; the two shapes differ in
		// parity (4+2d vs 5+2d fields), so the row length disambiguates.
		provisional := false
		vecs := 4
		switch {
		case len(f) >= 7 && (len(f)-5)%2 == 0:
			provisional = f[4] == "1"
			vecs = 5
		case len(f) >= 6 && (len(f)-4)%2 == 0:
		default:
			return nil, fmt.Errorf("%w: scan row %q", ErrProtocol, it)
		}
		times, err := parseFloats(f[:2])
		if err != nil {
			return nil, err
		}
		pts, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("%w: scan row %q", ErrProtocol, it)
		}
		d := (len(f) - vecs) / 2
		x0, err := parseFloats(f[vecs : vecs+d])
		if err != nil {
			return nil, err
		}
		x1, err := parseFloats(f[vecs+d:])
		if err != nil {
			return nil, err
		}
		out = append(out, core.Segment{
			T0: times[0], T1: times[1], X0: x0, X1: x1,
			Connected: f[2] == "1", Points: pts, Provisional: provisional,
		})
	}
	return out, nil
}

// Metrics returns the server's per-shard counters.
func (q *QueryClient) Metrics() ([]ShardMetrics, error) {
	items, err := q.doMulti("METRICS")
	if err != nil {
		return nil, err
	}
	out := make([]ShardMetrics, 0, len(items))
	for _, it := range items {
		f := strings.Fields(it)
		// 8 fields from servers predating the lag gauges, 11 since.
		if len(f) != 8 && len(f) != 11 {
			return nil, fmt.Errorf("%w: metrics row %q", ErrProtocol, it)
		}
		n := make([]int64, len(f))
		for i, s := range f {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: metrics row %q", ErrProtocol, it)
			}
			n[i] = v
		}
		// n[4] is the reserved dropped column.
		sm := ShardMetrics{
			Shard: int(n[0]), Segments: n[1], Points: n[2], Rejected: n[3],
			Bytes: n[5], QueueLen: int(n[6]), QueueCap: int(n[7]),
		}
		if len(n) == 11 {
			sm.LagSessions, sm.LagPoints, sm.LagUpdates = n[8], n[9], n[10]
		}
		out = append(out, sm)
	}
	return out, nil
}

// boundWord renders the optional trailing BOUND argument (empty for
// bound ≤ 0, the base-precision default).
func boundWord(bound float64) string {
	if bound <= 0 {
		return ""
	}
	return " BOUND " + floatWord(bound)
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	for i, s := range fields {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad float %q", ErrProtocol, s)
		}
		out[i] = v
	}
	return out, nil
}

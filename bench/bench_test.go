package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/core"
)

func TestQuantileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // 1 … 100, added out of order
		l.add(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got, _ := l.q(tc.q); got != tc.want {
			t.Errorf("q(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, // 10 of 1000 lie beyond p99
		{199, 0.95, false}, {200, 0.95, true},
		{19, 0.5, false}, {20, 0.5, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	var l latencies
	for i := 0; i < 500; i++ {
		l.add(float64(i))
	}
	if _, ok := l.q(0.99); ok {
		t.Error("500 samples claim to support p99")
	}
	if _, ok := l.q(0.5); !ok {
		t.Error("500 samples do not support the median")
	}
}

// The acceptance rule is stated in Python's statistics.quantiles(values,
// n=4); these are its results.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1…10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1 2 4 8 16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has a spread")
	}
}

// fakeClock is a pacer's clock that only moves when slept on or pushed.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPacerDueTimesAndLateness(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	p := pacer{start: clock.now, every: 100 * time.Millisecond, now: clock.Now, sleep: clock.Sleep}

	// On time: wait sleeps up to the due time and reports no lateness.
	if late := p.wait(0); late != 0 {
		t.Errorf("send 0 late by %v", late)
	}
	if late := p.wait(1); late != 0 || clock.now != p.due(1) {
		t.Errorf("send 1: late %v, clock %v, due %v", late, clock.now, p.due(1))
	}
	// Send 1 overruns by 250 ms: sends 2 and 3 were due meanwhile and
	// start late by the backlog, without sleeping; latency counted from
	// due(i) charges them the stall.
	clock.Sleep(350 * time.Millisecond)
	if late := p.wait(2); late != 250*time.Millisecond {
		t.Errorf("send 2 late by %v, want 250ms", late)
	}
	if late := p.wait(3); late != 150*time.Millisecond {
		t.Errorf("send 3 late by %v, want 150ms", late)
	}
	if got := clock.now.Sub(p.due(3)); got != 150*time.Millisecond {
		t.Errorf("latency charged to send 3 before it even starts = %v, want 150ms", got)
	}
	// The schedule does not drift: send 10 is due at start + 10·every
	// whatever happened before, and the generator catches up to it.
	if late := p.wait(10); late != 0 || clock.now != p.start.Add(time.Second) {
		t.Errorf("send 10: late %v, clock at +%v", late, clock.now.Sub(p.start))
	}
}

const cannedMetrics = `# HELP plad_shard_segments_total Segments applied.
# TYPE plad_shard_segments_total counter
plad_shard_segments_total{shard="0"} 1200
plad_shard_segments_total{shard="1"} 34
plad_shard_queue_depth{shard="0"} 7
plad_shard_queue_depth{shard="1"} 1024

plad_sessions_total 3
plad_ingest_segments_total{transport="tcp",kind="a b"} 1.5e+06
`

func TestParseProm(t *testing.T) {
	page, err := parseProm(strings.NewReader(cannedMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 6 {
		t.Fatalf("%d samples, want 6", len(page))
	}
	if got := page.sum("plad_shard_segments_total"); got != 1234 {
		t.Errorf("sum over shards = %v, want 1234", got)
	}
	if got := page.max("plad_shard_queue_depth"); got != 1024 {
		t.Errorf("max over shards = %v, want 1024", got)
	}
	if got := page.sum("plad_sessions_total"); got != 3 {
		t.Errorf("unlabelled = %v, want 3", got)
	}
	if got := page.sum("plad_ingest_segments_total"); got != 1.5e6 {
		t.Errorf("label value with a space = %v, want 1.5e6", got)
	}
	if page[5].labels != `transport="tcp",kind="a b"` {
		t.Errorf("labels = %q", page[5].labels)
	}
	if got := page.sum("plad_absent_total"); got != 0 {
		t.Errorf("absent metric sums to %v", got)
	}
	after, _ := parseProm(strings.NewReader("plad_shard_segments_total{shard=\"0\"} 2000\nplad_shard_segments_total{shard=\"1\"} 34\n"))
	if got := page.delta(after, "plad_shard_segments_total"); got != 800 {
		t.Errorf("delta = %v, want 800", got)
	}
	for _, bad := range []string{"plad_x\n", "plad_x{a=\"b\" 1\n", "plad_x one\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

func TestMonitorStallAndQueue(t *testing.T) {
	m := &monitor{}
	t0 := time.Unix(0, 0)
	m.marked, m.lastSegs, m.lastMove = true, 100, t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m.note(at(100), 150, 3) // progress
	m.note(at(200), 150, 9) // none for 100 ms
	m.note(at(300), 150, 2) // none for 200 ms
	m.note(at(400), 151, 0) // progress again
	m.note(at(500), 151, 0) // none for 100 ms
	if stall, queue := m.unmark(); stall != 200*time.Millisecond || queue != 9 {
		t.Errorf("stall %v queue %v, want 200ms 9", stall, queue)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// request [0,100] ─ core [10,40] ─ inner [20,25]
	//                 └ encode [50,70]
	//                 └ late [90,130]: sticks out of its parent, only
	//                   the 10 inside count against it
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "core", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Parent: 1, Start: 20, End: 25},
		{Name: "encode", Parent: 0, Start: 50, End: 70},
		{Name: "late", Parent: 0, Start: 90, End: 130},
		{Name: "core", Parent: -1, Start: 200, End: 210},
	}
	st := selfTimes(spans)
	want := map[string]layerTime{
		"request": {calls: 1, total: 100, self: 100 - 30 - 20 - 10},
		"core":    {calls: 2, total: 40, self: 25 + 10},
		"inner":   {calls: 1, total: 5, self: 5},
		"encode":  {calls: 1, total: 20, self: 20},
		"late":    {calls: 1, total: 40, self: 40},
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("%s: %+v, want %+v", name, st[name], w)
		}
	}
	var sum time.Duration
	for _, lt := range st {
		sum += lt.self
	}
	// Self times partition the covered wall time: the two roots' 110,
	// plus the 30 "late" sticks out by.
	if sum != 140 {
		t.Errorf("self times add up to %d, want 140", sum)
	}
}

func TestTracerNestsAndDisables(t *testing.T) {
	tr := newTracer(true)
	a := tr.begin("a", 7)
	b := tr.begin("b", 7)
	tr.end(b)
	c := tr.begin("c", 7)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Req != 7 {
			t.Errorf("span %+v", s)
		}
	}
	off := newTracer(false)
	off.end(off.begin("a", 0))
	if len(off.spans) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

// fingerprint hashes the generated inputs in a fixed byte order; equal
// seeds must give equal fingerprints, the determinism the benchmark's
// run-to-run comparison rests on.
func fingerprint(g walks, mixes ...[]querySpec) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.chunk))
	for _, blk := range g.blocks {
		for _, p := range blk {
			put(math.Float64bits(p.T))
			put(math.Float64bits(p.X[0]))
		}
	}
	for _, m := range mixes {
		for _, q := range m {
			put(uint64(q.class))
			put(uint64(q.series))
			put(math.Float64bits(q.u))
			if q.recent {
				put(1)
			} else {
				put(0)
			}
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestSameSeedSameWorkload(t *testing.T) {
	build := func(seed uint64) [32]byte {
		g := newWalks(seed, 3, 2, 1024)
		return fingerprint(g, genMix(mix(seed, 4, 0), 20, 8, false), genMix(mix(seed, 5, 0), 20, 8, true))
	}
	if build(1) != build(1) {
		t.Error("the same seed generated two different workloads")
	}
	if build(1) == build(2) {
		t.Error("two seeds generated the same workload")
	}
}

func TestMixShapeAndRanges(t *testing.T) {
	const n = 98304
	specs := genMix(99, 50, 64, true)
	if len(specs) != 50*11 {
		t.Fatalf("%d queries, want 550", len(specs))
	}
	var byClass [nClasses]int
	recent := 0
	for _, q := range specs {
		byClass[q.class]++
		t0, t1 := q.resolve(n)
		if t0 < 0 || t1 > n-1 || t1 < t0 {
			t.Fatalf("%s resolves to [%v, %v] outside [0, %d]", classNames[q.class], t0, t1, n-1)
		}
		if q.class == qAT && (t0 != t1 || t0 != math.Floor(t0)) {
			t.Fatalf("AT at %v, not a sample time", t0)
		}
		if q.recent {
			recent++
			if t0 < n-1-recentSpan {
				t.Fatalf("recent %s starts at %v", classNames[q.class], t0)
			}
		}
	}
	if byClass != [nClasses]int{200, 150, 100, 50, 50} {
		t.Errorf("mix %v, want 200:150:100:50:50", byClass)
	}
	if recent < 150 || recent > 300 { // half of the 450 AT/SCAN/AGG, give or take
		t.Errorf("%d recent queries of 450 eligible", recent)
	}
}

func TestWalksRecomputeAnySample(t *testing.T) {
	g := newWalks(5, 1, 3, 64)
	pts := g.fill(make([]core.Point, 64), 2, 4)
	if len(pts) != 64 || pts[0].T != 4*64 || pts[63].T != 4*64+63 {
		t.Fatalf("chunk spans [%v, %v]", pts[0].T, pts[len(pts)-1].T)
	}
	for i, p := range pts {
		if got := g.at(2, 4*64+i); got != p.X[0] {
			t.Fatalf("at(%d) = %v, sent %v", 4*64+i, got, p.X[0])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"slower within bound", lower, steady(10), steady(10.9), verdictOK},
		{"slower beyond bound", lower, steady(10), steady(11.2), verdictRegressed},
		{"faster", lower, steady(10), steady(5), verdictOK},
		{"throughput down beyond bound", higher, steady(100), steady(88), verdictRegressed},
		{"throughput up", higher, steady(100), steady(150), verdictOK},
		{"noisy base", lower, []float64{8, 10, 12, 9, 11}, steady(20), verdictUnresolved},
		{"noisy candidate", lower, steady(10), []float64{8, 10, 12, 9, 11}, verdictUnresolved},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json at the root is what the driver reads; spec.go is what
// the program reports. They must name the same things.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the sizes are stated for %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q): repeated or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

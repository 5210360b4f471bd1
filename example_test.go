package pla_test

import (
	"bytes"
	"context"
	"fmt"
	"net"

	pla "github.com/pla-go/pla"
	"github.com/pla-go/pla/internal/server"
)

// The canonical flow: compress a stream with the slide filter, rebuild it
// on the receiver side, and read a value back within ε.
func ExampleCompress() {
	// A ramp from 0 to 99 sampled at unit steps.
	signal := make([]pla.Point, 100)
	for i := range signal {
		signal[i] = pla.Point{T: float64(i), X: []float64{float64(i)}}
	}

	f, _ := pla.NewSlideFilter([]float64{0.5}) // ε = 0.5
	segs, _ := pla.Compress(f, signal)

	model, _ := pla.Reconstruct(segs)
	x, _ := model.Eval(42)
	fmt.Printf("segments: %d\n", len(segs))
	fmt.Printf("x(42) = %.1f\n", x[0])
	fmt.Printf("ratio: %.0f\n", f.Stats().CompressionRatio())
	// Output:
	// segments: 1
	// x(42) = 42.0
	// ratio: 50
}

// Streaming use: push points one at a time and collect segments as the
// filter finalizes them.
func ExampleSwing_Push() {
	f, _ := pla.NewSwingFilter([]float64{0.1})
	stream := []pla.Point{
		{T: 0, X: []float64{0}},
		{T: 1, X: []float64{1}},
		{T: 2, X: []float64{2}},
		{T: 3, X: []float64{-5}}, // direction change: closes the first segment
	}
	total := 0
	for _, p := range stream {
		segs, _ := f.Push(p)
		total += len(segs)
	}
	tail, _ := f.Finish()
	total += len(tail)
	fmt.Println("segments:", total)
	// Output:
	// segments: 2
}

// Shipping recordings over a wire and reading them back.
func ExampleEncode() {
	signal := make([]pla.Point, 50)
	for i := range signal {
		signal[i] = pla.Point{T: float64(i), X: []float64{3}}
	}
	eps := []float64{0.25}
	f, _ := pla.NewCacheFilter(eps)
	segs, _ := pla.Compress(f, signal)

	var wire bytes.Buffer
	n, _ := pla.Encode(&wire, eps, true, segs)
	back, _ := pla.Decode(&wire)

	fmt.Printf("sent %d bytes (raw would be %d)\n", n, pla.RawSize(len(signal), 1))
	fmt.Printf("decoded %d segment(s), value %.0f\n", len(back), back[0].X0[0])
	// Output:
	// sent 41 bytes (raw would be 800)
	// decoded 1 segment(s), value 3
}

// Archiving a compressed stream and querying it with guaranteed bounds.
func ExampleArchive() {
	signal := make([]pla.Point, 100)
	for i := range signal {
		signal[i] = pla.Point{T: float64(i), X: []float64{float64(i % 10)}}
	}
	arch := pla.NewArchive()
	f, _ := pla.NewSwingFilter([]float64{0.5})
	series, _ := arch.Ingest("sensor", f, signal)

	mx, _ := series.Max(0, 0, 99)
	fmt.Printf("max = %.1f ± %.1f\n", mx.Value, mx.Epsilon)
	// Output:
	// max = 9.0 ± 0.5
}

// Bounding the receiver lag with m_max_lag.
func ExampleWithSwingMaxLag() {
	// A perfect line would otherwise form one unbounded interval.
	signal := make([]pla.Point, 200)
	for i := range signal {
		signal[i] = pla.Point{T: float64(i), X: []float64{2 * float64(i)}}
	}
	f, _ := pla.NewSwingFilter([]float64{1}, pla.WithSwingMaxLag(50))
	rep, _ := pla.MeasureLag(f, signal)
	fmt.Println("max update gap:", rep.MaxPoints)
	// Output:
	// max update gap: 50
}

// exampleServer runs an in-process server over db on a loopback
// listener, returning its dial address. The examples below each speak
// one protocol feature against it.
func exampleServer(db *pla.Archive) (*server.Server, string) {
	s, err := server.New(db, server.Config{Shards: 1})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go s.Serve(ln)
	return s, ln.Addr().String()
}

// Streaming a sensor into plad and reading it back with a guaranteed
// band: only finalized segments cross the wire, and the final ack
// reports what the archive stored.
func ExampleDialServer() {
	s, addr := exampleServer(pla.NewArchive())
	defer s.Shutdown(context.Background())

	f, _ := pla.NewSwingFilter([]float64{0.5})
	c, _ := pla.DialServer(addr, "turbine-01", f)
	for i := 0; i < 100; i++ {
		c.Send(pla.Point{T: float64(i), X: []float64{float64(i)}})
	}
	ack, _ := c.Close() // blocks until the archive holds every segment

	q, _ := pla.DialQuery(addr)
	defer q.Close()
	mean, _ := q.Mean("turbine-01", 0, 0, 99)
	fmt.Printf("applied %d segment(s)\n", ack.Applied)
	fmt.Printf("mean = %.1f ± %.1f\n", mean.Value, mean.Epsilon)
	// Output:
	// applied 1 segment(s)
	// mean = 49.5 ± 0.5
}

// Segment-native aggregation: AGG answers closed-form from the
// segments (O(windows + edges), never O(points)), and the reply's
// bound composes the filter contract — ±ε·count for sum.
func ExampleQueryClient_Agg() {
	db := pla.NewArchive()
	f, _ := pla.NewSwingFilter([]float64{0.5})
	signal := make([]pla.Point, 100)
	for i := range signal {
		signal[i] = pla.Point{T: float64(i), X: []float64{float64(i)}}
	}
	db.Ingest("turbine-01", f, signal)
	s, addr := exampleServer(db)
	defer s.Shutdown(context.Background())

	q, _ := pla.DialQuery(addr)
	defer q.Close()
	sum, _ := q.Agg("sum", "turbine-01", 0, 0, 99)
	fmt.Printf("sum = %.0f ± %.0f over %d samples\n", sum.Value, sum.Bound, sum.Count)
	// Output:
	// sum = 4950 ± 50 over 100 samples
}

// Bound-aware tier selection: a query that tolerates a wider error
// bound is answered from a coarser rollup tier, reading far fewer
// segments, and the reply's bound reflects the tier that actually
// answered.
func ExampleQueryClient_AggBound() {
	db := pla.NewArchive()
	db.EnableRollups([]int{8}) // maintain an 8× precision tier
	f, _ := pla.NewSwingFilter([]float64{0.5})
	// A slow ramp with fast ±1.5 jitter: the jitter forces a segment
	// every few points at ε = 0.5, but vanishes inside the 8× tier's
	// widened tolerance.
	signal := make([]pla.Point, 400)
	for i := range signal {
		x := float64(i)/20 + 1.5*float64(i%2)
		signal[i] = pla.Point{T: float64(i), X: []float64{x}}
	}
	db.Ingest("turbine-01", f, signal)
	db.Rollup("turbine-01") // normally run by the compaction sweep

	s, addr := exampleServer(db)
	defer s.Shutdown(context.Background())
	q, _ := pla.DialQuery(addr)
	defer q.Close()

	exact, _ := q.Agg("avg", "turbine-01", 0, 0, 399)
	coarse, _ := q.AggBound("avg", "turbine-01", 0, 0, 399, 4)
	fmt.Printf("base: avg = %.1f ± %.1f (%d segments)\n", exact.Value, exact.Bound, exact.Segments)
	fmt.Printf("tier: avg = %.1f ± %.1f (%d segments)\n", coarse.Value, coarse.Bound, coarse.Segments)
	// Output:
	// base: avg = 10.7 ± 0.5 (399 segments)
	// tier: avg = 10.5 ± 4.0 (1 segments)
}

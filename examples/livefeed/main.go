// Livefeed wires the whole system together end to end: a sensor-side
// Transmitter filters raw samples and ships recordings over an in-memory
// connection; a server-side Receiver answers queries while the stream is
// still running; and on shutdown the received segments are archived to a
// tsdb file whose range aggregates come with guaranteed ±ε bounds.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	pla "github.com/pla-go/pla"
)

func main() {
	signal := pla.SeaSurfaceTemperature()
	eps := []float64{0.04} // ≈ 1 % of the signal range, in °C

	sensorEnd, serverEnd := net.Pipe()

	// Server: receive live, then archive.
	type serverResult struct {
		rx  *pla.Receiver
		err error
	}
	ready := make(chan *pla.Receiver, 1)
	done := make(chan serverResult, 1)
	go func() {
		rx, err := pla.NewReceiver(serverEnd)
		if err != nil {
			done <- serverResult{nil, err}
			return
		}
		ready <- rx
		done <- serverResult{rx, rx.Run()}
	}()

	// Sensor: filter and transmit.
	f, err := pla.NewSlideFilter(eps, pla.WithSlideMaxLag(200))
	if err != nil {
		log.Fatal(err)
	}
	tx, err := pla.NewTransmitter(sensorEnd, f)
	if err != nil {
		log.Fatal(err)
	}
	rx := <-ready
	for i, p := range signal {
		if err := tx.Send(p); err != nil {
			log.Fatal(err)
		}
		if i == len(signal)/2 {
			// Live query half-way through the stream.
			if segs := rx.Segments(); len(segs) > 0 {
				tq := segs[len(segs)-1].T1
				if x, ok := rx.At(tq); ok {
					fmt.Printf("live query at t=%.0f min (mid-stream): %.2f °C, %d segments so far\n",
						tq, x[0], len(segs))
				}
			}
		}
	}
	if err := tx.Close(); err != nil {
		log.Fatal(err)
	}
	sensorEnd.Close()
	res := <-done
	if res.err != nil {
		log.Fatal(res.err)
	}

	st := tx.Stats()
	fmt.Printf("transmitted %d bytes for %d samples (%.1fx over raw, compression ratio %.2f)\n",
		tx.BytesSent(), st.Points,
		float64(pla.RawSize(st.Points, 1))/float64(tx.BytesSent()),
		st.CompressionRatio())

	// Archive the received stream and query it with bounds.
	arch := pla.NewArchive()
	series, err := arch.Create("sst/buoy-1", eps, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := series.Append(res.rx.Segments()...); err != nil {
		log.Fatal(err)
	}

	t0, t1, _ := series.Span()
	day := 24 * 60.0
	for w := 0; w < 3; w++ {
		lo := t0 + float64(w)*day*2
		hi := lo + day*2
		if hi > t1 {
			hi = t1
		}
		mn, err := series.Min(0, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		mx, err := series.Max(0, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		mean, err := series.Mean(0, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("window [%5.0f, %5.0f] min: min %.2f±%.2f  max %.2f±%.2f  mean %.2f±%.2f °C\n",
			lo, hi, mn.Value, mn.Epsilon, mx.Value, mx.Epsilon, mean.Value, mean.Epsilon)
	}

	path := filepath.Join(os.TempDir(), "livefeed.plaa")
	if err := arch.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	info, _ := os.Stat(path)
	fmt.Printf("archived to %s (%d bytes vs %d raw)\n", path, info.Size(), pla.RawSize(len(signal), 1))

	back, err := pla.LoadArchiveFile(path)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := back.Get("sst/buoy-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded: %d segments, stats %+v\n", s2.Len(), s2.Stats())
	os.Remove(path)
}

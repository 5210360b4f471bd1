package pla_test

import (
	"bytes"
	"io"
	"testing"

	pla "github.com/pla-go/pla"
)

func TestFacadeArchiveFlow(t *testing.T) {
	signal := pla.SeaSurfaceTemperature()
	eps := []float64{0.05}

	arch := pla.NewArchive()
	f, err := pla.NewSlideFilter(eps)
	if err != nil {
		t.Fatal(err)
	}
	series, err := arch.Ingest("sst", f, signal)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1, ok := series.Span()
	if !ok {
		t.Fatal("no span")
	}
	mn, err := series.Min(0, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := series.Max(0, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pla.SignalRange(signal, 0)
	if lo < mn.Value-mn.Epsilon-1e-9 || hi > mx.Value+mx.Epsilon+1e-9 {
		t.Fatalf("bounds broken: [%v, %v] vs [%v±%v, %v±%v]", lo, hi, mn.Value, mn.Epsilon, mx.Value, mx.Epsilon)
	}

	var buf bytes.Buffer
	if _, err := arch.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := pla.LoadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Get("sst")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Points != len(signal) {
		t.Fatalf("points lost: %+v", s2.Stats())
	}
}

func TestFacadeTransportFlow(t *testing.T) {
	signal := pla.SSTLike(800, 12)
	eps := []float64{0.1}
	pr, pw := io.Pipe()

	done := make(chan error, 1)
	segsCh := make(chan []pla.Segment, 1)
	go func() {
		rx, err := pla.NewReceiver(pr)
		if err != nil {
			done <- err
			return
		}
		err = rx.Run()
		segsCh <- rx.Segments()
		done <- err
	}()

	f, err := pla.NewSwingFilter(eps)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := pla.NewTransmitter(pw, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range signal {
		if err := tx.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	segs := <-segsCh
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	model, err := pla.Reconstruct(segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := pla.CheckPrecision(signal, model, eps, 1e-6); err != nil {
		t.Fatal(err)
	}
	if tx.BytesSent() >= pla.RawSize(len(signal), 1) {
		t.Fatalf("no wire savings: %d bytes", tx.BytesSent())
	}
}

func TestFacadeSwingRecordingModes(t *testing.T) {
	signal := pla.RandomWalk(pla.WalkConfig{N: 1000, P: 0.5, MaxDelta: 3, Seed: 77})
	eps := []float64{1}
	for _, mode := range []pla.SwingRecording{pla.RecordMSE, pla.RecordMidline, pla.RecordLast} {
		f, err := pla.NewSwingFilter(eps, pla.WithSwingRecording(mode))
		if err != nil {
			t.Fatal(err)
		}
		segs, err := pla.Compress(f, signal)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pla.Reconstruct(segs)
		if err != nil {
			t.Fatal(err)
		}
		if err := pla.CheckPrecision(signal, m, eps, 1e-6); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestFacadeConnectionGrid(t *testing.T) {
	signal := pla.RandomWalk(pla.WalkConfig{N: 1000, P: 0.5, MaxDelta: 3, Seed: 78})
	eps := []float64{1}
	noConn, err := pla.NewSlideFilter(eps, pla.WithConnectionGrid(0))
	if err != nil {
		t.Fatal(err)
	}
	full, err := pla.NewSlideFilter(eps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pla.Compress(noConn, signal); err != nil {
		t.Fatal(err)
	}
	if _, err := pla.Compress(full, signal); err != nil {
		t.Fatal(err)
	}
	if full.Stats().Recordings > noConn.Stats().Recordings {
		t.Fatalf("connections raised recordings: %d vs %d",
			full.Stats().Recordings, noConn.Stats().Recordings)
	}
}

package tsdb_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/tsdb/mmapstore"
)

// overlapArchive returns a fresh archive on the named store backend.
// On mmap the tests seal before the offending appends, so the
// predecessor's end is read back from an extent.
func overlapArchive(t *testing.T, backend string) *tsdb.Archive {
	t.Helper()
	if backend == "mem" {
		return tsdb.New()
	}
	mm, err := mmapstore.Open(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	return tsdb.NewWithNamedStore(mm.Store)
}

// TestAppendRejectsOverlap appends [0,100] (0→100), then [1,2] and
// [3,4], which start inside it: a finalized segment that starts before
// its predecessor ends is refused, alone or within a batch, and the
// series keeps answering from the segment it already had.
func TestAppendRejectsOverlap(t *testing.T) {
	for _, backend := range []string{"mem", "mmap"} {
		t.Run(backend, func(t *testing.T) {
			db := overlapArchive(t, backend)
			s, err := db.Create("ov", []float64{0.5}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(seg1d(0, 100, 0, 100, 101, false)); err != nil {
				t.Fatal(err)
			}
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			for _, bad := range []core.Segment{seg1d(1, 2, 1, 2, 2, false), seg1d(3, 4, 3, 4, 2, false)} {
				if err := s.Append(bad); !errors.Is(err, tsdb.ErrOrder) {
					t.Fatalf("Append [%v,%v] after [0,100]: %v, want ErrOrder", bad.T0, bad.T1, err)
				}
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("series holds %d segments after the rejections, want 1", n)
			}

			// The verbs agree on [40,60] because the series is one chord.
			if x, ok := s.At(50); !ok || x[0] != 50 {
				t.Errorf("At(50) = %v, %v; want 50", x, ok)
			}
			if r, err := s.Mean(0, 40, 60); err != nil || math.Abs(r.Value-50) > 1e-9 {
				t.Errorf("Mean [40,60] = %+v, %v; want 50", r, err)
			}
			if r, err := s.Max(0, 40, 60); err != nil || math.Abs(r.Value-60) > 1e-9 {
				t.Errorf("Max [40,60] = %+v, %v; want 60", r, err)
			}
			if a, err := s.RangeAgg(0, 40, 60); err != nil || math.Abs(a.Agg.Max-60) > 1e-9 || math.Abs(a.Agg.Min-40) > 1e-9 {
				t.Errorf("RangeAgg [40,60] = %+v, %v; want min 40, max 60", a.Agg, err)
			}

			// A batch is checked link by link, and a rejected batch
			// stores nothing.
			if err := s.Append(seg1d(100, 110, 100, 110, 11, true), seg1d(105, 120, 0, 0, 16, false)); !errors.Is(err, tsdb.ErrOrder) {
				t.Fatalf("overlapping batch: %v, want ErrOrder", err)
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("series holds %d segments after a rejected batch, want 1", n)
			}
			// Starting exactly where the predecessor ends is the connected
			// case, and is accepted.
			if err := s.Append(seg1d(100, 110, 100, 110, 11, true), seg1d(110, 120, 0, 0, 11, false)); err != nil {
				t.Fatalf("abutting batch: %v", err)
			}
		})
	}
}

// overlapSnapshot encodes a one-series archive file holding segs as
// given — the shape a server from before the overlap rule could write
// when a client sent an overlapping run.
func overlapSnapshot(t *testing.T, name string, points int, segs ...core.Segment) []byte {
	t.Helper()
	var blob bytes.Buffer
	if _, err := encode.EncodeAll(&blob, []float64{0.5}, false, segs); err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint([]byte("PLAA"), 1)
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(points))
	b = binary.AppendUvarint(b, uint64(blob.Len()))
	return append(b, blob.Bytes()...)
}

// TestLoadSkipsOverlap loads a snapshot holding [0,100] (0→100, 101
// samples), then [1,2] and [3,4] (2 samples each), which start inside
// it. The load keeps the first segment and skips the other two, as WAL
// replay rejects such records, instead of failing the whole file; the
// sample count loses the skipped samples (105 → 101). A valid segment
// after the run still loads.
func TestLoadSkipsOverlap(t *testing.T) {
	run := []core.Segment{seg1d(0, 100, 0, 100, 101, false), seg1d(1, 2, 1, 2, 2, false), seg1d(3, 4, 3, 4, 2, false)}
	path := filepath.Join(t.TempDir(), "snap.plaa")
	if err := os.WriteFile(path, overlapSnapshot(t, "ov", 105, run...), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := tsdb.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	s, err := db.Get("ov")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Points() != 101 {
		t.Fatalf("loaded %d segments, %d points; want 1, 101", s.Len(), s.Points())
	}
	if x, ok := s.At(50); !ok || x[0] != 50 {
		t.Errorf("At(50) = %v, %v; want 50", x, ok)
	}

	tail := append(run, seg1d(100, 110, 100, 110, 11, false))
	db = tsdb.New()
	created, skipped, err := tsdb.MergeInto(db, bytes.NewReader(overlapSnapshot(t, "ov", 116, tail...)))
	if err != nil || len(created) != 1 || skipped != 2 {
		t.Fatalf("MergeInto: created %v, skipped %d, %v; want 1 series, 2 skipped", created, skipped, err)
	}
	if s, _ := db.Get("ov"); s.Len() != 2 || s.Points() != 112 {
		t.Fatalf("loaded %d segments, %d points; want 2, 112", s.Len(), s.Points())
	}

	// Any other invalid segment still fails the load.
	reversed := overlapSnapshot(t, "rev", 3, seg1d(0, 1, 0, 1, 2, false), seg1d(5, 4, 0, 0, 1, false))
	if _, err := tsdb.ReadArchive(bytes.NewReader(reversed)); !errors.Is(err, tsdb.ErrFormat) {
		t.Fatalf("reversed segment: %v, want ErrFormat", err)
	}
}

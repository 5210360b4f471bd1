package mmapstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/pla-go/pla/internal/tsdb"
)

// fencedFixture is a store root as the extent store left it before its
// learned fence index was removed: series "fenced" (testEps), testSeg
// 0..119 sealed six at a time with compaction off — twenty v2 extents —
// and a meta carrying the persisted one-segment index block. It is
// frozen: no writer in the tree produces such a block any more.
const (
	fencedFixture   = "testdata/fenced-v2"
	fencedSeriesDir = "0f9c473422bbab96-fenced"
)

// fenceProbeParity checks SearchT0 against the in-memory reference at
// every extent boundary, between boundaries, before the archive, past
// its end, and at NaN — the full findExtent surface.
func fenceProbeParity(t *testing.T, st *Store, mem tsdb.SegmentStore) {
	t.Helper()
	memIdx := mem.(tsdb.TimeIndex)
	probes := []float64{math.Inf(-1), -1, math.NaN(), 1e12}
	for i := 0; i < mem.Len(); i++ {
		t0 := mem.Seg(i).T0
		probes = append(probes, t0, t0-0.5, t0+0.5)
	}
	for _, p := range probes {
		if got, want := st.SearchT0(p), memIdx.SearchT0(p); got != want {
			t.Fatalf("SearchT0(%v) = %d, want %d", p, got, want)
		}
	}
}

// metaHasFenceBlock reports whether the meta at path carries a learned
// index block: the reader skips such a block, so re-encoding the state
// it returns reproduces the file exactly only when there was none.
func metaHasFenceBlock(t *testing.T, path string) bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeMeta(dir, m, t.Logf); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		t.Fatal(err)
	}
	return !bytes.Equal(raw, again)
}

// copyFixture copies a fixture store root into a fresh directory, so a
// test may open (and rewrite) it.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(root, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestExtentLookup checks every sealed lookup against the in-memory
// reference over twenty extents — a store sealed now, and the fixture a
// store with the learned index left on disk — plus a few unsealed
// records so the tail branch of SearchT0 runs. One more seal rewrites
// the meta, which must then carry no index block; the reopened store
// answers the same probes.
func TestExtentLookup(t *testing.T) {
	for _, tc := range []struct {
		name string
		root func(t *testing.T, mem tsdb.SegmentStore) string
	}{
		{"fresh", func(t *testing.T, mem tsdb.SegmentStore) string {
			root := t.TempDir()
			d := openDirCfg(t, root, Config{CompactMinExtents: -1}) // keep the extents fragmented
			sealChunks(t, d.Store("fenced", testEps, false).(*Store), mem, 120, 6)
			d.Close()
			return root
		}},
		{"fixture", func(t *testing.T, mem tsdb.SegmentStore) string {
			root := copyFixture(t, fencedFixture)
			if !metaHasFenceBlock(t, filepath.Join(root, fencedSeriesDir, metaName)) {
				t.Fatal("fixture meta carries no learned index block")
			}
			for i := 0; i < 120; i++ {
				mem.Append(testSeg(i))
			}
			return root
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := tsdb.NewMemStore()
			root := tc.root(t, mem)
			d := openDir(t, root)
			st := d.Store("fenced", testEps, false).(*Store)
			if len(st.exts) != 20 {
				t.Fatalf("%d extents, want 20", len(st.exts))
			}
			fenceProbeParity(t, st, mem)

			pts := 0
			for i := 0; i < 124; i++ {
				pts += testSeg(i).Points
				if i >= 120 {
					st.Append(testSeg(i))
					mem.Append(testSeg(i))
				}
			}
			fenceProbeParity(t, st, mem)
			if err := st.Seal(pts); err != nil {
				t.Fatal(err)
			}
			if metaHasFenceBlock(t, filepath.Join(st.dir, metaName)) {
				t.Fatal("rewritten meta still carries a learned index block")
			}
			d.Close()

			st2 := openDir(t, root).Store("fenced", testEps, false).(*Store)
			if len(st2.exts) != 21 {
				t.Fatalf("reopened with %d extents, want 21", len(st2.exts))
			}
			fenceProbeParity(t, st2, mem)
		})
	}
}

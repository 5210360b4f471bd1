package mmapstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/tsdb"
)

func openDirCfg(t *testing.T, root string, cfg Config) *Dir {
	t.Helper()
	d, err := OpenWith(root, cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// sealChunks appends testSeg(0..n) to both stores in chunks, sealing
// the mmap store after each chunk — one extent per chunk, the
// fragmented shape compaction exists to clean up.
func sealChunks(t *testing.T, st *Store, mem tsdb.SegmentStore, n, chunk int) {
	t.Helper()
	pts := 0
	for i := 0; i < n; i++ {
		st.Append(testSeg(i))
		mem.Append(testSeg(i))
		pts += testSeg(i).Points
		if (i+1)%chunk == 0 || i == n-1 {
			if err := st.Seal(pts); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compactAll drives PrepareCompact/Write/Commit to quiescence.
func compactAll(t *testing.T, st *Store) int {
	t.Helper()
	merges := 0
	for {
		p, ok := st.PrepareCompact()
		if !ok {
			return merges
		}
		if err := p.Write(); err != nil {
			t.Fatal(err)
		}
		if !p.Commit() {
			t.Fatal("commit refused with no concurrent mutation")
		}
		merges++
	}
}

// TestCompactMergesSmallExtents is the happy path: ten one-chunk
// extents merge into one, answers stay identical to the in-memory
// reference live, and again after a reopen, and the directory loses
// the retired files.
func TestCompactMergesSmallExtents(t *testing.T) {
	root := t.TempDir()
	d := openDirCfg(t, root, Config{})
	st := d.Store("c", testEps, false).(*Store)
	mem := tsdb.NewMemStore()
	sealChunks(t, st, mem, 60, 6)

	if got := len(st.exts); got != 10 {
		t.Fatalf("built %d extents, want 10", got)
	}
	if merges := compactAll(t, st); merges != 1 {
		t.Fatalf("compaction took %d merges, want 1", merges)
	}
	if got := len(st.exts); got != 1 {
		t.Fatalf("%d extents after compaction, want 1", got)
	}
	if st.exts[0].v2 == nil {
		t.Fatal("merged extent is not v2")
	}
	mustMatchMem(t, st, mem)

	m := d.Metrics()
	if m.Compactions != 1 || m.CompactedBytes == 0 || m.Extents != 1 {
		t.Fatalf("metrics after merge: %+v", m)
	}
	exts, _ := filepath.Glob(filepath.Join(st.dir, "ext-*.seg"))
	if len(exts) != 1 {
		t.Fatalf("%d extent files on disk, want 1: %v", len(exts), exts)
	}

	d.Close()
	d2 := openDirCfg(t, root, Config{})
	st2 := d2.Store("c", testEps, false).(*Store)
	mustMatchMem(t, st2, mem)
}

// TestCompactPolicyKnobs: a negative CompactMinExtents disables the
// policy outright; a large TargetRecords bound is respected (extents
// at or above it are never rewritten).
func TestCompactPolicyKnobs(t *testing.T) {
	root := t.TempDir()
	d := openDirCfg(t, root, Config{CompactMinExtents: -1})
	st := d.Store("off", testEps, false).(*Store)
	sealChunks(t, st, tsdb.NewMemStore(), 60, 6)
	if _, ok := st.PrepareCompact(); ok {
		t.Fatal("disabled policy still offered a compaction")
	}
	d.Close()

	// TargetRecords 6: every 6-record extent is already at target, so
	// nothing qualifies even though there are plenty of extents.
	d2 := openDirCfg(t, root, Config{TargetRecords: 6})
	st2 := d2.Store("off", testEps, false).(*Store)
	if _, ok := st2.PrepareCompact(); ok {
		t.Fatal("at-target extents offered for compaction")
	}
}

// TestCompactAbortsOnConcurrentMutation: a seal that lands between
// PrepareCompact and Commit must make the commit refuse, leave no
// stray files, and let the next attempt succeed.
func TestCompactAbortsOnConcurrentMutation(t *testing.T) {
	root := t.TempDir()
	d := openDirCfg(t, root, Config{})
	st := d.Store("abort", testEps, false).(*Store)
	mem := tsdb.NewMemStore()
	sealChunks(t, st, mem, 60, 6)

	p, ok := st.PrepareCompact()
	if !ok {
		t.Fatal("no compaction offered")
	}
	st.Append(testSeg(60))
	mem.Append(testSeg(60))
	if err := st.Seal(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(); err != nil {
		t.Fatal(err)
	}
	if p.Commit() {
		t.Fatal("commit accepted a stale generation")
	}
	if got := len(st.exts); got != 11 {
		t.Fatalf("%d extents after aborted commit, want 11", got)
	}
	mustMatchMem(t, st, mem)
	if m := d.Metrics(); m.Compactions != 0 {
		t.Fatalf("aborted merge counted: %+v", m)
	}

	if merges := compactAll(t, st); merges == 0 {
		t.Fatal("retry after abort found nothing to merge")
	}
	mustMatchMem(t, st, mem)
}

// copyStoreDir clones one series' store directory byte for byte.
func copyStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMidCompaction reassembles every kill-9 point of the
// two-phase compaction protocol from real directory states — merged
// extent written but meta not moved, meta moved but retired files not
// deleted, merged extent torn, sidecar lost — and requires each to
// recover to answers identical to the in-memory reference.
func TestCrashMidCompaction(t *testing.T) {
	mem := tsdb.NewMemStore()
	build := t.TempDir()
	d := openDirCfg(t, build, Config{})
	st := d.Store("c", testEps, false).(*Store)
	sealChunks(t, st, mem, 60, 6)
	d.Close()
	preDir := filepath.Join(t.TempDir(), "pre")
	copyStoreDir(t, filepath.Join(build, seriesDirName("c")), preDir)

	d = openDirCfg(t, build, Config{})
	st = d.Store("c", testEps, false).(*Store)
	if merges := compactAll(t, st); merges != 1 {
		t.Fatalf("%d merges, want 1", merges)
	}
	d.Close()
	doneDir := filepath.Join(build, seriesDirName("c"))

	names := func(dir string) map[string]bool {
		out := map[string]bool{}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			out[e.Name()] = true
		}
		return out
	}
	pre, done := names(preDir), names(doneDir)
	var mergedFiles, retiredFiles []string
	for n := range done {
		if !pre[n] && n != "meta" {
			mergedFiles = append(mergedFiles, n) // the merged .seg and its .sum
		}
	}
	for n := range pre {
		if !done[n] && n != "meta" {
			retiredFiles = append(retiredFiles, n)
		}
	}
	if len(mergedFiles) == 0 || len(retiredFiles) == 0 {
		t.Fatalf("compaction left no file delta (merged %v, retired %v)", mergedFiles, retiredFiles)
	}

	copyFiles := func(t *testing.T, src, dst string, names []string) {
		for _, n := range names {
			b, err := os.ReadFile(filepath.Join(src, n))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, n), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name     string
		assemble func(t *testing.T, crash string)
	}{
		// Crash after the merged extent (and sidecar) hit disk, before
		// the meta moved: the old extents are still authoritative and
		// the orphaned merge must be swept.
		{"merged-no-meta", func(t *testing.T, crash string) {
			copyStoreDir(t, preDir, crash)
			copyFiles(t, doneDir, crash, mergedFiles)
		}},
		// Same instant, merged extent torn mid-write.
		{"torn-merged-no-meta", func(t *testing.T, crash string) {
			copyStoreDir(t, preDir, crash)
			copyFiles(t, doneDir, crash, mergedFiles)
			for _, n := range mergedFiles {
				if filepath.Ext(n) == ".seg" {
					info, err := os.Stat(filepath.Join(crash, n))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(filepath.Join(crash, n), info.Size()-9); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		// Crash after the meta moved, before the retired files were
		// deleted: the merged extent is authoritative, the stale files
		// must be swept.
		{"meta-retired-remain", func(t *testing.T, crash string) {
			copyStoreDir(t, doneDir, crash)
			copyFiles(t, preDir, crash, retiredFiles)
		}},
		// The merged extent's sketch sidecar lost after commit: queries
		// fall back to building windows from the records.
		{"merged-no-sidecar", func(t *testing.T, crash string) {
			copyStoreDir(t, doneDir, crash)
			for _, n := range mergedFiles {
				if filepath.Ext(n) == ".sum" {
					if err := os.Remove(filepath.Join(crash, n)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.assemble(t, filepath.Join(root, seriesDirName("c")))
			d := openDirCfg(t, root, Config{})
			st := d.Store("c", testEps, false).(*Store)
			mustMatchMem(t, st, mem)

			// Whatever the crash left behind, recovery must converge to
			// a directory with no orphans: every live extent file is in
			// the meta's list and vice versa.
			d.Close()
			d2 := openDirCfg(t, root, Config{})
			st2 := d2.Store("c", testEps, false).(*Store)
			mustMatchMem(t, st2, mem)
			exts, _ := filepath.Glob(filepath.Join(st2.dir, "ext-*.seg"))
			if len(exts) != len(st2.exts) {
				t.Fatalf("%d extent files on disk, %d live", len(exts), len(st2.exts))
			}
		})
	}
}

// TestV1TestdataCompactionDifferential replays the frozen v1 extent
// fixtures through the full migration path: fixture → v1 store
// (parity vs MemStore) → reopened with compaction on →
// compacted to v2 → restarted, with identical answers at every stage.
// The fixtures pin the v1 format forever — regenerate (only if the
// fixture set itself must change) with:
//
//	PLA_REGEN_TESTDATA=1 go test -run TestV1TestdataCompactionDifferential ./internal/tsdb/mmapstore/
func TestV1TestdataCompactionDifferential(t *testing.T) {
	fixtures := []struct {
		name     string
		eps      []float64
		constant bool
		n        int
	}{
		{"dim1.seg", []float64{0.25}, false, 37},
		{"dim2.seg", []float64{0.25, 0.5}, false, 64},
		{"dim1-const.seg", []float64{0.1}, true, 16},
	}
	fixSeg := func(i, dim int) core.Segment {
		x0, x1 := make([]float64, dim), make([]float64, dim)
		for d := range x0 {
			x0[d] = math.Sin(float64(3*i+d)) * 100
			x1[d] = math.Cos(float64(2*i+d)) * 100
		}
		return core.Segment{
			T0: float64(i) * 1.75, T1: float64(i)*1.75 + 1.5,
			X0: x0, X1: x1, Connected: i%4 == 2, Points: 5 + i%7,
		}
	}
	if os.Getenv("PLA_REGEN_TESTDATA") != "" {
		if err := os.MkdirAll(filepath.Join("testdata", "v1"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, fx := range fixtures {
			segs := make([]core.Segment, fx.n)
			for i := range segs {
				segs[i] = fixSeg(i, len(fx.eps))
			}
			if err := writeExtent(filepath.Join("testdata", "v1", fx.name), fx.eps, fx.constant, segs); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("regenerated testdata/v1 fixtures")
	}

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join("testdata", "v1", fx.name)
			e, err := openExtent(path, 1, len(fx.eps))
			if err != nil {
				t.Fatalf("v1 fixture no longer opens: %v", err)
			}
			if v := e.data[4]; v != extVersion {
				e.close()
				t.Fatalf("fixture is version %d, want v1", v)
			}
			segs := make([]core.Segment, e.count)
			for i := range segs {
				segs[i] = e.segment(i)
				if !segsEqual(segs[i], fixSeg(i, len(fx.eps))) {
					e.close()
					t.Fatalf("fixture record %d drifted: %+v", i, segs[i])
				}
			}
			e.close()

			mem := tsdb.NewMemStore()
			for _, s := range segs {
				mem.Append(s)
			}
			root := t.TempDir()

			// Stage 1: the archive as a v1 deployment left it — four
			// small v1 extents. The store seals v2 only, so each sealed
			// extent is rewritten in place as v1 before the reopen.
			d1 := openDirCfg(t, root, Config{CompactMinExtents: -1})
			st1 := d1.Store("fx", fx.eps, fx.constant).(*Store)
			pts := 0
			chunk := (len(segs) + 3) / 4
			var chunks [][]core.Segment
			for lo := 0; lo < len(segs); lo += chunk {
				hi := min(lo+chunk, len(segs))
				for _, s := range segs[lo:hi] {
					st1.Append(s)
					pts += s.Points
				}
				if err := st1.Seal(pts); err != nil {
					t.Fatal(err)
				}
				chunks = append(chunks, segs[lo:hi])
			}
			d1.Close()
			for k, c := range chunks {
				if err := writeExtent(filepath.Join(st1.dir, fmt.Sprintf(extPattern, k+1)), fx.eps, fx.constant, c); err != nil {
					t.Fatal(err)
				}
			}
			d1 = openDirCfg(t, root, Config{CompactMinExtents: -1})
			st1 = d1.Store("fx", fx.eps, fx.constant).(*Store)
			for _, e := range st1.exts {
				if e.v2 != nil {
					t.Fatalf("extent %d is not v1", e.seq)
				}
			}
			mustMatchMem(t, st1, mem)
			d1.Close()

			// Stage 2: reopened with compaction on; the v1 extents
			// serve as-is, then compaction migrates them to v2.
			d2 := openDirCfg(t, root, Config{CompactMinExtents: 2})
			st2 := d2.Store("fx", fx.eps, fx.constant).(*Store)
			mustMatchMem(t, st2, mem)
			if merges := compactAll(t, st2); merges == 0 {
				t.Fatal("nothing compacted")
			}
			if st2.exts[len(st2.exts)-1].v2 == nil {
				t.Fatal("merged extent is not v2")
			}
			mustMatchMem(t, st2, mem)
			d2.Close()

			// Stage 3: restart onto the migrated archive.
			d3 := openDirCfg(t, root, Config{})
			st3 := d3.Store("fx", fx.eps, fx.constant).(*Store)
			mustMatchMem(t, st3, mem)
		})
	}
}

// BenchmarkV2DecodeZeroAlloc is the alloc-check ratchet for the v2
// read path: decoding a block through the cache — the unit every cold
// query pays — must not allocate.
func BenchmarkV2DecodeZeroAlloc(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.seg")
	const n = 3 * v2BlockSize / 2
	eps := []float64{0.25, 0.5}
	segs := make([]core.Segment, n)
	for i := range segs {
		segs[i] = testSeg(i)
	}
	if err := writeExtentV2(path, eps, false, segs); err != nil {
		b.Fatal(err)
	}
	e, err := openExtent(path, 1, len(eps))
	if err != nil {
		b.Fatal(err)
	}
	defer e.close()
	if e.v2 == nil {
		b.Fatal("not a v2 extent")
	}
	// Touch both blocks once so the t0 scratch buffer exists before
	// measurement starts.
	e.searchLive(segs[0].T0)
	e.searchLive(segs[n-1].T0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate blocks so every iteration is a cache miss: a full
		// block decode plus a t0-column decode and search.
		r := (i % 2) * v2BlockSize
		if e.v2Points(r) != segs[r].Points {
			b.Fatal("wrong record")
		}
		if e.searchLive(segs[r].T0) != r+1 {
			b.Fatal("wrong search result")
		}
	}
}

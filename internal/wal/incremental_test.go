package wal

import (
	"os"
	"testing"

	"github.com/pla-go/pla/internal/tsdb"
)

// rotateSnapshot runs one compaction cycle on shard 0: rotate the log
// and snapshot the state it covered, exactly as the server's worker
// does between fences.
func rotateSnapshot(t *testing.T, st *Store) {
	t.Helper()
	seq, err := st.Shard(0).Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Shard(0).Snapshot(seq); err != nil {
		t.Fatal(err)
	}
}

// dirFiles scans shard 0's directory and returns its full snapshots,
// incremental snapshots and wal files.
func dirFiles(t *testing.T, dir string) (snaps, parts, wals []seqFile) {
	t.Helper()
	snaps, parts, wals, _, err := scanDir(shard0Dir(dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, parts, wals
}

// fileSize returns a seqFile's size in bytes.
func fileSize(t *testing.T, f seqFile) int64 {
	t.Helper()
	info, err := os.Stat(f.path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestIncrementalSnapshotChain drives the dirty-tracking compaction
// path end to end: the first snapshot is full, later ones carry only
// the dirtied series (and are correspondingly smaller), and recovery
// through the chain — full baseline plus partials plus wal tail —
// reproduces the live archive exactly.
func TestIncrementalSnapshotChain(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)

	// Five series so a single dirty series stays under the
	// half-the-owned-set threshold that forces a full snapshot.
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		appendN(t, st, ref, name, 0, 6)
	}
	rotateSnapshot(t, st)
	snaps, parts, wals := dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 {
		t.Fatalf("after first compaction: %d full, %d partial; want 1, 0 (first snapshot must be full)", len(snaps), len(parts))
	}
	if len(wals) != 1 {
		t.Fatalf("after first compaction: %d wal files, want 1 (the fresh tail)", len(wals))
	}
	fullSize := fileSize(t, snaps[0])

	// Dirty only "a": the next snapshot must be a partial holding just
	// that series.
	appendN(t, st, ref, "a", 6, 4)
	rotateSnapshot(t, st)
	snaps, parts, _ = dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 1 {
		t.Fatalf("after dirty-one compaction: %d full, %d partial; want 1, 1", len(snaps), len(parts))
	}
	if ps := fileSize(t, parts[0]); ps >= fullSize {
		t.Fatalf("partial snapshot is %d bytes, full is %d; partial must be smaller", ps, fullSize)
	}
	got := tsdb.New()
	if n, _, err := mergeSnapshot(parts[0].path, got); err != nil || n != 1 {
		t.Fatalf("partial holds %d series (err %v), want exactly the dirty one", n, err)
	}
	if names := got.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("partial holds %v, want [a]", names)
	}

	// Dirty "b" next: the chain grows and each link covers its own
	// delta. Then leave a wal tail behind ("c" gets more segments that
	// no snapshot covers) and recover everything.
	appendN(t, st, ref, "b", 6, 3)
	rotateSnapshot(t, st)
	appendN(t, st, ref, "c", 6, 2)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, parts, _ = dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 2 {
		t.Fatalf("before recovery: %d full, %d partial; want 1, 2", len(snaps), len(parts))
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.Migrated {
		t.Fatalf("chain recovery migrated: %+v", stats)
	}
	if stats.SnapshotSeries != 5 {
		t.Fatalf("recovered %d snapshot series, want 5", stats.SnapshotSeries)
	}
	if stats.Replayed != 2 {
		t.Fatalf("replayed %d records, want the 2 in the tail", stats.Replayed)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestIncrementalChainForcesFull checks both full-snapshot triggers:
// chain length (maxPartialChain partials force a fresh full baseline,
// which collapses the chain on disk) and dirty fraction (half or more
// of the owned series dirty goes straight to a full).
func TestIncrementalChainForcesFull(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	defer st.Close()

	names := []string{"a", "b", "c", "d", "e"}
	for _, name := range names {
		appendN(t, st, ref, name, 0, 3)
	}
	rotateSnapshot(t, st) // full #1
	for i := 0; i < maxPartialChain; i++ {
		appendN(t, st, ref, names[i%len(names)], 3+i, 1)
		rotateSnapshot(t, st)
		snaps, parts, _ := dirFiles(t, dir)
		if len(snaps) != 1 || len(parts) != i+1 {
			t.Fatalf("round %d: %d full, %d partial; want 1, %d", i, len(snaps), len(parts), i+1)
		}
	}

	// The chain is at the cap: the next compaction must write a full
	// snapshot and delete every superseded link.
	appendN(t, st, ref, "a", 40, 1)
	rotateSnapshot(t, st)
	snaps, parts, _ := dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 {
		t.Fatalf("after chain cap: %d full, %d partial; want the chain collapsed into 1 full", len(snaps), len(parts))
	}

	// Dirty 3 of 5 series (≥ half): partial would save little, expect a
	// full generation again.
	for _, name := range names[:3] {
		appendN(t, st, ref, name, 50, 1)
	}
	rotateSnapshot(t, st)
	snaps, parts, _ = dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 {
		t.Fatalf("after majority-dirty compaction: %d full, %d partial; want 1, 0", len(snaps), len(parts))
	}
	mustEqualArchives(t, st.DB(), ref)
}

// TestIncrementalCorruptPartialFallsBack corrupts the newest chain
// link: recovery must drop that file's contribution with a warning and
// serve the dirty series from the older generation — the same
// newest-readable fallback full snapshots have — while every other
// series stays intact.
func TestIncrementalCorruptPartialFallsBack(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)

	for _, name := range []string{"a", "b", "c", "d", "e"} {
		appendN(t, st, ref, name, 0, 5)
	}
	rotateSnapshot(t, st)
	appendN(t, st, ref, "a", 5, 4)
	rotateSnapshot(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, parts, _ := dirFiles(t, dir)
	if len(parts) != 1 {
		t.Fatalf("%d partials on disk, want 1", len(parts))
	}
	if err := os.Truncate(parts[0].path, fileSize(t, parts[0])/2); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.SnapshotSeries != 5 {
		t.Fatalf("recovered %d snapshot series, want 5", stats.SnapshotSeries)
	}
	a, err := st2.DB().Get("a")
	if err != nil {
		t.Fatal(err)
	}
	// The partial's delta is gone (its wal files were deleted when it
	// was written); "a" falls back to the full snapshot's copy.
	if a.Len() != 5 {
		t.Fatalf("series a has %d segments, want the full baseline's 5", a.Len())
	}
	for _, name := range []string{"b", "c", "d", "e"} {
		s, err := st2.DB().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 5 {
			t.Fatalf("series %s has %d segments, want 5", name, s.Len())
		}
	}
}

// TestCloseSnapshotCollapsesChain checks the graceful-drain contract
// under incremental compaction: CloseSnapshot writes a full final
// snapshot, so the directory ends with exactly one file regardless of
// how long the chain was.
func TestCloseSnapshotCollapsesChain(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)

	for _, name := range []string{"a", "b", "c", "d", "e"} {
		appendN(t, st, ref, name, 0, 4)
	}
	rotateSnapshot(t, st)
	appendN(t, st, ref, "b", 4, 2)
	rotateSnapshot(t, st)
	appendN(t, st, ref, "c", 4, 2)
	if err := st.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	snaps, parts, wals := dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 || len(wals) != 0 {
		t.Fatalf("after drain: %d full, %d partial, %d wal; want exactly 1 full", len(snaps), len(parts), len(wals))
	}
	entries, err := os.ReadDir(shard0Dir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("shard dir holds %v, want one snapshot", names)
	}
	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.SnapshotSeries != 5 || stats.Replayed != 0 {
		t.Fatalf("post-drain recovery stats %+v, want 5 snapshot series, 0 replayed", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

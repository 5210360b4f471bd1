package wal

import (
	"os"
	"testing"

	"github.com/pla-go/pla/internal/tsdb"
)

// TestSeedDirtyFromReplay pins the boot→replay→compact chain link: a
// restart that recovers a clean full snapshot plus a wal tail must seed
// the shard's dirty set from the replayed records, so the first
// post-boot compaction writes a partial chained onto the pre-existing
// full snapshot instead of rewriting the whole partition.
func TestSeedDirtyFromReplay(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)

	// Five series, then a full baseline on disk.
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		appendN(t, st, ref, name, 0, 6)
	}
	rotateSnapshot(t, st)
	snaps, parts, _ := dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 {
		t.Fatalf("baseline: %d full, %d partial; want 1, 0", len(snaps), len(parts))
	}
	fullPath := snaps[0].path
	fullBefore, err := os.Stat(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty only "a", commit, and crash-close: the close path without a
	// snapshot leaves the full baseline plus a wal tail holding "a".
	appendN(t, st, ref, "a", 6, 4)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot. Recovery replays the tail; the seeded dirty set must make
	// the very next compaction incremental.
	st2, stats := openStore(t, dir, SyncAlways)
	if stats.Migrated {
		t.Fatalf("clean restart migrated: %+v", stats)
	}
	if stats.Replayed != 4 {
		t.Fatalf("replayed %d records, want the 4 in the tail", stats.Replayed)
	}
	rotateSnapshot(t, st2)
	snaps, parts, _ = dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 1 {
		t.Fatalf("first post-boot compaction: %d full, %d partial; want the pre-existing full plus one new partial", len(snaps), len(parts))
	}
	if snaps[0].path != fullPath {
		t.Fatalf("full snapshot changed: %s -> %s; the pre-boot full must stay the anchor", fullPath, snaps[0].path)
	}
	fullAfter, err := os.Stat(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fullAfter.ModTime().Equal(fullBefore.ModTime()) || fullAfter.Size() != fullBefore.Size() {
		t.Fatal("full snapshot was rewritten; compaction should have chained a partial instead")
	}
	if parts[0].seq <= snaps[0].seq {
		t.Fatalf("partial seq %d not past full seq %d", parts[0].seq, snaps[0].seq)
	}
	got := tsdb.New()
	if n, _, err := mergeSnapshot(parts[0].path, got); err != nil || n != 1 {
		t.Fatalf("partial holds %d series (err %v), want exactly the replayed one", n, err)
	}
	if names := got.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("partial holds %v, want [a] (the series wal replay touched)", names)
	}

	// A second crash cycle must recover through the boot-spanning chain:
	// old full + new partial + fresh tail.
	appendN(t, st2, ref, "b", 6, 3)
	if err := st2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, stats := openStore(t, dir, SyncAlways)
	defer st3.Close()
	if stats.Migrated {
		t.Fatalf("chain recovery migrated: %+v", stats)
	}
	if stats.SnapshotSeries != 5 {
		t.Fatalf("recovered %d snapshot series through the chain, want 5", stats.SnapshotSeries)
	}
	mustEqualArchives(t, st3.DB(), ref)
}

// TestSeedDeclinedOnCorruptChain makes sure the seed is conservative: a
// partial snapshot that no longer reads cleanly means the on-disk chain
// is not a trustworthy baseline, so the first compaction after reboot
// must fall back to a fresh full snapshot (which also supersedes and
// removes the corrupt link).
func TestSeedDeclinedOnCorruptChain(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		appendN(t, st, ref, name, 0, 6)
	}
	rotateSnapshot(t, st)
	appendN(t, st, ref, "a", 6, 4)
	rotateSnapshot(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, parts, _ := dirFiles(t, dir)
	if len(parts) != 1 {
		t.Fatalf("%d partials before corruption, want 1", len(parts))
	}
	if err := os.Truncate(parts[0].path, fileSize(t, parts[0])/2); err != nil {
		t.Fatal(err)
	}

	st2, _ := openStore(t, dir, SyncAlways)
	defer st2.Close()
	appendN(t, st2, ref, "b", 6, 2)
	rotateSnapshot(t, st2)
	snaps, parts, _ := dirFiles(t, dir)
	if len(snaps) != 1 || len(parts) != 0 {
		t.Fatalf("post-corruption compaction: %d full, %d partial; want a fresh full and the corrupt link gone", len(snaps), len(parts))
	}
}

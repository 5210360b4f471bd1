package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/tsdb"
)

// testSeg builds the i-th segment of a deterministic one-dimensional
// sequence: disconnected lines on [2i, 2i+1].
func testSeg(i int) core.Segment {
	t0 := float64(2 * i)
	return core.Segment{
		T0: t0, T1: t0 + 1,
		X0:     []float64{math.Sin(t0)},
		X1:     []float64{math.Sin(t0) + 0.5},
		Points: 10 + i,
	}
}

// appendN write-aheads and applies n segments to series name in both the
// store and a reference archive.
func appendN(t *testing.T, st *Store, ref *tsdb.Archive, name string, lo, n int) {
	t.Helper()
	eps := []float64{0.25}
	s, _, err := st.DB().GetOrCreate(name, eps, false)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := ref.GetOrCreate(name, eps, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < lo+n; i++ {
		seg := testSeg(i)
		if err := st.Append(s, seg); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(seg); err != nil {
			t.Fatal(err)
		}
		if err := rs.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
}

// mustEqualArchives compares two archives segment for segment.
func mustEqualArchives(t *testing.T, got, want *tsdb.Archive) {
	t.Helper()
	gn, wn := got.Names(), want.Names()
	if fmt.Sprint(gn) != fmt.Sprint(wn) {
		t.Fatalf("series %v, want %v", gn, wn)
	}
	for _, name := range wn {
		gs, _ := got.Get(name)
		ws, _ := want.Get(name)
		gsegs, wsegs := gs.Segments(), ws.Segments()
		if len(gsegs) != len(wsegs) {
			t.Fatalf("%s: %d segments, want %d", name, len(gsegs), len(wsegs))
		}
		for i := range wsegs {
			g, w := gsegs[i], wsegs[i]
			if g.T0 != w.T0 || g.T1 != w.T1 || g.Connected != w.Connected || g.Points != w.Points ||
				fmt.Sprint(g.X0) != fmt.Sprint(w.X0) || fmt.Sprint(g.X1) != fmt.Sprint(w.X1) {
				t.Fatalf("%s: segment %d differs: got %+v, want %+v", name, i, g, w)
			}
		}
		if gs.Points() != ws.Points() {
			t.Fatalf("%s: points %d, want %d", name, gs.Points(), ws.Points())
		}
	}
}

func openStore(t *testing.T, dir string, policy SyncPolicy) (*Store, RecoverStats) {
	t.Helper()
	return openStoreN(t, dir, 1, policy)
}

func openStoreN(t *testing.T, dir string, nShards int, policy SyncPolicy) (*Store, RecoverStats) {
	t.Helper()
	st, stats, err := Open(dir, nShards, tsdb.New(), Options{Policy: policy, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return st, stats
}

// shard0Dir is the partition directory most single-shard tests poke at.
func shard0Dir(dir string) string { return filepath.Join(dir, shardDirName(0)) }

// TestReplayFromTail closes the log without any snapshot and recovers
// everything from the wal alone.
func TestReplayFromTail(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, stats := openStore(t, dir, SyncAlways)
	if !stats.Empty() {
		t.Fatalf("fresh dir not empty: %+v", stats)
	}
	appendN(t, st, ref, "a", 0, 7)
	appendN(t, st, ref, "b", 0, 3)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.Replayed != 10 || stats.Skipped != 0 || stats.Rejected != 0 {
		t.Fatalf("replay stats %+v, want 10 replayed", stats)
	}
	if stats.Migrated {
		t.Fatalf("same-shard-count recovery migrated: %+v", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestTornTailTruncation cuts the wal mid-record: recovery must keep the
// whole records, truncate the torn bytes in place, and a second recovery
// must see a clean file.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	appendN(t, st, ref, "series", 0, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 3 bytes off the only wal file.
	_, _, wals, _, err := scanDir(shard0Dir(dir), Options{})
	if err != nil || len(wals) != 1 {
		t.Fatalf("scan: %v, %d wal files", err, len(wals))
	}
	info, err := os.Stat(wals[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0].path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	// The reference loses its last segment too.
	wantRef := tsdb.New()
	ws, _, _ := wantRef.GetOrCreate("series", []float64{0.25}, false)
	for i := 0; i < 4; i++ {
		if err := ws.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}

	st2, stats := openStore(t, dir, SyncAlways)
	if stats.Replayed != 4 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats %+v, want 4 replayed and a truncated tail", stats)
	}
	mustEqualArchives(t, st2.DB(), wantRef)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// After truncation the old file replays with no torn tail.
	st3, stats := openStore(t, dir, SyncAlways)
	defer st3.Close()
	if stats.TruncatedBytes != 0 || stats.Replayed != 4 {
		t.Fatalf("second recovery stats %+v, want clean 4-record replay", stats)
	}
	mustEqualArchives(t, st3.DB(), wantRef)
}

// TestSnapshotPlusTail compacts mid-stream and verifies recovery from
// snapshot + fresh tail matches the reference archive exactly.
func TestSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	appendN(t, st, ref, "a", 0, 6)
	appendN(t, st, ref, "b", 0, 4)

	// Compact: rotate, (no concurrent appliers to fence here), snapshot.
	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(oldSeq); err != nil {
		t.Fatal(err)
	}
	// The superseded wal file must be gone.
	_, _, wals, _, _ := scanDir(shard0Dir(dir), Options{})
	for _, wf := range wals {
		if wf.seq <= oldSeq {
			t.Fatalf("wal seq %d survived compaction", wf.seq)
		}
	}

	appendN(t, st, ref, "a", 6, 3) // tail after the snapshot
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.SnapshotSeries != 2 || stats.Replayed != 3 {
		t.Fatalf("stats %+v, want 2 snapshot series + 3 replayed", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestCrashMidCompaction restores the pre-snapshot wal file after the
// snapshot committed — the overlap a crash between rename and cleanup
// leaves — and verifies the per-record index dedups the replay.
func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	appendN(t, st, ref, "dup", 0, 5)

	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// Save the rotated wal before Snapshot deletes it.
	_, _, wals, _, _ := scanDir(shard0Dir(dir), Options{})
	var oldPath string
	var oldBytes []byte
	for _, wf := range wals {
		if wf.seq == oldSeq {
			oldPath = wf.path
			if oldBytes, err = os.ReadFile(wf.path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if oldPath == "" {
		t.Fatal("rotated wal not found")
	}
	if err := sh.Snapshot(oldSeq); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, ref, "dup", 5, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash-before-cleanup state.
	if err := os.WriteFile(oldPath, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.Skipped != 5 {
		t.Fatalf("stats %+v, want 5 skipped (snapshot overlap)", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestRecoverySurvivesCorruptSnapshot scribbles over the newest snapshot:
// recovery must fall back to the older generation + wal replay rather
// than load garbage or fail.
func TestRecoverySurvivesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	appendN(t, st, ref, "s", 0, 4)
	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(oldSeq); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, ref, "s", 4, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _, _, _, _ := scanDir(shard0Dir(dir), Options{})
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	if err := os.WriteFile(snaps[0].path, []byte("PLAAgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The snapshot is gone for good, and so are the wal files it
	// superseded — only the post-snapshot tail can come back.
	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.SnapshotSeries != 0 || stats.Replayed != 2 {
		t.Fatalf("stats %+v, want 0 snapshot series + 2 replayed", stats)
	}
	want := tsdb.New()
	wsr, _, _ := want.GetOrCreate("s", []float64{0.25}, false)
	for i := 4; i < 6; i++ {
		if err := wsr.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustEqualArchives(t, st2.DB(), want)
}

// TestCloseSnapshot drains to a single snapshot file per shard and
// recovers from it with no wal replay.
func TestCloseSnapshot(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncInterval)
	appendN(t, st, ref, "x", 0, 8)
	appendN(t, st, ref, "y", 0, 2)
	if err := st.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	snaps, _, wals, _, err := scanDir(shard0Dir(dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(wals) != 0 {
		t.Fatalf("after CloseSnapshot: %d snapshots, %d wals; want 1, 0", len(snaps), len(wals))
	}

	st2, stats := openStore(t, dir, SyncInterval)
	defer st2.Close()
	if stats.SnapshotSeries != 2 || stats.Replayed != 0 || stats.WALFiles != 0 {
		t.Fatalf("stats %+v, want pure snapshot recovery", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestRejectedReplayDeterminism write-aheads an out-of-order segment the
// archive refuses; replay must refuse it identically instead of storing
// it.
func TestRejectedReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	eps := []float64{0.25}
	s, _, err := st.DB().GetOrCreate("r", eps, false)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := testSeg(3), testSeg(1) // bad starts before good
	for _, seg := range []core.Segment{good, bad} {
		if err := st.Append(s, seg); err != nil {
			t.Fatal(err)
		}
		s.Append(seg) // second append fails: out of order — mirrored on replay
	}
	if s.Len() != 1 {
		t.Fatalf("live series has %d segments, want 1", s.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.Replayed != 1 || stats.Rejected != 1 {
		t.Fatalf("stats %+v, want 1 replayed + 1 rejected", stats)
	}
	s2, err := st2.DB().Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("replayed series has %d segments, want 1", s2.Len())
	}
}

// TestAppendAfterClose checks the closed-log guard.
func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncOff)
	s, _, err := st.DB().GetOrCreate("c", []float64{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(s, testSeg(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestMatchSeqWideSequences checks the file-name parser past the zero
// padding: Sprintf widens beyond 8 digits, and scanning must keep up.
func TestMatchSeqWideSequences(t *testing.T) {
	for _, seq := range []uint64{0, 1, 99999999, 100000000, 123456789012} {
		name := fmt.Sprintf(walPattern, seq)
		var got uint64
		if !matchSeq(name, walPattern, &got) || got != seq {
			t.Errorf("matchSeq(%q) = %v (seq %d), want %d", name, matchSeq(name, walPattern, &got), got, seq)
		}
	}
	var v uint64
	for _, bad := range []string{"wal-1234567.log", "wal--0000001.log", "wal-+1234567.log", "wal-0000000x.log"} {
		if matchSeq(bad, walPattern, &v) {
			t.Errorf("matchSeq accepted %q", bad)
		}
	}
}

// TestReplaySkipsRenamedFile: a wal file whose header sequence disagrees
// with its name (a restore put it in the wrong place) must be ignored,
// not replayed out of order.
func TestReplaySkipsRenamedFile(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	appendN(t, st, ref, "s", 0, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, wals, _, err := scanDir(shard0Dir(dir), Options{})
	if err != nil || len(wals) != 1 {
		t.Fatalf("scan: %v (%d files)", err, len(wals))
	}
	// Pretend a backup restored seq 1 as seq 9.
	renamed := filepath.Join(shard0Dir(dir), fmt.Sprintf(walPattern, uint64(9)))
	if err := os.Rename(wals[0].path, renamed); err != nil {
		t.Fatal(err)
	}
	st2, stats := openStore(t, dir, SyncAlways)
	defer st2.Close()
	if stats.Replayed != 0 || stats.WALFiles != 0 {
		t.Fatalf("stats %+v, want the renamed file ignored", stats)
	}
}

// TestScanDirIgnoresStrangers checks unrelated files neither replay nor
// get deleted by compaction cleanup.
func TestScanDirIgnoresStrangers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "wal-junk.log", "snap-1.plaa", "wal-00000001.log.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _, wals, _, err := scanDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 || len(wals) != 0 {
		t.Fatalf("scan picked up strangers: %v %v", snaps, wals)
	}
}

// manyShardsFill writes series spread across every partition of a
// multi-shard store, mirroring into ref.
func manyShardsFill(t *testing.T, st *Store, ref *tsdb.Archive, series, segs int) {
	t.Helper()
	for i := 0; i < series; i++ {
		appendN(t, st, ref, fmt.Sprintf("series-%02d", i), 0, segs)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedLayout verifies a multi-shard store splits its files by
// series hash: every shard dir holds only records for series it owns.
func TestPartitionedLayout(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStoreN(t, dir, 4, SyncAlways)
	manyShardsFill(t, st, ref, 16, 3)
	if err := st.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Every shard dir holds exactly one snapshot, and loading it alone
	// yields only series hashing to that shard.
	total := 0
	for k := 0; k < 4; k++ {
		sdir := filepath.Join(dir, shardDirName(k))
		snaps, _, wals, _, err := scanDir(sdir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 1 || len(wals) != 0 {
			t.Fatalf("shard %d: %d snapshots, %d wals; want 1, 0", k, len(snaps), len(wals))
		}
		part := tsdb.New()
		n, _, err := mergeSnapshot(snaps[0].path, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range part.Names() {
			if ShardIndex(name, 4) != k {
				t.Errorf("series %s in shard %d, owns %d", name, k, ShardIndex(name, 4))
			}
		}
		total += n
	}
	if total != 16 {
		t.Fatalf("shards hold %d series total, want 16", total)
	}

	st2, stats := openStoreN(t, dir, 4, SyncAlways)
	defer st2.Close()
	if stats.Migrated || stats.Dirs != 4 || stats.SnapshotSeries != 16 {
		t.Fatalf("recovery stats %+v, want 4 clean dirs, 16 snapshot series", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
}

// TestShardCountChange replays logs written with one shard count into a
// different sharding, both growing and shrinking — the restart-with-new
// `-shards` case. The first reopen migrates (fresh per-shard snapshots
// under the new layout); a second reopen must be clean.
func TestShardCountChange(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{4, 2}, {2, 8}, {3, 1}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			dir := t.TempDir()
			ref := tsdb.New()
			st, _ := openStoreN(t, dir, tc.from, SyncAlways)
			manyShardsFill(t, st, ref, 12, 4)
			// Close WITHOUT a snapshot: the new sharding must replay raw
			// per-shard tails written under the old sharding.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2, stats := openStoreN(t, dir, tc.to, SyncAlways)
			if !stats.Migrated {
				t.Fatalf("shard count %d→%d did not migrate: %+v", tc.from, tc.to, stats)
			}
			mustEqualArchives(t, st2.DB(), ref)
			appendN(t, st2, ref, "post-migrate", 0, 2)
			if err := st2.CloseSnapshot(); err != nil {
				t.Fatal(err)
			}

			// Old-layout dirs beyond the new count are gone.
			for k := tc.to; k < tc.from; k++ {
				if _, err := os.Stat(filepath.Join(dir, shardDirName(k))); !os.IsNotExist(err) {
					t.Errorf("stray shard dir %d survived migration (err=%v)", k, err)
				}
			}

			st3, stats := openStoreN(t, dir, tc.to, SyncAlways)
			defer st3.Close()
			if stats.Migrated || stats.Reconciled != 0 {
				t.Fatalf("second reopen migrated again: %+v", stats)
			}
			mustEqualArchives(t, st3.DB(), ref)
		})
	}
}

// TestLegacySingleLogMigration boots a partitioned store on a PR 2
// layout — snapshot + wal directly in the data dir root — and verifies
// the one-shot migration: recovered archive identical, root files gone,
// per-shard snapshots written, second boot clean.
func TestLegacySingleLogMigration(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	// Fabricate the legacy layout with a 1-shard store, then promote its
	// partition files to the root, as PR 2 wrote them.
	st, _ := openStore(t, dir, SyncAlways)
	manyShardsFill(t, st, ref, 8, 3)
	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(oldSeq); err != nil {
		t.Fatal(err)
	}
	appendN(t, st, ref, "series-00", 3, 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _, wals, _, err := scanDir(shard0Dir(dir), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(snaps, wals...) {
		if err := os.Rename(f.path, filepath.Join(dir, filepath.Base(f.path))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(shard0Dir(dir)); err != nil {
		t.Fatal(err)
	}

	st2, stats := openStoreN(t, dir, 4, SyncAlways)
	if !stats.Migrated {
		t.Fatalf("legacy layout did not migrate: %+v", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Root holds no log files any more; the state lives in shard dirs.
	rootSnaps, _, rootWals, _, err := scanDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rootSnaps)+len(rootWals) != 0 {
		t.Fatalf("legacy root files survived migration: %v %v", rootSnaps, rootWals)
	}

	st3, stats := openStoreN(t, dir, 4, SyncAlways)
	defer st3.Close()
	if stats.Migrated {
		t.Fatalf("second boot migrated again: %+v", stats)
	}
	mustEqualArchives(t, st3.DB(), ref)
}

// TestCrashMidMigrationReconciles interrupts a migration after the new
// snapshots are written but before the old layout is deleted: the same
// series then exists in two places, and the next boot must keep the
// longest copy exactly once.
func TestCrashMidMigrationReconciles(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStoreN(t, dir, 2, SyncAlways)
	manyShardsFill(t, st, ref, 6, 3)
	if err := st.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Duplicate every shard snapshot into the root as a stale "legacy"
	// copy — the overlap state a crash between write-new and delete-old
	// leaves (here the copies are equal-length; longest-wins keeps one).
	for k := 0; k < 2; k++ {
		snaps, _, _, _, err := scanDir(filepath.Join(dir, shardDirName(k)), Options{})
		if err != nil || len(snaps) != 1 {
			t.Fatalf("shard %d scan: %v (%d snaps)", k, err, len(snaps))
		}
		raw, err := os.ReadFile(snaps[0].path)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, fmt.Sprintf(snapPattern, uint64(k+1)))
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, stats := openStoreN(t, dir, 2, SyncAlways)
	if !stats.Migrated || stats.Reconciled == 0 {
		t.Fatalf("overlap boot stats %+v, want migration with reconciled duplicates", stats)
	}
	mustEqualArchives(t, st2.DB(), ref)
	if err := st2.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	st3, stats := openStoreN(t, dir, 2, SyncAlways)
	defer st3.Close()
	if stats.Migrated || stats.Reconciled != 0 {
		t.Fatalf("post-reconcile boot migrated again: %+v", stats)
	}
	mustEqualArchives(t, st3.DB(), ref)
}

// TestRetentionCompaction configures a retention window and verifies
// compaction drops exactly the segments whose end time aged out — from
// the live archive, the snapshot, and the recovered state alike.
func TestRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	db := tsdb.New()
	// testSeg(i) covers [2i, 2i+1]; 10 segments end at t=19. Retain 6
	// time units: segments ending before 19-6=13 (i ≤ 5) must go.
	st, _, err := Open(dir, 1, db, Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := db.GetOrCreate("aging", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(s, testSeg(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(oldSeq); err != nil {
		t.Fatal(err)
	}

	segs := s.Segments()
	if len(segs) != 4 {
		t.Fatalf("after retention compaction: %d segments, want 4 (i=6..9)", len(segs))
	}
	if segs[0].T0 != 12 {
		t.Fatalf("oldest surviving segment starts at %v, want 12", segs[0].T0)
	}
	if err := st.CloseSnapshot(); err != nil {
		t.Fatal(err)
	}

	st2, stats, err := Open(dir, 1, tsdb.New(), Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.DB().Get("aging")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 4 {
		t.Fatalf("recovered %d segments, want 4 (stats %+v)", s2.Len(), stats)
	}
}

// TestRetentionAppliedOnRecovery: segments that aged out while the store
// was closed are pruned during Open, not served until the next
// compaction.
func TestRetentionAppliedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, SyncAlways)
	s, _, err := st.DB().GetOrCreate("aging", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(s, testSeg(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // no snapshot: raw tail replay
		t.Fatal(err)
	}

	st2, stats, err := Open(dir, 1, tsdb.New(), Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if stats.RetentionDropped != 6 {
		t.Fatalf("recovery dropped %d segments, want 6 (stats %+v)", stats.RetentionDropped, stats)
	}
	s2, err := st2.DB().Get("aging")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 4 {
		t.Fatalf("recovered %d segments, want 4", s2.Len())
	}
}

// TestRetentionRecoveryPreservesNewAppends is the regression test for
// an acked-data-loss bug: recovery-time pruning shrinks the in-memory
// series while the old files still reconstruct the unpruned state, so
// without a re-baseline the post-boot appends would be logged with idx
// values a later replay's dedup mistakes for already-covered records.
func TestRetentionRecoveryPreservesNewAppends(t *testing.T) {
	dir := t.TempDir()
	// Boot 1 (no retention): 10 segments on the raw tail, no snapshot.
	st, _ := openStore(t, dir, SyncAlways)
	s, _, err := st.DB().GetOrCreate("aging", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(s, testSeg(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 2 (retention): the recovery prune drops 6 segments, then new
	// fsync-acked appends land — their recorded indices must survive the
	// next crash.
	st2, stats, err := Open(dir, 1, tsdb.New(), Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RetentionDropped != 6 || !stats.Migrated {
		t.Fatalf("boot 2 stats %+v, want 6 dropped with a re-baseline", stats)
	}
	s2, err := st2.DB().Get("aging")
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 12; i++ {
		if err := st2.Append(s2, testSeg(i)); err != nil {
			t.Fatal(err)
		}
		if err := s2.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil { // crash: no snapshot of the appends
		t.Fatal(err)
	}

	// Boot 3: the acked appends are there (retention prunes the window
	// forward, but never the newest segments).
	st3, _, err := Open(dir, 1, tsdb.New(), Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	s3, err := st3.DB().Get("aging")
	if err != nil {
		t.Fatal(err)
	}
	segs := s3.Segments()
	if len(segs) == 0 || segs[len(segs)-1].T0 != 22 {
		t.Fatalf("acked appends lost across retention recovery: %d segments, last %+v", len(segs), segs[len(segs)-1:])
	}
	if segs[0].T1 < 23-6 {
		t.Fatalf("retention window not applied: oldest segment %+v", segs[0])
	}
}

// TestRetentionLiveCompactionNoDuplicates is the regression test for a
// replay-duplication bug: live compaction rotates first and prunes
// inside Snapshot, so a record logged into the fresh tail between the
// two carries a pre-prune index. After a crash, that record claims a
// position beyond the pruned series' end and its T0 equals the last
// segment's — the one shape the time-order rejection cannot catch —
// and must be recognised as a duplicate, not appended twice.
func TestRetentionLiveCompactionNoDuplicates(t *testing.T) {
	dir := t.TempDir()
	db := tsdb.New()
	st, _, err := Open(dir, 1, db, Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := db.GetOrCreate("live", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(s, testSeg(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := st.Shard(0)
	oldSeq, err := sh.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// The worker keeps ingesting between the rotate and the snapshot:
	// seg10 lands in the fresh tail with idx 10 (pre-prune length).
	if err := st.Append(s, testSeg(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testSeg(10)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Snapshot(oldSeq); err != nil { // prunes, then snapshots
		t.Fatal(err)
	}
	wantLen := s.Len()
	wantPoints := s.Points()
	if err := st.Close(); err != nil { // crash: the fresh tail survives
		t.Fatal(err)
	}

	st2, stats, err := Open(dir, 1, tsdb.New(), Options{Policy: SyncAlways, Retain: 6, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.DB().Get("live")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != wantLen || s2.Points() != wantPoints {
		t.Fatalf("recovered %d segments / %d points, want %d / %d (stats %+v) — tail record duplicated",
			s2.Len(), s2.Points(), wantLen, wantPoints, stats)
	}
	segs := s2.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i].T0 == segs[i-1].T0 && segs[i].T1 == segs[i-1].T1 {
			t.Fatalf("duplicate segment after recovery: %+v", segs[i])
		}
	}
}

// TestMergePrefersNewerCopy is the regression test for duplicate
// reconciliation under retention: a stale unpruned leftover can hold
// MORE segments than the pruned-but-extended fresh copy, so recency
// (latest covered end time), not length, must decide which survives.
func TestMergePrefersNewerCopy(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Logf: t.Logf}.withDefaults()
	// Stale legacy copy in the root: segments 0..9 (10 segments, ends
	// at t=19).
	stale := tsdb.New()
	ss, _, err := stale.GetOrCreate("d", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ss.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnapshot(dir, 1, stale, []string{"d"}, opts); err != nil {
		t.Fatal(err)
	}
	// Fresh shard copy: pruned to segments 6..11 (6 segments, but ends
	// at t=23 — it holds the acked appends made after the migration).
	fresh := tsdb.New()
	fs, _, err := fresh.GetOrCreate("d", []float64{0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 12; i++ {
		if err := fs.Append(testSeg(i)); err != nil {
			t.Fatal(err)
		}
	}
	sdir := shard0Dir(dir)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(sdir, 1, fresh, []string{"d"}, opts); err != nil {
		t.Fatal(err)
	}

	st, stats, err := Open(dir, 1, tsdb.New(), Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if stats.Reconciled != 1 || !stats.Migrated {
		t.Fatalf("stats %+v, want one reconciled duplicate + migration", stats)
	}
	s, err := st.DB().Get("d")
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 6 || segs[len(segs)-1].T1 != 23 {
		t.Fatalf("merge kept %d segments ending at %v, want the fresh copy (6 segments through t=23)",
			len(segs), segs[len(segs)-1].T1)
	}
}

// TestLogMetricsCount checks the per-shard observability counters: bytes
// grow with appends and fsyncs count commits.
func TestLogMetricsCount(t *testing.T) {
	dir := t.TempDir()
	ref := tsdb.New()
	st, _ := openStore(t, dir, SyncAlways)
	defer st.Close()
	m0 := st.Shard(0).Metrics()
	if m0.Bytes == 0 { // header already written
		t.Fatal("fresh log reports zero bytes")
	}
	appendN(t, st, ref, "m", 0, 4)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	m := st.Shard(0).Metrics()
	if m.Bytes <= m0.Bytes {
		t.Fatalf("bytes did not grow: %d -> %d", m0.Bytes, m.Bytes)
	}
	if m.Fsyncs < 2 {
		t.Fatalf("fsyncs %d, want ≥ 2 (one per SyncAlways commit)", m.Fsyncs)
	}
}

// TestSnapshotOverlapSkipped recovers a shard whose newest snapshot
// holds [0,100] (101 samples), then [1,2] and [3,4] (2 samples each),
// which start inside it — a file a server from before the overlap rule
// could write — above an older, valid generation. The snapshot loads
// with its first segment, the two overlapping ones count as rejected as
// replay would count them, and recovery does not fall back to the older
// generation.
func TestSnapshotOverlapSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(shard0Dir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	seg := func(t0, t1 float64, pts int) core.Segment {
		return core.Segment{T0: t0, T1: t1, X0: []float64{t0}, X1: []float64{t1}, Points: pts}
	}
	for seq, segs := range map[uint64][]core.Segment{
		1: {seg(0, 50, 51)},
		2: {seg(0, 100, 101), seg(1, 2, 2), seg(3, 4, 2)},
	} {
		var blob bytes.Buffer
		if _, err := encode.EncodeAll(&blob, []float64{0.5}, false, segs); err != nil {
			t.Fatal(err)
		}
		pts := 0
		for _, s := range segs {
			pts += s.Points
		}
		b := binary.AppendUvarint([]byte("PLAA"), 1)
		b = binary.AppendUvarint(b, 2)
		b = append(b, "ov"...)
		b = binary.AppendUvarint(b, uint64(pts))
		b = binary.AppendUvarint(b, uint64(blob.Len()))
		b = append(b, blob.Bytes()...)
		if err := os.WriteFile(filepath.Join(shard0Dir(dir), fmt.Sprintf(snapPattern, seq)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, stats := openStore(t, dir, SyncAlways)
	defer st.Close()
	if stats.Rejected != 2 || stats.SnapshotSeries != 1 {
		t.Fatalf("recover stats %+v, want 2 rejected from 1 snapshot series", stats)
	}
	s, err := st.DB().Get("ov")
	if err != nil {
		t.Fatal(err)
	}
	last, _ := s.Last()
	if s.Len() != 1 || last.T1 != 100 || s.Points() != 101 {
		t.Fatalf("recovered %d segments ending at %v with %d points; want 1 ending at 100 with 101", s.Len(), last.T1, s.Points())
	}
}

package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/fsutil"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/tsdb/mmapstore"
)

// ExtentDir returns where the mmap extent store lives inside a data
// directory — shared so the server can open the store before building
// the archive over it.
func ExtentDir(dataDir string) string { return filepath.Join(dataDir, "mstore") }

// Store binds an archive to its data directory as a partitioned commit
// pipeline: one Shard per ingest shard, each owning its own
// `shard-<k>/` log file set, so appends and fsyncs on different shards
// run in parallel instead of funnelling through one mutex and one file.
// Open performs recovery — every partition replays concurrently before
// merging into the archive — and transparently migrates two legacy
// layouts in one shot: a single-log data dir written before
// partitioning, and shard directories written with a different shard
// count than the current one. The server then writes ahead through each
// shard's handle, compacts partitions independently (rotate + fence +
// snapshot per shard), and ends with CloseSnapshot on a graceful drain.
type Store struct {
	db     *tsdb.Archive
	dir    string
	opts   Options
	mm     *mmapstore.Dir // nil for the in-memory backend
	shards []*Shard
}

// RecoverStats reports what Open found in the data directory, summed
// over every partition it recovered.
type RecoverStats struct {
	// Dirs is the number of log directories recovered (a legacy
	// single-log root counts as one).
	Dirs int
	// SnapshotSeries is the number of series loaded from snapshots.
	SnapshotSeries int
	// WALFiles is the number of wal files replayed.
	WALFiles int
	// Replayed is the number of records applied to the archive.
	Replayed int
	// Skipped is the number of records a snapshot already covered.
	Skipped int
	// Rejected is the number of records the archive refused on replay
	// (the same out-of-order segments it refused live).
	Rejected int
	// TruncatedBytes is the torn tails dropped across all wal files.
	TruncatedBytes int64
	// Migrated reports that the on-disk layout did not match the current
	// sharding (a pre-partitioning single log, or logs written with a
	// different shard count) and was re-baselined into fresh per-shard
	// snapshots during Open.
	Migrated bool
	// Reconciled is the number of series found in more than one
	// partition during a migration (the state a crash mid-migration
	// leaves); the longest copy wins.
	Reconciled int
	// RetentionDropped is the number of segments the retention window
	// removed during recovery.
	RetentionDropped int
	// ExtentSeries is the number of series pre-populated from sealed
	// mmap extents (the fast cold-start path: no snapshot decode, the
	// wal tail is all that replays).
	ExtentSeries int
}

// Empty reports whether recovery found any prior state.
func (rs RecoverStats) Empty() bool {
	return rs.SnapshotSeries == 0 && rs.WALFiles == 0 && rs.ExtentSeries == 0
}

// add accumulates one partition's recovery outcome.
func (rs *RecoverStats) add(o RecoverStats) {
	rs.Dirs += o.Dirs
	rs.SnapshotSeries += o.SnapshotSeries
	rs.WALFiles += o.WALFiles
	rs.Replayed += o.Replayed
	rs.Skipped += o.Skipped
	rs.Rejected += o.Rejected
	rs.TruncatedBytes += o.TruncatedBytes
}

// recoveryUnit is one directory holding a snapshot generation + wal
// tail: a shard dir, or the data-dir root for the legacy single-log
// layout (shard == -1).
type recoveryUnit struct {
	dir    string
	shard  int
	staged *tsdb.Archive
	stats  RecoverStats
	maxSeq uint64
	seed   chainSeed
	err    error
	wals   []seqFile // cached by the extent-backed flow for its replay phase
}

// chainSeed is what recovery learned about one partition's snapshot
// chain, used to seed the owning shard's incremental-snapshot state:
// when the chain on disk read cleanly and still anchors on a full
// snapshot, the first post-boot compaction can write a partial holding
// just the series wal replay touched, instead of rewriting the whole
// partition.
type chainSeed struct {
	hasFull bool                // a full snapshot read cleanly
	fullSeq uint64              // that full snapshot's sequence
	chain   int                 // partials chained past it on disk
	clean   bool                // every chain file read cleanly
	dirty   map[string]struct{} // series wal replay parsed records for
}

// openLeftoverExtents detects and opens an extent directory a previous
// mmap-backed run left behind when this boot is configured for the
// in-memory backend — its contents must migrate into snapshot files.
func openLeftoverExtents(dir string, opts Options) (*mmapstore.Dir, error) {
	if opts.Extents != nil || !mmapstore.Exists(ExtentDir(dir)) {
		return nil, nil
	}
	return mmapstore.Open(ExtentDir(dir), opts.Logf)
}

// Open recovers the data directory into db (which must be empty) and
// opens a fresh write-ahead tail per shard. Every existing partition —
// including ones outside the current shard count, and a legacy
// single-log root — is recovered concurrently into its own staging
// archive (newest readable snapshot, then wal replay with torn-tail
// truncation), then merged into db in deterministic order. If the
// layout does not match nShards, the state is re-baselined: fresh
// per-shard snapshots are written under the current sharding first, and
// only then are the superseded files deleted, so a crash at any point
// leaves a recoverable directory. The directory is created if absent.
//
// With Options.Extents set (the mmap backend) the sealed extents
// pre-populate db directly — no snapshot decode — and only the wal
// tails replay, into the stores' append buffers. A directory written by
// the other backend (snapshot files here, an extent directory under the
// in-memory backend) is migrated in one shot, write-new-before-
// delete-old, exactly like a shard-count change.
func Open(dir string, nShards int, db *tsdb.Archive, opts Options) (st *Store, stats RecoverStats, err error) {
	if nShards <= 0 {
		nShards = 1
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}

	mm := opts.Extents
	leftover, err := openLeftoverExtents(dir, opts)
	if err != nil {
		return nil, stats, err
	}
	// The leftover handle is normally closed (and its directory removed)
	// by the migration re-baseline; on any failure before that, unmap it
	// here so a retried Open does not accumulate leaked mappings.
	// mmapstore.Dir.Close is idempotent, so the success path's close in
	// rebaseline is safe to repeat.
	defer func() {
		if err != nil && leftover != nil {
			leftover.Close()
		}
	}()
	migrate := leftover != nil
	if src := mm; src != nil || leftover != nil {
		if src == nil {
			src = leftover
		}
		n, err := src.LoadInto(db)
		if err != nil {
			return nil, stats, err
		}
		stats.ExtentSeries = n
	}

	units, err := discoverUnits(dir)
	if err != nil {
		return nil, stats, err
	}

	maxSeq := make([]uint64, nShards)
	if mm == nil && leftover == nil {
		// Parallel recovery: each partition replays into its own staging
		// archive, so an 8-shard boot costs one shard's replay time, not
		// eight.
		var wg sync.WaitGroup
		for _, u := range units {
			wg.Add(1)
			go func(u *recoveryUnit) {
				defer wg.Done()
				u.staged = tsdb.New()
				u.stats, u.maxSeq, u.seed, u.err = recoverDir(u.dir, u.staged, opts)
			}(u)
		}
		wg.Wait()

		// Merge in deterministic order — legacy root first, then shard
		// dirs ascending — so duplicate resolution does not depend on
		// goroutine scheduling.
		for _, u := range units {
			if u.err != nil {
				return nil, stats, u.err
			}
			stats.add(u.stats)
			if u.shard >= 0 && u.shard < nShards {
				maxSeq[u.shard] = u.maxSeq
			} else {
				// A legacy root log, or a shard dir beyond the current
				// count: its contents must move to the partitions that
				// now own them.
				migrate = true
			}
			// Names() hides control-prefixed series, but effective-ε
			// records ride the snapshots of the shard that owns their
			// base — merge them too, or a restart forgets the archived
			// data went coarser than its contract. They hash through
			// their base name for layout purposes, like rollup tiers.
			names := u.staged.Names()
			for _, n := range u.staged.ShedNames() {
				names = append(names, n)
			}
			for _, name := range names {
				owner := name
				if base, ok := tsdb.ParseShedName(name); ok {
					owner = base
				}
				if u.shard != ShardIndex(owner, nShards) {
					migrate = true
				}
				reconciled, err := mergeSeries(db, u.staged, name, nil)
				if err != nil {
					return nil, stats, err
				}
				if reconciled {
					stats.Reconciled++
					migrate = true
				}
			}
		}
	} else {
		// Extent-backed recovery. The archive is already populated from
		// the sealed extents, so the staging flow — which rebuilds whole
		// partitions and merges them wholesale — would fight the
		// pre-populated series. Instead: snapshot files (present only
		// around a backend migration) merge through the same
		// recency-based reconciliation first, then every wal file
		// replays directly into the archive, in deterministic unit
		// order; the per-record index check skips what the extents
		// already cover. Only the tails have anything new, so the
		// sequential pass is cheap — that is the cold-start win.
		for _, u := range units {
			snaps, parts, wals, marks, err := scanDir(u.dir, opts)
			if err != nil {
				return nil, stats, err
			}
			u.wals = wals
			for _, f := range marks {
				if f.seq > u.maxSeq {
					u.maxSeq = f.seq
				}
			}
			for _, f := range append(append(snaps, parts...), wals...) {
				if f.seq > u.maxSeq {
					u.maxSeq = f.seq
				}
			}
			if len(snaps)+len(parts)+len(wals)+len(marks) > 0 {
				stats.Dirs++
			}
			if u.shard >= 0 && u.shard < nShards {
				maxSeq[u.shard] = u.maxSeq
			} else {
				migrate = true
			}
			if len(snaps)+len(parts) == 0 {
				continue
			}
			if mm != nil {
				// Snapshot files under the extent backend are the state a
				// backend switch (or a crash during one) leaves; their
				// content must end up sealed.
				migrate = true
			}
			staged := tsdb.New()
			n, rejected, _ := loadChain(snaps, parts, staged, opts)
			stats.SnapshotSeries += n
			stats.Rejected += rejected
			// Effective-ε control series hide from Names() but ride the
			// snapshots; merge them through the same reconciliation, with
			// layout ownership resolved through their base name.
			names := staged.Names()
			for _, cn := range staged.ShedNames() {
				names = append(names, cn)
			}
			for _, name := range names {
				owner := name
				if base, ok := tsdb.ParseShedName(name); ok {
					owner = base
				}
				if u.shard != ShardIndex(owner, nShards) {
					migrate = true
				}
				reconciled, err := mergeSeries(db, staged, name, mm)
				if err != nil {
					return nil, stats, err
				}
				if reconciled {
					stats.Reconciled++
					migrate = true
				}
			}
		}
		// Replay after every snapshot has merged, so appends land on the
		// reconciled series.
		for _, u := range units {
			shard := u.shard
			seen := func(name string) {
				if shard != ShardIndex(name, nShards) {
					migrate = true
				}
			}
			for _, wf := range u.wals {
				if err := replayFile(wf.path, wf.seq, db, &stats, opts, seen); err != nil {
					return nil, stats, err
				}
			}
		}
	}

	st = &Store{db: db, dir: dir, opts: opts, mm: mm, shards: make([]*Shard, nShards)}
	for k := range st.shards {
		st.shards[k] = &Shard{db: db, dir: filepath.Join(dir, shardDirName(k)), k: k, n: nShards, opts: opts, mm: mm, dirty: make(map[string]struct{})}
		if err := os.MkdirAll(st.shards[k].dir, 0o755); err != nil {
			return nil, stats, err
		}
	}

	// Recovery applies the retention window once, so segments that aged
	// out while the server was down (or resurfaced from a
	// crash-interrupted compaction) do not serve again. Pruning shrinks
	// the in-memory series while the old files still reconstruct the
	// unpruned state, which would desynchronise the idx space new
	// appends are logged under — a later replay would then skip
	// fsync-acked records as "already covered" — so any drop forces the
	// same re-baseline a migration does: fresh snapshots of the pruned
	// state supersede every old file before the new tails open.
	for _, sh := range st.shards {
		stats.RetentionDropped += sh.pruneRetention()
	}
	if stats.RetentionDropped > 0 {
		migrate = true
	}

	if migrate {
		stats.Migrated = true
		if err := st.rebaseline(units, maxSeq, leftover); err != nil {
			return nil, stats, err
		}
	} else if mm == nil {
		// Nothing moved and every partition chain read cleanly off disk:
		// the files recovery just loaded are still a valid baseline, so
		// seed each shard's incremental-snapshot state from them. The
		// first post-boot compaction then writes a partial covering just
		// the series wal replay touched, instead of rewriting the whole
		// partition. Any doubt — a migration, an unreadable chain file,
		// retention pruning (which forces migrate above) — falls back to
		// the full-first rule.
		for _, u := range units {
			if u.shard >= 0 && u.shard < nShards {
				st.shards[u.shard].seedRecovered(u.seed)
			}
		}
	}

	for k, sh := range st.shards {
		l, err := openLog(sh.dir, maxSeq[k]+1, opts)
		if err != nil {
			st.closeOpened(k)
			return nil, stats, err
		}
		sh.log = l
		syncDir(sh.dir, opts)
	}
	syncDir(dir, opts)
	return st, stats, nil
}

// closeOpened closes the logs of shards below k after a partial Open.
func (st *Store) closeOpened(k int) {
	for _, sh := range st.shards[:k] {
		sh.close()
	}
}

// discoverUnits lists the recovery units under dir: the root itself if
// it holds legacy single-log files, plus every `shard-<k>` directory.
func discoverUnits(dir string) ([]*recoveryUnit, error) {
	var units []*recoveryUnit
	snaps, parts, wals, marks, err := scanDir(dir, Options{})
	if err != nil {
		return nil, err
	}
	if len(snaps)+len(parts)+len(wals)+len(marks) > 0 {
		units = append(units, &recoveryUnit{dir: dir, shard: -1})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		k, ok := strings.CutPrefix(e.Name(), "shard-")
		if !ok {
			continue
		}
		idx, err := strconv.Atoi(k)
		if err != nil || idx < 0 || strconv.Itoa(idx) != k {
			continue
		}
		units = append(units, &recoveryUnit{dir: filepath.Join(dir, e.Name()), shard: idx})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].shard < units[j].shard })
	return units, nil
}

// mergeSeries moves one recovered series from a staging archive into db.
// When the series already exists — only possible while merging the
// duplicate partitions a crash mid-migration (or an undeletable stale
// file) leaves — the most recent copy wins: whichever covers the later
// end time, with segment count as the tiebreak. Recency, not length,
// because retention can legally shrink the fresh copy below a stale
// unpruned leftover, and the fresh copy is the one holding any
// fsync-acked appends made since. Returns whether a duplicate was
// reconciled. With mm set (extent-backed db), replacing a series also
// removes its sealed on-disk state, so the recreate starts from an
// empty store instead of remapping the copy that just lost.
func mergeSeries(db *tsdb.Archive, staged *tsdb.Archive, name string, mm *mmapstore.Dir) (bool, error) {
	src, err := staged.Get(name)
	if err != nil {
		return false, err
	}
	dst, created, err := db.GetOrCreate(name, src.Epsilon(), src.Constant())
	if err != nil {
		return false, fmt.Errorf("wal: merge %q: %w", name, err)
	}
	if !created {
		if !newerSeries(src, dst) {
			return true, nil // dst is at least as recent
		}
		// Replace wholesale: rebuilding from the winning copy is simpler
		// to prove correct than splicing suffixes.
		if err := db.Drop(name); err != nil {
			return true, err
		}
		if mm != nil {
			if err := mm.Remove(name); err != nil {
				return true, fmt.Errorf("wal: merge %q: %w", name, err)
			}
		}
		if dst, err = db.Create(name, src.Epsilon(), src.Constant()); err != nil {
			return true, err
		}
		if err := copySeries(dst, src); err != nil {
			return true, err
		}
		return true, nil
	}
	return false, copySeries(dst, src)
}

// newerSeries reports whether a's copy of a series supersedes b's: it
// covers a later end time, or the same end with more segments.
func newerSeries(a, b *tsdb.Series) bool {
	al, aok := a.Last()
	bl, bok := b.Last()
	switch {
	case !aok:
		return false
	case !bok:
		return true
	case al.T1 != bl.T1:
		return al.T1 > bl.T1
	default:
		return a.Len() > b.Len()
	}
}

// sameSegment reports whether two segments are byte-for-byte the same
// recording.
func sameSegment(a, b core.Segment) bool {
	if a.T0 != b.T0 || a.T1 != b.T1 || a.Connected != b.Connected || a.Points != b.Points ||
		len(a.X0) != len(b.X0) || len(a.X1) != len(b.X1) {
		return false
	}
	for d := range a.X0 {
		if a.X0[d] != b.X0[d] || a.X1[d] != b.X1[d] {
			return false
		}
	}
	return true
}

// copySeries restores src's segments and sample count onto the freshly
// created dst. src was itself loaded under Series.Restore's rule or WAL
// replay's, so there is nothing left for the copy to skip.
func copySeries(dst, src *tsdb.Series) error {
	if _, err := dst.Restore(src.Segments(), src.Points()); err != nil {
		return fmt.Errorf("wal: merge %q: %w", src.Name(), err)
	}
	return nil
}

// rebaseline rewrites the archive as a fresh baseline under the current
// sharding and backend — per-shard snapshot files for the in-memory
// store, sealed extents plus per-shard seal markers for the mmap store —
// then deletes the superseded layout (including an extent directory a
// previous mmap-backed run left, once its contents are snapshotted).
// Write-new before delete-old: a crash in between leaves duplicates,
// which the next Open detects (Reconciled) and re-baselines again — the
// migration is idempotent, never lossy.
func (st *Store) rebaseline(units []*recoveryUnit, maxSeq []uint64, leftover *mmapstore.Dir) error {
	for k, sh := range st.shards {
		if st.mm != nil {
			if err := sh.sealOwned(); err != nil {
				return err
			}
			if err := writeMarker(sh.dir, maxSeq[k], st.opts); err != nil {
				return err
			}
		} else {
			if err := writeSnapshot(sh.dir, maxSeq[k], st.db, sh.ownedNames(), st.opts); err != nil {
				return err
			}
			sh.noteFull()
		}
	}
	for _, u := range units {
		if u.shard >= 0 && u.shard < len(st.shards) {
			// A kept partition: its fresh baseline at maxSeq supersedes
			// every wal file ≤ maxSeq and every older generation.
			st.shards[u.shard].removeObsolete(maxSeq[u.shard])
			continue
		}
		// The legacy root or a stray shard dir: every recognised file is
		// superseded by the new baseline.
		snaps, parts, wals, marks, err := scanDir(u.dir, st.opts)
		if err != nil {
			st.opts.logf("wal: migration scan %s: %v", u.dir, err)
			continue
		}
		for _, f := range append(append(append(snaps, parts...), wals...), marks...) {
			if err := os.Remove(f.path); err != nil {
				st.opts.logf("wal: migration remove %s: %v", f.path, err)
			}
		}
		if u.shard >= 0 {
			// Best effort: the stray dir is empty unless a stranger file
			// lives there, in which case it harmlessly stays.
			os.Remove(u.dir)
		}
		syncDir(st.dir, st.opts)
	}
	if leftover != nil {
		// The in-memory backend snapshotted everything the extents held;
		// the extent directory is now the superseded copy.
		leftover.Close()
		if err := os.RemoveAll(leftover.Root()); err != nil {
			st.opts.logf("wal: migration remove %s: %v", leftover.Root(), err)
		}
		syncDir(st.dir, st.opts)
	}
	st.opts.logf("wal: migrated %s to %d-shard layout", st.dir, len(st.shards))
	return nil
}

// DB returns the archive the store recovers into and snapshots from.
func (st *Store) DB() *tsdb.Archive { return st.db }

// NumShards returns the partition count.
func (st *Store) NumShards() int { return len(st.shards) }

// Shard returns partition k's handle — the write-ahead interface for the
// ingest shard with the same index.
func (st *Store) Shard(k int) *Shard { return st.shards[k] }

// Append routes one write-ahead record to the shard that owns s. Callers
// holding a per-shard handle (the server's workers) should append
// through it directly.
func (st *Store) Append(s *tsdb.Series, seg core.Segment) error {
	return st.shards[ShardIndex(s.Name(), len(st.shards))].Append(s, seg)
}

// Commit commits every shard, returning the first error.
func (st *Store) Commit() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.Commit(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync flushes and fsyncs every shard's log regardless of policy.
func (st *Store) Sync() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TailBytes sums the current wal file sizes across shards.
func (st *Store) TailBytes() int64 {
	var n int64
	for _, sh := range st.shards {
		n += sh.TailBytes()
	}
	return n
}

// CloseSnapshot ends the store on a graceful drain: every shard (in
// parallel) closes its log, writes a final snapshot covering everything,
// and removes its wal files — leaving each shard directory holding
// exactly one snapshot.
func (st *Store) CloseSnapshot() error {
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for i, sh := range st.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = sh.closeSnapshot()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close ends the store without snapshotting (error paths; recovery will
// replay the tails).
func (st *Store) Close() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// seqFile is one sequence-numbered file in a log directory.
type seqFile struct {
	seq  uint64
	path string
}

// scanDir lists a directory's full snapshots, incremental (partial)
// snapshots, wal files and seal markers in ascending sequence order,
// removing leftover temporaries from an interrupted snapshot or marker
// write.
func scanDir(dir string, opts Options) (snaps, parts, wals, marks []seqFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil, nil, nil
		}
		return nil, nil, nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		var seq uint64
		switch {
		case filepath.Ext(name) == ".tmp":
			opts.logf("wal: removing interrupted snapshot %s", name)
			os.Remove(path)
		case matchSeq(name, walPattern, &seq):
			wals = append(wals, seqFile{seq, path})
		case matchSeq(name, snapPattern, &seq):
			snaps = append(snaps, seqFile{seq, path})
		case matchSeq(name, partPattern, &seq):
			parts = append(parts, seqFile{seq, path})
		case matchSeq(name, markPattern, &seq):
			marks = append(marks, seqFile{seq, path})
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].seq < wals[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	sort.Slice(parts, func(i, j int) bool { return parts[i].seq < parts[j].seq })
	sort.Slice(marks, func(i, j int) bool { return marks[i].seq < marks[j].seq })
	return snaps, parts, wals, marks, nil
}

// matchSeq parses a sequence-numbered file name against a
// "<prefix>%08d<suffix>" pattern. The digits are parsed directly
// (Sscanf's %08d would stop at eight digits and reject sequences that
// outgrew the zero padding).
func matchSeq(name, pattern string, seq *uint64) bool {
	i := strings.Index(pattern, "%08d")
	if i < 0 {
		return false
	}
	digits, ok := strings.CutPrefix(name, pattern[:i])
	if !ok {
		return false
	}
	digits, ok = strings.CutSuffix(digits, pattern[i+len("%08d"):])
	if !ok || len(digits) < 8 {
		return false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return false
	}
	*seq = v
	return true
}

// recoverDir recovers one log directory into db: newest readable
// snapshot first, then every remaining wal file in sequence order with
// torn-tail truncation. It returns the directory's stats, highest
// sequence number seen (snapshot or wal), and the chain seed for the
// owning shard's incremental-snapshot state.
func recoverDir(dir string, db *tsdb.Archive, opts Options) (RecoverStats, uint64, chainSeed, error) {
	var stats RecoverStats
	var seed chainSeed
	snaps, parts, wals, marks, err := scanDir(dir, opts)
	if err != nil {
		return stats, 0, seed, err
	}
	if len(snaps)+len(parts)+len(wals)+len(marks) == 0 {
		return stats, 0, seed, nil
	}
	stats.Dirs = 1

	maxSeq := uint64(0)
	for _, f := range append(append(append(append([]seqFile(nil), snaps...), parts...), wals...), marks...) {
		if f.seq > maxSeq {
			maxSeq = f.seq
		}
	}
	stats.SnapshotSeries, stats.Rejected, seed = loadChain(snaps, parts, db, opts)

	// Replay every wal file in sequence order. Files at or below the
	// snapshot's sequence are normally deleted by compaction; if a crash
	// kept them around, the per-record index check skips everything the
	// snapshot already covers. Every parsed record marks its series in
	// the seed's dirty set — a superset of what replay actually applied,
	// which errs on covering too much in the next partial snapshot, never
	// too little.
	seed.dirty = make(map[string]struct{})
	seen := func(name string) { seed.dirty[name] = struct{}{} }
	for _, wf := range wals {
		if err := replayFile(wf.path, wf.seq, db, &stats, opts, seen); err != nil {
			return stats, maxSeq, seed, err
		}
	}
	return stats, maxSeq, seed, nil
}

// loadChain loads a directory's snapshot chain into db (empty on
// entry), newest file first so the latest copy of each series wins:
// incremental snapshots in descending sequence order, then full
// snapshots, stopping at the first full one that reads cleanly — a
// full snapshot covers every series its shard owns, so anything older
// is superseded. Leftover files a crash kept around contribute nothing
// (their series already exist) and an unreadable file is rolled back
// and skipped with a loud warning, falling through to the next older
// generation exactly as full-snapshot recovery always has. A segment
// overlapping its predecessor does not make a file unreadable: the load
// skips it (Series.Restore), as replay rejects such a record. Returns
// the number of series loaded and of segments skipped, plus a seed
// describing the chain's health —
// whether a full baseline read cleanly, how many partials stack on it,
// and whether any file in between was unreadable.
func loadChain(snaps, parts []seqFile, db *tsdb.Archive, opts Options) (loaded, skipped int, seed chainSeed) {
	seed = chainSeed{clean: true}
	for i := len(parts) - 1; i >= 0; i-- {
		n, k, err := mergeSnapshot(parts[i].path, db)
		loaded, skipped = loaded+n, skipped+k
		if err != nil {
			seed.clean = false
			opts.logf("wal: incremental snapshot %s unreadable, skipping: %v", filepath.Base(parts[i].path), err)
		}
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		n, k, err := mergeSnapshot(snaps[i].path, db)
		loaded, skipped = loaded+n, skipped+k
		if err != nil {
			seed.clean = false
			opts.logf("wal: snapshot %s unreadable, trying older: %v", filepath.Base(snaps[i].path), err)
			continue
		}
		seed.hasFull, seed.fullSeq = true, snaps[i].seq
		break
	}
	for _, pt := range parts {
		if pt.seq > seed.fullSeq {
			seed.chain++
		}
	}
	return loaded, skipped, seed
}

// mergeSnapshot reads one chain file into db, skipping series a newer
// file already provided. A decode failure rolls back exactly this
// file's contribution, so the caller can fall through to an older
// generation without a half-populated series shadowing a complete
// older copy. It returns the series created and the overlapping
// segments skipped.
func mergeSnapshot(path string, db *tsdb.Archive) (int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	created, skipped, err := tsdb.MergeInto(db, bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		for _, name := range created {
			db.Drop(name)
		}
		return 0, 0, err
	}
	return len(created), skipped, nil
}

// writeMarker records that every wal record through seq has been sealed
// into the extent store: temporary file, fsync, atomic rename,
// directory fsync — the same protocol as a snapshot write, because the
// marker carries the same "wal files ≤ seq are deletable" meaning.
func writeMarker(dir string, seq uint64, opts Options) error {
	final := filepath.Join(dir, fmt.Sprintf(markPattern, seq))
	err := fsutil.WriteFileAtomic(final, func(w io.Writer) error {
		_, werr := io.WriteString(w, walMagic)
		return werr
	})
	if err != nil {
		return err
	}
	syncDir(dir, opts)
	return nil
}

// writeSnapshot writes the named series of db as dir's full snapshot
// for seq: temporary file, fsync, atomic rename, directory fsync.
func writeSnapshot(dir string, seq uint64, db *tsdb.Archive, names []string, opts Options) error {
	return writeArchiveFile(dir, snapPattern, seq, db, names, opts)
}

// writePartial writes an incremental snapshot for seq: only the named
// (dirty) series, under the part- file class, extending the chain that
// hangs off the shard's newest full snapshot. Same write protocol as a
// full snapshot — the file carries the same deletion fence.
func writePartial(dir string, seq uint64, db *tsdb.Archive, names []string, opts Options) error {
	return writeArchiveFile(dir, partPattern, seq, db, names, opts)
}

func writeArchiveFile(dir, pattern string, seq uint64, db *tsdb.Archive, names []string, opts Options) error {
	final := filepath.Join(dir, fmt.Sprintf(pattern, seq))
	err := fsutil.WriteFileAtomic(final, func(w io.Writer) error {
		_, werr := db.WriteSeriesTo(w, names)
		return werr
	})
	if err != nil {
		return err
	}
	syncDir(dir, opts)
	return nil
}

// replayFile applies one wal file's records to db, truncating a torn
// tail in place so the next boot replays it cleanly. wantSeq is the
// sequence the file name claims; a header that disagrees means the file
// was renamed or restored out of place, and replaying it in this
// position would interleave segments out of order. seen, when non-nil,
// observes every parsed record's series name (the extent-backed flow
// uses it to notice records routed under a different shard count).
func replayFile(path string, wantSeq uint64, db *tsdb.Archive, stats *RecoverStats, opts Options, seen func(name string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		// A crash between file creation and the first flush.
		return nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	hdrSeq, headerLen, err := readHeader(br)
	if err != nil {
		// The header never made it to disk whole; nothing after it can be
		// framed, so the file holds no recoverable records.
		opts.logf("wal: %s: %v; ignoring file", filepath.Base(path), err)
		return nil
	}
	if hdrSeq != wantSeq {
		opts.logf("wal: %s: header claims sequence %d; file renamed or restored out of place, ignoring it",
			filepath.Base(path), hdrSeq)
		return nil
	}
	stats.WALFiles++
	rr := encode.NewRecordReader(br)
	for {
		payload, err := rr.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, encode.ErrTorn) {
			keep := int64(headerLen) + rr.Offset()
			dropped := info.Size() - keep
			opts.logf("wal: %s: torn tail, truncating %d bytes: %v", filepath.Base(path), dropped, err)
			stats.TruncatedBytes += dropped
			if terr := os.Truncate(path, keep); terr != nil {
				return fmt.Errorf("wal: truncate %s: %w", path, terr)
			}
			return nil
		}
		if err != nil {
			return err
		}
		rec, err := parseRecord(payload)
		if err != nil {
			// The checksum passed but the payload does not parse — a
			// writer bug or version skew, not a torn write. Keep the file
			// for inspection and stop replaying it.
			opts.logf("wal: %s: unparseable record, stopping replay of this file: %v", filepath.Base(path), err)
			return nil
		}
		if seen != nil {
			seen(rec.name)
		}
		s, _, err := db.GetOrCreate(rec.name, rec.eps, rec.constant)
		if err != nil {
			stats.Rejected++
			opts.logf("wal: replay %q: %v", rec.name, err)
			continue
		}
		if rec.idx < s.Len() {
			stats.Skipped++ // the snapshot already covers this record
			continue
		}
		if rec.idx > s.Len() {
			// The record claims a position beyond the series' end: the
			// idx space shifted under a retention prune (live compaction
			// logs the tail with pre-prune indices until the next
			// snapshot). Every such record is either older than the
			// series' end — the time-order rejection below handles it —
			// or the one that slips past that check: an exact duplicate
			// of the current last segment, skipped here as covered.
			if last, ok := s.Last(); ok && sameSegment(last, rec.seg) {
				stats.Skipped++
				continue
			}
		}
		if err := s.Append(rec.seg); err != nil {
			stats.Rejected++ // the same rejection the live apply produced
			continue
		}
		stats.Replayed++
	}
}

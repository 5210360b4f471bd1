// Package mmapstore is the read-optimized tsdb.SegmentStore: each
// series keeps its finalized segments in immutable, checksummed,
// memory-mapped extent files of fixed-width records, plus an in-memory
// append tail for segments that have not been sealed yet. The layout
// follows Ferragina & Lari's observation that PLA segment sequences
// admit compact, directly-searchable encodings: records are sorted by
// start time and fixed width, so locating a query time is a binary
// search over the mapping — no decode pass, no per-segment heap
// allocation for data at rest.
//
// A data directory holds one subdirectory per series:
//
//	mstore/
//	  <hash>-<name>/
//	    meta               contract, sample count, live-record fences
//	    ext-00000001.seg   sealed extent (header + fixed-width records)
//	    ext-00000002.seg
//
// Extents are written once, fsynced, and never modified; the meta file
// (rewritten atomically) carries the live window, so retention
// (DropHead) fences records out without touching extent bytes and
// deletes an extent file only once nothing in it is live. Sealing —
// folding the append tail into a new extent — happens at WAL
// compaction time; crash recovery maps the sealed extents as-is and
// replays only the WAL tail into the append buffer, which is what
// turns a cold start from O(decode archive) into O(map + replay tail).
//
// Stores are not safe for concurrent use on their own: tsdb.Series
// serialises every access under its lock, exactly as it does for the
// in-memory store.
package mmapstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/fsutil"
	"github.com/pla-go/pla/internal/sketch"
	"github.com/pla-go/pla/internal/tsdb"
)

// Dir is the root of an extent store: one subdirectory per series,
// shared by every series of one archive. It is safe for concurrent use
// (per-series stores are still serialised by their Series lock).
type Dir struct {
	root string
	cfg  Config
	logf func(format string, args ...any)

	// Observability counters; atomic because stores mutate under their
	// own series locks while /metrics scrapes concurrently.
	extents        atomic.Int64
	rollupExtents  atomic.Int64
	compactions    atomic.Uint64
	compactedBytes atomic.Uint64

	mu     sync.Mutex
	stores map[string]*Store
}

// Config tunes a Dir's extent compaction policy. The zero value is the
// production default (compaction at 8 extents merging toward 64Ki
// records), and the only one plad runs; tests set the knobs to force
// fragmented or aggressively merged archives.
type Config struct {
	// CompactMinExtents is how many sealed extents a series
	// accumulates before PrepareCompact offers a merge. 0 means the
	// default (8); negative disables background compaction.
	CompactMinExtents int

	// TargetRecords is the merged-extent size goal: only extents
	// smaller than this are merge candidates, and a merge run stops
	// growing once it reaches it. 0 means the default (65536).
	TargetRecords int
}

// DirMetrics is a point-in-time snapshot of the Dir's observability
// counters.
type DirMetrics struct {
	Extents        int64  // mapped live extents across open stores
	RollupExtents  int64  // subset of Extents belonging to rollup tier series
	Compactions    uint64 // committed background merges
	CompactedBytes uint64 // bytes of retired extent files merged away
}

// Open creates (if needed) and opens an extent-store root directory
// with the default Config.
func Open(root string, logf func(format string, args ...any)) (*Dir, error) {
	return OpenWith(root, Config{}, logf)
}

// OpenWith is Open with an explicit Config.
func OpenWith(root string, cfg Config, logf func(format string, args ...any)) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Dir{root: root, cfg: cfg, logf: logf, stores: make(map[string]*Store)}, nil
}

// Metrics snapshots the Dir's counters.
func (d *Dir) Metrics() DirMetrics {
	return DirMetrics{
		Extents:        d.extents.Load(),
		RollupExtents:  d.rollupExtents.Load(),
		Compactions:    d.compactions.Load(),
		CompactedBytes: d.compactedBytes.Load(),
	}
}

// compactPolicy resolves the configured compaction knobs to their
// effective values; enabled is false when compaction is switched off.
func (d *Dir) compactPolicy() (minExtents, targetRecords int, enabled bool) {
	minExtents = d.cfg.CompactMinExtents
	if minExtents < 0 {
		return 0, 0, false
	}
	if minExtents == 0 {
		minExtents = defaultCompactMinExtents
	}
	targetRecords = d.cfg.TargetRecords
	if targetRecords <= 0 {
		targetRecords = defaultCompactTargetRecords
	}
	return minExtents, targetRecords, true
}

// Exists reports whether root holds (or held) an extent store — the
// signal that a previous run used the mmap backend and a differently
// configured boot must migrate its contents.
func Exists(root string) bool {
	info, err := os.Stat(root)
	return err == nil && info.IsDir()
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

// Store returns the segment store for the named series, opening (and
// mapping) any state a previous run left on disk. It is the factory
// tsdb.NewWithNamedStore expects; unreadable leftovers are logged and
// reset rather than failing series creation.
func (d *Dir) Store(name string, eps []float64, constant bool) tsdb.SegmentStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.openLocked(name, eps, constant)
}

func (d *Dir) openLocked(name string, eps []float64, constant bool) *Store {
	if st, ok := d.stores[name]; ok {
		return st
	}
	st := &Store{
		d:        d,
		name:     name,
		dir:      filepath.Join(d.root, seriesDirName(name)),
		eps:      append([]float64(nil), eps...),
		constant: constant,
		rollup:   tsdb.IsRollupName(name),
	}
	if err := st.open(); err != nil {
		// The factory cannot fail; a series whose on-disk leftovers do
		// not load starts fresh (the write-ahead log still holds
		// anything that mattered and was not yet sealed).
		d.logf("mstore: %s: resetting unreadable series state: %v", name, err)
		st.reset()
	}
	st.addExtents(int64(len(st.exts)))
	d.stores[name] = st
	return st
}

// Remove deletes every trace of the named series — the replace path of
// duplicate-series reconciliation, where a newer copy is about to be
// rebuilt from scratch.
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.stores[name]; ok {
		st.unmapAll()
		st.addExtents(-int64(len(st.exts)))
		delete(d.stores, name)
	}
	dir := filepath.Join(d.root, seriesDirName(name))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	syncDir(d.root, d.logf)
	return nil
}

// LoadInto pre-populates db with every series the directory holds —
// the recovery step that replaces decoding a snapshot. Series whose
// archive uses this Dir as its store factory self-populate from the
// mapped extents when created; with any other factory (a migration
// back to the in-memory store) the sealed segments are re-appended
// through tsdb.Series.Restore, which skips (and this logs) a segment
// overlapping its predecessor. Returns the number of series loaded.
func (d *Dir) LoadInto(db *tsdb.Archive) (int, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		meta, err := readMeta(filepath.Join(d.root, e.Name(), metaName))
		if err != nil {
			if os.IsNotExist(err) {
				// A crash before the series' first meta write: whatever
				// extents exist are not yet covered by any meta, so the
				// WAL still holds their records. Drop the directory.
				d.logf("mstore: removing pre-meta series dir %s", e.Name())
				os.RemoveAll(filepath.Join(d.root, e.Name()))
				continue
			}
			return n, fmt.Errorf("mstore: %s: %w", e.Name(), err)
		}
		s, err := db.Create(meta.name, meta.eps, meta.constant)
		if err != nil {
			return n, fmt.Errorf("mstore: load %q: %w", meta.name, err)
		}
		if s.Len() > 0 {
			// The archive's factory is this Dir: the store came up
			// already mapped. Only the sample counter needs carrying.
			s.SetPoints(d.points(meta.name))
		} else {
			d.mu.Lock()
			st := d.openLocked(meta.name, meta.eps, meta.constant)
			d.mu.Unlock()
			skipped, err := s.Restore(st.Snapshot(), st.metaPoints)
			if err != nil {
				return n, fmt.Errorf("mstore: load %q: %w", meta.name, err)
			}
			if skipped > 0 {
				d.logf("mstore: load %q: skipped %d segments overlapping their predecessors", meta.name, skipped)
			}
		}
		n++
	}
	return n, nil
}

// points returns the persisted sample count of an open store.
func (d *Dir) points(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.stores[name]; ok {
		return st.metaPoints
	}
	return 0
}

// Close unmaps every open extent. The stores are unusable afterwards;
// call only once nothing references the archive any more.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.stores {
		st.unmapAll()
		st.addExtents(-int64(len(st.exts)))
	}
	d.stores = make(map[string]*Store)
	return nil
}

// seriesDirName builds a filesystem-safe, collision-resistant directory
// name: an FNV-1a hash of the full name plus a sanitised prefix for
// debuggability (the meta file carries the authoritative name).
func seriesDirName(name string) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
	if len(safe) > 40 {
		safe = safe[:40]
	}
	return fmt.Sprintf("%016x-%s", h.Sum64(), safe)
}

// Store is one series' segment store: sealed extents plus the append
// tail. It implements tsdb.SegmentStore, tsdb.Sealer and
// tsdb.TimeIndex.
type Store struct {
	d        *Dir
	name     string
	dir      string
	eps      []float64
	constant bool
	rollup   bool // the series is a rollup tier (tracked separately in metrics)

	exts       []*extent
	cumLive    []int     // cumLive[i] = live records in exts[:i]
	liveT0s    []float64 // liveT0s[i] = first live start time of exts[i]
	headDisc   bool      // the surviving sealed head lost its predecessor
	metaPoints int       // persisted finalized sample count
	lastSeq    uint64
	sums       map[uint64]*sidecar // loaded sketch sidecars, by extent seq

	// gen counts destructive mutations (fence drops). An in-flight
	// two-phase seal compares it between prepare and commit: a changed
	// generation means the captured tail may no longer be the store's
	// prefix, so the install is refused and the next compaction retries.
	gen uint64

	tail []core.Segment
}

// addExtents adjusts the Dir's live-extent gauges by delta, keeping
// the rollup-tier sub-gauge in step for tier stores. Every site that
// changes a store's extent count goes through here.
func (st *Store) addExtents(delta int64) {
	st.d.extents.Add(delta)
	if st.rollup {
		st.d.rollupExtents.Add(delta)
	}
}

// open maps whatever state the series directory holds.
func (st *Store) open() error {
	meta, err := readMeta(filepath.Join(st.dir, metaName))
	if os.IsNotExist(err) {
		return nil // fresh series
	}
	if err != nil {
		return err
	}
	if meta.name != st.name || !floatsEq(meta.eps, st.eps) || meta.constant != st.constant {
		return fmt.Errorf("mstore: series dir holds %q (dim %d), want %q (dim %d)",
			meta.name, len(meta.eps), st.name, len(st.eps))
	}
	st.headDisc = meta.headDisc
	st.metaPoints = meta.points
	st.lastSeq = meta.lastSeq

	// v2 metas list the live extents explicitly, in time order —
	// compaction makes sequence order and time order diverge. v1 metas
	// imply the list from the [firstSeq, lastSeq] window, where the two
	// orders still coincide.
	pos := make(map[uint64]int, len(meta.exts))
	for i, seq := range meta.exts {
		pos[seq] = i
	}

	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	var files []struct {
		seq  uint64
		path string
	}
	sumFiles := make(map[uint64]string)
	for _, e := range entries {
		var seq uint64
		if e.IsDir() {
			continue
		}
		if matchSumName(e.Name(), &seq) {
			// Sidecars are claimed by their extent below; whatever is
			// left over (out-of-window, corrupt extent, orphan) is junk.
			sumFiles[seq] = filepath.Join(st.dir, e.Name())
			continue
		}
		if !matchExtName(e.Name(), &seq) {
			continue
		}
		path := filepath.Join(st.dir, e.Name())
		dead := false
		if meta.haveList {
			_, live := pos[seq]
			dead = !live
		} else {
			dead = seq < meta.firstSeq || seq > meta.lastSeq
		}
		if dead {
			// Already retired by a fence or compaction, or newer than
			// the last meta write (a crash mid-seal or mid-compaction:
			// the WAL tail or the still-listed source extents hold
			// these records). Either way the file is dead.
			st.d.logf("mstore: %s: removing out-of-window extent %s", st.name, e.Name())
			os.Remove(path)
			continue
		}
		files = append(files, struct {
			seq  uint64
			path string
		}{seq, path})
	}
	if meta.haveList {
		sort.Slice(files, func(i, j int) bool { return pos[files[i].seq] < pos[files[j].seq] })
	} else {
		sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	}

	truncated := false
	for _, f := range files {
		ext, err := openExtent(f.path, f.seq, len(st.eps))
		if err != nil {
			// A sealed extent that no longer reads back is real
			// corruption (it was fsynced before the meta that points at
			// it). Keep the consistent prefix, quarantine the bad file
			// for inspection, and say so loudly. The truncation is made
			// durable below — otherwise anything sealed after the hole
			// would be silently re-discarded on every future boot while
			// the server keeps acking, a progressive loss instead of a
			// one-time, logged one.
			st.d.logf("mstore: %s: extent %s unreadable, keeping the %d extents before it: %v",
				st.name, filepath.Base(f.path), len(st.exts), err)
			if rerr := os.Rename(f.path, f.path+".corrupt"); rerr != nil {
				st.d.logf("mstore: %s: quarantine %s: %v", st.name, filepath.Base(f.path), rerr)
			}
			truncated = true
			break
		}
		st.exts = append(st.exts, ext)
	}
	if len(st.exts) > 0 {
		// The meta has no checksum of its own, so its fences are trusted
		// only after validating them against the (checksummed) extents: a
		// fence outside [0, count] means a corrupt meta, and serving
		// through it would index past the mapping.
		firstLive, lastLive := meta.firstSeq, meta.lastSeq
		if meta.haveList {
			firstLive, lastLive = meta.exts[0], meta.exts[len(meta.exts)-1]
		}
		if st.exts[0].seq == firstLive {
			if meta.headLo < 0 || meta.headLo > st.exts[0].count {
				return fmt.Errorf("mstore: meta head fence %d outside extent of %d records", meta.headLo, st.exts[0].count)
			}
			st.exts[0].lo = meta.headLo
		}
		last := st.exts[len(st.exts)-1]
		if last.seq == lastLive {
			if meta.tailDrop < 0 || meta.tailDrop > last.count-last.lo {
				return fmt.Errorf("mstore: meta tail fence %d outside extent of %d live records", meta.tailDrop, last.count-last.lo)
			}
			last.hi = last.count - meta.tailDrop
		}
		if len(st.exts) < len(files) {
			// The dropped suffix makes the persisted count unverifiable;
			// fall back to what the surviving records say.
			st.metaPoints = st.sumSealedPoints()
		}
	} else if len(files) > 0 {
		st.metaPoints = 0
	}
	// A fully-fenced extent holds nothing live (persist retires them
	// eagerly, so only a corrupt meta produces one); drop it now so the
	// lookup path can assume every extent has a first live record. Its
	// sidecar, left unclaimed, is removed below.
	var dead []*extent
	liveN := 0
	for _, e := range st.exts {
		if e.live() > 0 {
			st.exts[liveN] = e
			liveN++
		} else {
			dead = append(dead, e)
		}
	}
	st.exts = st.exts[:liveN]
	st.recount()
	for _, e := range st.exts {
		path, ok := sumFiles[e.seq]
		if !ok {
			continue
		}
		delete(sumFiles, e.seq)
		sc, err := readSidecar(path, len(st.eps))
		if err == nil && sc.count != e.count {
			err = fmt.Errorf("mstore: sidecar covers %d records, extent holds %d", sc.count, e.count)
		}
		if err != nil {
			st.d.logf("mstore: %s: dropping sketch sidecar %s: %v", st.name, filepath.Base(path), err)
			os.Remove(path)
			continue
		}
		if st.sums == nil {
			st.sums = make(map[uint64]*sidecar)
		}
		st.sums[e.seq] = sc
	}
	for _, path := range sumFiles {
		st.d.logf("mstore: %s: removing stray sketch sidecar %s", st.name, filepath.Base(path))
		os.Remove(path)
	}
	if truncated || len(dead) > 0 {
		// Persist the change: the meta's live list shrinks to what
		// survived, so extents after a corruption hole are removed on
		// the next boot. The sequence watermark is untouched — new
		// seals never reuse a dead extent's number. Meta first, then
		// file deletes, as everywhere.
		st.writeMeta()
		for _, e := range dead {
			e.retire(st.d.logf)
		}
		syncDir(st.dir, st.d.logf)
	}
	return nil
}

// reset drops all mapped state, leaving an empty store (the unreadable-
// leftovers escape hatch of the factory).
func (st *Store) reset() {
	st.unmapAll()
	st.exts, st.cumLive, st.liveT0s, st.tail = nil, nil, nil, nil
	st.sums = nil
	st.headDisc = false
	st.metaPoints = 0
	st.lastSeq = 0
}

func (st *Store) unmapAll() {
	for _, e := range st.exts {
		e.close()
	}
}

// recount rebuilds the cumulative live-record index and the per-extent
// first live start times after the extent set or its fences change.
func (st *Store) recount() {
	st.cumLive = st.cumLive[:0]
	st.liveT0s = st.liveT0s[:0]
	n := 0
	for _, e := range st.exts {
		st.cumLive = append(st.cumLive, n)
		st.liveT0s = append(st.liveT0s, e.t0(e.lo))
		n += e.live()
	}
	st.cumLive = append(st.cumLive, n)
}

// sealedLen returns the number of live sealed records.
func (st *Store) sealedLen() int {
	if len(st.cumLive) == 0 {
		return 0
	}
	return st.cumLive[len(st.cumLive)-1]
}

func (st *Store) sumSealedPoints() int {
	n := 0
	for _, e := range st.exts {
		for i := e.lo; i < e.hi; i++ {
			n += e.points(i)
		}
	}
	return n
}

// locateSealed maps a live sealed index onto (extent, record index).
func (st *Store) locateSealed(i int) (*extent, int) {
	k := sort.Search(len(st.exts), func(j int) bool { return st.cumLive[j+1] > i })
	e := st.exts[k]
	return e, e.lo + (i - st.cumLive[k])
}

// Append implements tsdb.SegmentStore: new segments land in the tail
// until the next seal.
func (st *Store) Append(seg core.Segment) { st.tail = append(st.tail, seg) }

// Len implements tsdb.SegmentStore.
func (st *Store) Len() int { return st.sealedLen() + len(st.tail) }

// Seg implements tsdb.SegmentStore. Sealed records are decoded from the
// mapping into fresh slices, so the returned segment stays valid after
// the extent is fenced away or unmapped.
func (st *Store) Seg(i int) core.Segment {
	sl := st.sealedLen()
	if i >= sl {
		return st.tail[i-sl]
	}
	e, rec := st.locateSealed(i)
	seg := e.segment(rec)
	if i == 0 && st.headDisc {
		seg.Connected = false
	}
	return seg
}

// segT0 reads just a record's start time — the binary-search accessor,
// no allocation.
func (st *Store) segT0(i int) float64 {
	sl := st.sealedLen()
	if i >= sl {
		return st.tail[i-sl].T0
	}
	e, rec := st.locateSealed(i)
	return e.t0(rec)
}

// SearchT0 implements tsdb.TimeIndex: the least index whose segment
// starts after t. Sealed lookup is a binary search over the extents'
// first start times → one extent → one block (or one in-extent binary
// search on v1 files), so no probe decodes a record of another extent.
func (st *Store) SearchT0(t float64) int {
	ans := 0
	if sl := st.sealedLen(); sl > 0 {
		if k := st.findExtent(t); k >= 0 {
			e := st.exts[k]
			ans = st.cumLive[k] + (e.searchLive(t) - e.lo)
		}
		if ans < sl {
			return ans
		}
	}
	return st.sealedLen() + sort.Search(len(st.tail), func(j int) bool { return st.tail[j].T0 > t })
}

// findExtent returns the index of the last extent whose first live
// record starts at or before t, or -1 when t precedes the whole sealed
// archive.
func (st *Store) findExtent(t float64) int {
	n := len(st.exts)
	if n == 0 || t < st.liveT0s[0] {
		return -1
	}
	if math.IsNaN(t) {
		// Every ordering comparison against NaN is false, so the mem
		// backend's search over the records resolves NaN to the end: the
		// last extent, where the search below lands too. Answered
		// directly so NaN probes stay byte-equal with the mem backend
		// whatever shape that search takes.
		return n - 1
	}
	return sort.Search(n, func(j int) bool { return st.liveT0s[j] > t }) - 1
}

// Snapshot implements tsdb.SegmentStore.
func (st *Store) Snapshot() []core.Segment {
	out := make([]core.Segment, 0, st.Len())
	for i, n := 0, st.Len(); i < n; i++ {
		out = append(out, st.Seg(i))
	}
	return out
}

// DropHead implements tsdb.SegmentStore: the retention fence. Sealed
// records are fenced out of the live window (meta first, then dead
// extent files deleted, so a crash in between only resurrects segments
// the next retention pass re-drops); a drop reaching into the tail
// shifts the slice as the in-memory store does.
func (st *Store) DropHead(n int) {
	if n <= 0 {
		return
	}
	st.gen++
	sealed := st.sealedLen()
	fromSealed := n
	if fromSealed > sealed {
		fromSealed = sealed
	}
	if fromSealed > 0 {
		st.metaPoints -= st.livePointsPrefix(fromSealed)
		dead := 0
		remaining := fromSealed
		for _, e := range st.exts {
			take := e.live()
			if take > remaining {
				take = remaining
			}
			e.lo += take
			remaining -= take
			if e.live() == 0 {
				dead++
			} else {
				break
			}
		}
		st.headDisc = dead < len(st.exts)
		st.persist(st.exts[dead:], st.exts[:dead])
	}
	if rest := n - fromSealed; rest > 0 {
		if rest >= len(st.tail) {
			st.tail = st.tail[:0]
		} else {
			st.tail = append(st.tail[:0], st.tail[rest:]...)
			st.tail[0].Connected = false
		}
	}
	if st.sealedLen() == 0 {
		st.headDisc = false
		if len(st.tail) > 0 {
			st.tail[0].Connected = false
		}
	}
}

// livePointsPrefix sums the sample counts of the first n live sealed
// records.
func (st *Store) livePointsPrefix(n int) int {
	pts := 0
	for i := 0; i < n; i++ {
		e, rec := st.locateSealed(i)
		pts += e.points(rec)
	}
	return pts
}

// DropTail implements tsdb.SegmentStore — the provisional-supersede
// primitive. Provisional segments only ever live in the tail (Seal
// skips them), so in practice this never reaches sealed records; if it
// ever does, the same fence mechanism retires them from the back.
func (st *Store) DropTail(n int) {
	if n <= 0 {
		return
	}
	fromTail := n
	if fromTail > len(st.tail) {
		fromTail = len(st.tail)
	}
	st.tail = st.tail[:len(st.tail)-fromTail]
	rest := n - fromTail
	if rest == 0 {
		return
	}
	st.d.logf("mstore: %s: DropTail reached %d sealed records", st.name, rest)
	st.gen++
	if sealed := st.sealedLen(); rest > sealed {
		rest = sealed
	}
	st.metaPoints -= st.livePointsSuffix(rest)
	dead := 0
	for i := len(st.exts) - 1; i >= 0 && rest > 0; i-- {
		e := st.exts[i]
		take := e.live()
		if take > rest {
			take = rest
		}
		e.hi -= take
		rest -= take
		if e.live() == 0 {
			dead++
		}
	}
	if dead == len(st.exts) {
		st.headDisc = false
	}
	st.persist(st.exts[:len(st.exts)-dead], st.exts[len(st.exts)-dead:])
}

// livePointsSuffix sums the sample counts of the last n live sealed
// records.
func (st *Store) livePointsSuffix(n int) int {
	pts := 0
	sealed := st.sealedLen()
	for i := sealed - n; i < sealed; i++ {
		e, rec := st.locateSealed(i)
		pts += e.points(rec)
	}
	return pts
}

// persist is the one mutation-durability path: write the meta for the
// surviving extents, then delete the retired files, then fsync the
// directory, then install survivors as the live set. Meta first: a
// crash before the deletes leaves dead files the next open removes,
// never a meta pointing at missing live data.
//
// It also bumps the store generation — persist is exactly the set of
// mutations an in-flight two-phase seal or compaction must observe —
// and advances the sequence watermark (lastSeq only ever grows, so
// retired numbers are never reissued).
func (st *Store) persist(survivors, retired []*extent) {
	st.gen++
	for _, e := range survivors {
		if e.seq > st.lastSeq {
			st.lastSeq = e.seq
		}
	}
	st.writeMetaFor(survivors)
	for _, e := range retired {
		delete(st.sums, e.seq)
		os.Remove(sidecarPath(e.path))
		e.retire(st.d.logf)
	}
	syncDir(st.dir, st.d.logf)
	st.addExtents(int64(len(survivors) - len(st.exts)))
	st.exts = append(st.exts[:0:0], survivors...)
	st.recount()
}

// writeMeta persists the store's current fence state.
func (st *Store) writeMeta() { st.writeMetaFor(st.exts) }

// writeMetaFor persists the meta describing the given extent set as the
// live list (failures log; the files on disk still reconstruct the
// pre-mutation state, so correctness degrades to replay time).
func (st *Store) writeMetaFor(survivors []*extent) {
	m := metaState{
		name: st.name, eps: st.eps, constant: st.constant,
		points: st.metaPoints, headDisc: st.headDisc && len(survivors) > 0,
		lastSeq: st.lastSeq, haveList: true,
	}
	if len(survivors) > 0 {
		m.exts = make([]uint64, len(survivors))
		for i, e := range survivors {
			m.exts[i] = e.seq
		}
		m.headLo = survivors[0].lo
		last := survivors[len(survivors)-1]
		m.tailDrop = last.count - last.hi
	}
	if err := writeMeta(st.dir, m, st.d.logf); err != nil {
		st.d.logf("mstore: %s: meta write: %v", st.name, err)
	}
}

// PrepareSeal implements tsdb.Sealer (phase one, under the series
// lock): it captures the finalized prefix of the append tail — and,
// when the newest extent carries a tail fence the meta could not
// express under a successor, the whole live sealed state for a rewrite —
// so the expensive extent write can run without the lock. Provisional
// segments never seal; they stay in the tail until finalized segments
// supersede them. points is the series' finalized sample count as of
// this seal.
func (st *Store) PrepareSeal(points int) (tsdb.PreparedSeal, bool) {
	final := len(st.tail)
	for final > 0 && st.tail[final-1].Provisional {
		final--
	}
	if final == 0 && st.lastSeq > 0 && points == st.metaPoints {
		return nil, false // nothing new since the last seal
	}
	p := &preparedSeal{st: st, points: points, finalCount: final, gen: st.gen, absStart: st.sealedLen()}
	if final > 0 {
		p.segs = append(p.segs, st.tail[:final]...)
		// The meta can only express a tail fence on the newest extent; if
		// the current last extent carries one (a DropTail that reached
		// sealed records — possible through the interface, never on the
		// provisional-supersede path), rewrite the whole live sealed
		// state into the new extent. firstSeq then jumps past every old
		// extent, so a crash at any point leaves either the old window or
		// the new one — never both.
		if n := len(st.exts); n > 0 && st.exts[n-1].hi < st.exts[n-1].count {
			merged := make([]core.Segment, 0, st.sealedLen()+final)
			for i, sl := 0, st.sealedLen(); i < sl; i++ {
				merged = append(merged, st.Seg(i))
			}
			p.segs = append(merged, p.segs...)
			p.rewrite = true
			p.absStart = 0
		}
		p.seq = st.lastSeq + 1
		p.path = filepath.Join(st.dir, fmt.Sprintf(extPattern, p.seq))
	}
	return p, true
}

// Seal runs a full seal in one call — the convenience the two-phase
// API collapses to when the caller owns the store outright (tests,
// offline tooling). tsdb.Series drives the phases itself so the extent
// write and fsync run outside the series lock.
func (st *Store) Seal(points int) error {
	prep, ok := st.PrepareSeal(points)
	if !ok {
		return nil
	}
	if err := prep.Write(); err != nil {
		return err
	}
	prep.Commit()
	return nil
}

// preparedSeal is one in-flight two-phase seal: the captured sealable
// segments, the chosen extent sequence, and the store generation the
// capture is valid against.
type preparedSeal struct {
	st         *Store
	points     int
	segs       []core.Segment
	finalCount int
	rewrite    bool
	gen        uint64
	seq        uint64
	path       string
	ext        *extent
	absStart   int      // live sealed index of segs[0] at prepare time
	sum        *sidecar // sketch sidecar written alongside the extent
}

// Write implements tsdb.PreparedSeal: the new extent is written and
// fsynced with no lock held, so queries keep flowing while the disk
// works. The meta does not move yet — a crash here leaves an extent
// newer than the meta, which the next open discards in favour of the
// WAL tail that still covers it.
func (p *preparedSeal) Write() error {
	st := p.st
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	if p.finalCount == 0 {
		return nil // meta-only seal (an empty series' first persistence)
	}
	if err := writeExtentV2(p.path, st.eps, st.constant, p.segs); err != nil {
		return err
	}
	ext, err := openExtent(p.path, p.seq, len(st.eps))
	if err != nil {
		os.Remove(p.path)
		return fmt.Errorf("mstore: %s: sealed extent does not read back: %w", st.name, err)
	}
	p.ext = ext
	// The sketch sidecar follows the extent inside the same crash
	// window: both exist before the meta moves, both are discarded
	// together if the seal never commits. It is an optimisation, not
	// data — a failed write degrades queries to the segment walk.
	if sc := buildSidecar(p.absStart, len(st.eps), p.segs); sc != nil {
		if err := writeSidecar(sidecarPath(p.path), sc); err != nil {
			st.d.logf("mstore: %s: sketch sidecar write (queries fall back to segment walk): %v", st.name, err)
		} else {
			p.sum = sc
		}
	}
	return nil
}

// Commit implements tsdb.PreparedSeal (under the series lock again):
// install the written extent, retire the sealed tail prefix, and move
// the meta forward. If the store mutated since PrepareSeal (a fence
// drop from retention), the captured prefix may be stale — the written
// file is discarded and the seal reports false; the WAL still covers
// everything, so the next compaction simply seals the current state.
func (p *preparedSeal) Commit() bool {
	st := p.st
	if st.gen != p.gen || len(st.tail) < p.finalCount {
		if p.ext != nil {
			p.ext.close()
			os.Remove(p.path)
			os.Remove(sidecarPath(p.path))
			syncDir(st.dir, st.d.logf)
		}
		st.d.logf("mstore: %s: store changed during seal; retrying at the next compaction", st.name)
		return false
	}
	survivors := st.exts
	var retired []*extent
	if p.ext != nil {
		if p.rewrite {
			retired, survivors = st.exts, nil
		}
		survivors = append(append([]*extent(nil), survivors...), p.ext)
		st.tail = append(st.tail[:0], st.tail[p.finalCount:]...)
	}
	st.metaPoints = p.points
	st.persist(survivors, retired)
	if p.sum != nil {
		if st.sums == nil {
			st.sums = make(map[uint64]*sidecar)
		}
		st.sums[p.seq] = p.sum
	}
	return true
}

// SummaryBlocks implements tsdb.Summarizer: the window blocks persisted
// by past seals that are still valid against the current live window.
// A sidecar's blocks are anchored at the live index its extent's first
// record had at seal time; they are served only while that anchor still
// holds — nothing fenced off the extent's front and nothing dropped
// before it — and only for windows whose records survived any tail
// fence. Everything else the query layer recomputes from the segments.
func (st *Store) SummaryBlocks() []sketch.Block {
	if len(st.sums) == 0 {
		return nil
	}
	var out []sketch.Block
	for i, e := range st.exts {
		sc := st.sums[e.seq]
		if sc == nil || e.lo != 0 || st.cumLive[i] != sc.absStart {
			continue
		}
		for _, blk := range sc.blocks {
			if blk.Hi-sc.absStart <= e.hi {
				out = append(out, blk)
			}
		}
	}
	return out
}

func floatsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// syncDir fsyncs a directory so creates, renames and removes inside it
// are durable (see fsutil.SyncDir for why failures only log).
func syncDir(dir string, logf func(string, ...any)) {
	fsutil.SyncDir(dir, func(format string, args ...any) {
		logf("mstore: "+format, args...)
	})
}

// metaState is the decoded meta file: the series contract, the
// persisted sample count, and the live extent list with its end fences.
//
// Version 1 metas expressed the live extents as the window [firstSeq,
// lastSeq]; compaction breaks the premise behind that (a merged extent
// takes a fresh, highest sequence number but sits at its records' time
// position), so version 2 lists the live sequences explicitly in time
// order and redefines lastSeq as the allocation watermark. Version 1
// files stay readable forever; every write emits version 2.
type metaState struct {
	name     string
	eps      []float64
	constant bool
	points   int
	headDisc bool

	firstSeq uint64 // v1 only: first live extent sequence
	headLo   int    // records fenced off the front of the first live extent
	lastSeq  uint64 // sequence watermark (v1: also the last live extent)
	tailDrop int    // records fenced off the back of the last live extent

	haveList bool     // v2: exts is authoritative (even when empty)
	exts     []uint64 // v2: live extent sequences in time order
}

const (
	metaName     = "meta"
	metaMagic    = "PLAM"
	metaVersion  = 1
	metaVersion2 = 2

	metaFlagConstant = 1 << 0
	metaFlagHeadDisc = 1 << 1

	// metaMaxExts bounds the extent list a meta may claim, so a corrupt
	// length prefix cannot drive a huge allocation.
	metaMaxExts = 1 << 24

	// metaMaxFenceSegs bounds the learned-index block an older writer
	// may have persisted (the reader skips it), so a corrupt count
	// cannot overflow the skip arithmetic.
	metaMaxFenceSegs = 1 << 20
)

// writeMeta atomically replaces the series meta file (fsutil's
// tmp-write/fsync/rename protocol; callers sync the directory). Always
// writes version 2, with an empty learned-index block.
func writeMeta(dir string, m metaState, logf func(string, ...any)) error {
	buf := make([]byte, 0, 64+len(m.name)+8*len(m.eps)+2*len(m.exts))
	buf = append(buf, metaMagic...)
	buf = append(buf, metaVersion2)
	var flags byte
	if m.constant {
		flags |= metaFlagConstant
	}
	if m.headDisc {
		flags |= metaFlagHeadDisc
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(m.eps)))
	for _, e := range m.eps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e))
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.name)))
	buf = append(buf, m.name...)
	buf = binary.AppendUvarint(buf, uint64(m.points))
	buf = binary.AppendUvarint(buf, m.lastSeq)
	buf = binary.AppendUvarint(buf, uint64(m.headLo))
	buf = binary.AppendUvarint(buf, uint64(m.tailDrop))
	buf = binary.AppendUvarint(buf, uint64(len(m.exts)))
	for _, seq := range m.exts {
		buf = binary.AppendUvarint(buf, seq)
	}
	buf = binary.AppendUvarint(buf, 0) // fenceSegs: no learned index

	return fsutil.WriteFileAtomic(filepath.Join(dir, metaName), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// readMeta decodes a series meta file, either version.
func readMeta(path string) (metaState, error) {
	var m metaState
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	p := raw
	if len(p) < len(metaMagic)+2 || string(p[:len(metaMagic)]) != metaMagic {
		return m, fmt.Errorf("mstore: bad meta magic")
	}
	p = p[len(metaMagic):]
	version := p[0]
	if version != metaVersion && version != metaVersion2 {
		return m, fmt.Errorf("mstore: unknown meta version %d", version)
	}
	flags := p[1]
	m.constant = flags&metaFlagConstant != 0
	m.headDisc = flags&metaFlagHeadDisc != 0
	p = p[2:]
	dim, p, err := takeUvarint(p)
	if err != nil || dim == 0 || dim > 1<<20 {
		return m, fmt.Errorf("mstore: bad meta dimensionality")
	}
	if uint64(len(p)) < 8*dim {
		return m, fmt.Errorf("mstore: truncated meta epsilon")
	}
	m.eps = make([]float64, dim)
	for i := range m.eps {
		m.eps[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	p = p[8*dim:]
	nameLen, p, err := takeUvarint(p)
	if err != nil || nameLen > 1<<16 || uint64(len(p)) < nameLen {
		return m, fmt.Errorf("mstore: bad meta name")
	}
	m.name = string(p[:nameLen])
	p = p[nameLen:]

	var points, headLo, tailDrop uint64
	var fields []*uint64
	if version == metaVersion {
		fields = []*uint64{&points, &m.firstSeq, &headLo, &m.lastSeq, &tailDrop}
	} else {
		fields = []*uint64{&points, &m.lastSeq, &headLo, &tailDrop}
	}
	for _, dst := range fields {
		v, rest, err := takeUvarint(p)
		if err != nil {
			return m, fmt.Errorf("mstore: truncated meta")
		}
		*dst, p = v, rest
	}
	if points > 1<<40 || headLo > 1<<32 || tailDrop > 1<<32 {
		return m, fmt.Errorf("mstore: implausible meta counters")
	}
	m.points, m.headLo, m.tailDrop = int(points), int(headLo), int(tailDrop)
	if version == metaVersion {
		return m, nil
	}

	nExts, p, err := takeUvarint(p)
	if err != nil || nExts > metaMaxExts || nExts > uint64(len(p)) {
		return m, fmt.Errorf("mstore: bad meta extent list")
	}
	m.haveList = true
	m.exts = make([]uint64, nExts)
	for i := range m.exts {
		if m.exts[i], p, err = takeUvarint(p); err != nil {
			return m, fmt.Errorf("mstore: truncated meta extent list")
		}
	}

	// Metas written before the learned fence index went may carry one:
	// a segment count, a bound and 32 bytes per segment. Check the
	// block is whole, then ignore it.
	nFence, p, err := takeUvarint(p)
	if err != nil || nFence > metaMaxFenceSegs {
		return m, fmt.Errorf("mstore: bad meta fence index")
	}
	if nFence > 0 {
		if _, p, err = takeUvarint(p); err != nil {
			return m, fmt.Errorf("mstore: bad meta fence bound")
		}
		if uint64(len(p)) < 32*nFence {
			return m, fmt.Errorf("mstore: truncated meta fence index")
		}
	}
	return m, nil
}

func takeUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("mstore: bad uvarint")
	}
	return v, p[n:], nil
}

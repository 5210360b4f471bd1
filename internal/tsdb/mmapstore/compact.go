package mmapstore

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/tsdb"
)

// Background extent compaction. Every seal emits one extent, so a
// long-lived series accumulates hundreds of small mapped files — each
// a page-cache entry, an mmap region and a lookup probe. Compaction
// merges an adjacent run of small extents into one large, time-sorted
// extent (in the configured write format, so v1 archives migrate to v2
// as a side effect), reusing the two-phase seal machinery: prepare
// captures under the series lock, the write and fsync run unlocked,
// commit re-checks the store generation and installs via persist —
// meta (with the new live list) first, retired files deleted after, so
// a crash at any boundary leaves either the old extents or the merged
// one, never neither. Retention fences are garbage-collected by the
// merge (only live records are copied) and the merged extent gets a
// fresh sketch sidecar anchored at the run's live offset.
const (
	defaultCompactMinExtents    = 8
	defaultCompactTargetRecords = 1 << 16
)

// PrepareCompact implements tsdb.Compactor (phase one, under the
// series lock): pick one run of adjacent small extents and capture its
// live records. Returns false when the policy is off, the store is
// small, or no run qualifies. Callers loop — one merge per call keeps
// the lock hold and the unlocked write bounded near TargetRecords.
func (st *Store) PrepareCompact() (tsdb.PreparedSeal, bool) {
	minExts, target, enabled := st.d.compactPolicy()
	if !enabled || len(st.exts) < minExts {
		return nil, false
	}
	i, j := compactRun(st.exts, target)
	if j-i < 2 {
		return nil, false
	}
	p := &preparedCompact{st: st, gen: st.gen, i: i, j: j, absStart: st.cumLive[i]}
	for k := i; k < j; k++ {
		e := st.exts[k]
		p.bytesIn += uint64(len(e.data))
		for r := e.lo; r < e.hi; r++ {
			p.segs = append(p.segs, e.segment(r))
		}
	}
	p.seq = st.lastSeq + 1
	p.path = filepath.Join(st.dir, fmt.Sprintf(extPattern, p.seq))
	return p, true
}

// compactRun returns the first run [i, j) of at least two adjacent
// extents that are each smaller than target, growing until the run
// reaches target live records. Returns an empty run when nothing
// qualifies (large extents are never rewritten — v1 ones included;
// they stay readable as they are).
func compactRun(exts []*extent, target int) (int, int) {
	i := 0
	for i < len(exts) {
		if exts[i].live() >= target {
			i++
			continue
		}
		j, total := i, 0
		for j < len(exts) && exts[j].live() < target && total < target {
			total += exts[j].live()
			j++
		}
		if j-i >= 2 {
			return i, j
		}
		i = j // a lone small extent; no neighbour to merge with
	}
	return 0, 0
}

// preparedCompact is one in-flight merge: the captured run, its
// decoded live records, and the generation the capture is valid
// against.
type preparedCompact struct {
	st       *Store
	gen      uint64
	i, j     int // the captured extent run [i, j)
	segs     []core.Segment
	absStart int // live sealed index of segs[0] at prepare time
	bytesIn  uint64
	seq      uint64
	path     string
	ext      *extent
	sum      *sidecar
}

// Write implements tsdb.PreparedSeal: the merged extent is written,
// read back and fsynced with no lock held.
func (p *preparedCompact) Write() error {
	st := p.st
	if err := writeExtentV2(p.path, st.eps, st.constant, p.segs); err != nil {
		return err
	}
	ext, err := openExtent(p.path, p.seq, len(st.eps))
	if err != nil {
		os.Remove(p.path)
		return fmt.Errorf("mstore: %s: compacted extent does not read back: %w", st.name, err)
	}
	p.ext = ext
	// The merged sidecar replaces the retired extents' sidecars inside
	// the same crash window as the extent itself; like theirs, it is a
	// cache — a failed write just degrades queries to the segment walk.
	if sc := buildSidecar(p.absStart, len(st.eps), p.segs); sc != nil {
		if err := writeSidecar(sidecarPath(p.path), sc); err != nil {
			st.d.logf("mstore: %s: compacted sketch sidecar write (queries fall back to segment walk): %v", st.name, err)
		} else {
			p.sum = sc
		}
	}
	return nil
}

// Commit implements tsdb.PreparedSeal (under the series lock again):
// splice the merged extent over its source run and move the meta's
// live list. Any interleaved mutation — a seal, a retention fence,
// another compaction — bumped the generation via persist, so a stale
// capture is discarded and reports false; the source extents are still
// live, nothing is lost, and the next trigger retries.
func (p *preparedCompact) Commit() bool {
	st := p.st
	if st.gen != p.gen {
		p.ext.close()
		os.Remove(p.path)
		os.Remove(sidecarPath(p.path))
		syncDir(st.dir, st.d.logf)
		st.d.logf("mstore: %s: store changed during compaction; retrying at the next trigger", st.name)
		return false
	}
	survivors := make([]*extent, 0, len(st.exts)-(p.j-p.i)+1)
	survivors = append(survivors, st.exts[:p.i]...)
	survivors = append(survivors, p.ext)
	survivors = append(survivors, st.exts[p.j:]...)
	retired := append([]*extent(nil), st.exts[p.i:p.j]...)
	st.persist(survivors, retired)
	if p.sum != nil {
		if st.sums == nil {
			st.sums = make(map[uint64]*sidecar)
		}
		st.sums[p.seq] = p.sum
	}
	st.d.compactions.Add(1)
	st.d.compactedBytes.Add(p.bytesIn)
	return true
}

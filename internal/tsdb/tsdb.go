// Package tsdb is a compact time-series archive built directly on
// piece-wise linear segments — the "repository" half of the paper's
// motivation (Section 1): monitoring data is filtered at the edge and
// stored as segments, not samples, for later offline analysis.
//
// Because every original sample is guaranteed to lie within ε of the
// stored approximation, the archive can answer range queries and
// aggregates with deterministic error bounds instead of exact values:
// AggregateResult carries both the estimate (computed analytically over
// the line segments) and the ±ε band that is guaranteed to contain the
// corresponding statistic of the reconstruction evaluated at any sample
// times.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/sketch"
)

// Errors returned by the archive.
var (
	// ErrExists reports a series created twice.
	ErrExists = errors.New("tsdb: series already exists")
	// ErrUnknown reports an operation on a missing series.
	ErrUnknown = errors.New("tsdb: unknown series")
	// ErrOrder reports segments appended out of time order.
	ErrOrder = errors.New("tsdb: segments out of time order")
	// ErrDim reports mismatched dimensionality.
	ErrDim = errors.New("tsdb: dimensionality mismatch")
	// ErrRange reports an invalid query range.
	ErrRange = errors.New("tsdb: invalid time range")
	// ErrFormat reports a malformed archive file.
	ErrFormat = errors.New("tsdb: malformed archive")
	// ErrContract reports a series opened with a precision contract that
	// does not match the stored one.
	ErrContract = errors.New("tsdb: precision contract mismatch")
	// ErrNoData reports a valid query range with no coverage. It wraps
	// ErrRange, so existing Is(ErrRange) checks keep matching, while
	// callers that must distinguish "nothing there" from "bad request"
	// (the network query layer) can test for it specifically.
	ErrNoData = fmt.Errorf("%w: no data", ErrRange)
)

// Archive holds many named series. It is safe for concurrent use.
// Create one with New.
type Archive struct {
	mu       sync.RWMutex
	series   map[string]*Series
	newStore func(name string, eps []float64, constant bool) SegmentStore

	// tiers holds rollup tier series (see rollup.go), registered apart
	// from the user namespace: Names, "*" fan-out, snapshots and WAL
	// ownership never see them, while Get and persistence recovery (which
	// address them by their reserved names) do.
	tiers  map[string]*Series
	ladder []int // rollup precision multipliers, ascending; nil = disabled

	rollupBuilds   atomic.Int64 // rollup passes that extended a tier
	rollupSegments atomic.Int64 // tier segments appended, lifetime
}

// New returns an empty archive backed by in-memory segment stores.
func New() *Archive {
	return NewWithStore(NewMemStore)
}

// NewWithStore returns an empty archive whose series keep their segments
// in stores built by factory (one store per series).
func NewWithStore(factory func() SegmentStore) *Archive {
	return NewWithNamedStore(func(string, []float64, bool) SegmentStore { return factory() })
}

// NewWithNamedStore returns an empty archive whose series keep their
// segments in stores built per series from its name and precision
// contract — the constructor for stores with per-series on-disk state
// (the mmap extent store), which may come up already holding the
// segments a previous run sealed. A pre-populated store's series starts
// with those segments; the caller restores its sample counter with
// SetPoints.
func NewWithNamedStore(factory func(name string, eps []float64, constant bool) SegmentStore) *Archive {
	return &Archive{
		series:   make(map[string]*Series),
		tiers:    make(map[string]*Series),
		newStore: factory,
	}
}

// Series is one stored stream: ordered segments plus the precision
// contract they were produced under.
//
// A series may end in a short run of provisional segments — max-lag
// receiver updates (Sections 3.3, 4.3) announcing the sender's current
// line for still-open filtering intervals. Provisional segments answer
// queries like any other (they keep the ±ε guarantee for the points
// they cover) but are transient: finalized segments supersede them, and
// snapshots never persist them. The series additionally tracks a
// consumed high-water mark — the most points (final + provisional) it
// has ever represented — so staleness (how far finalized coverage
// trails what the sender has consumed) is observable even while
// provisional tails come and go.
type Series struct {
	mu          sync.RWMutex
	name        string
	eps         []float64
	constant    bool
	store       SegmentStore
	points      int // original samples represented, provisional included
	provisional int // trailing provisional segments in the store
	provPoints  int // samples those provisional segments represent
	consumed    int // high-water of points: most samples ever represented
	lagHint     int // last advertised m_max_lag bound (0 = none/unbounded)

	// effEps, when non-nil, is the effective per-dimension precision of
	// the archived data: the contract ε inflated by whatever degradation
	// the data passed through (sender-side decimation under the Sample
	// overload policy, a coarser renegotiated ε). It only ever widens —
	// once coarse data is in the archive, every answer over it must say
	// so — and query bounds report it in place of the contract.
	effEps []float64

	// blkMu guards blocks, the memoized pushdown summary windows (see
	// pushdown.go). A separate lock: queries memoize while holding only
	// the read half of mu.
	blkMu  sync.Mutex
	blocks map[int]sketch.Block
}

// Create adds an empty series with the given precision contract.
// constant marks piece-wise constant (cache filter) data.
func (a *Archive) Create(name string, eps []float64, constant bool) (*Series, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("%w: empty epsilon", ErrDim)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.registry(name)[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	return a.createLocked(name, eps, constant), nil
}

// registry returns the map a series name registers in: rollup tier and
// effective-ε control names live apart from the user namespace. a.mu
// must be held.
func (a *Archive) registry(name string) map[string]*Series {
	if IsRollupName(name) || IsShedName(name) {
		return a.tiers
	}
	return a.series
}

// createLocked builds and registers a series; a.mu must be held.
func (a *Archive) createLocked(name string, eps []float64, constant bool) *Series {
	s := &Series{name: name, eps: append([]float64(nil), eps...), constant: constant}
	s.store = a.newStore(name, s.eps, constant)
	a.registry(name)[name] = s
	return s
}

// GetOrCreate returns the named series, creating it atomically if absent —
// the handshake path for concurrent network ingestion, where many
// connections may race to open the same series. An existing series is only
// returned when its precision contract (ε vector and constant flag)
// matches the declared one; a mismatch is ErrContract.
func (a *Archive) GetOrCreate(name string, eps []float64, constant bool) (s *Series, created bool, err error) {
	if len(eps) == 0 {
		return nil, false, fmt.Errorf("%w: empty epsilon", ErrDim)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.registry(name)[name]; ok {
		if err := s.matches(eps, constant); err != nil {
			return nil, false, err
		}
		return s, false, nil
	}
	return a.createLocked(name, eps, constant), true, nil
}

// matches checks a declared precision contract against the series'.
func (s *Series) matches(eps []float64, constant bool) error {
	if len(eps) != len(s.eps) {
		return fmt.Errorf("%w: %q has dim %d, declared %d", ErrContract, s.name, len(s.eps), len(eps))
	}
	for i, e := range eps {
		if e != s.eps[i] {
			return fmt.Errorf("%w: %q has ε_%d = %v, declared %v", ErrContract, s.name, i, s.eps[i], e)
		}
	}
	if constant != s.constant {
		return fmt.Errorf("%w: %q constant=%v, declared %v", ErrContract, s.name, s.constant, constant)
	}
	return nil
}

// Get returns a series by name; rollup tier names resolve too.
func (a *Archive) Get(name string) (*Series, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.registry(name)[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return s, nil
}

// Drop removes a series; dropping a base series takes its rollup tiers
// with it (derived data never outlives its source).
func (a *Archive) Drop(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	reg := a.registry(name)
	if _, ok := reg[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	delete(reg, name)
	if !IsRollupName(name) && !IsShedName(name) {
		for tn := range a.tiers {
			if b, _, ok := ParseRollupName(tn); ok && b == name {
				delete(a.tiers, tn)
			}
			if b, ok := ParseShedName(tn); ok && b == name {
				delete(a.tiers, tn)
			}
		}
	}
	return nil
}

// Names returns the sorted series names.
func (a *Archive) Names() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.series))
	for n := range a.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ingest filters a signal with f and stores the resulting segments under
// name (creating the series with f's precision contract). It returns the
// stored series.
func (a *Archive) Ingest(name string, f core.Filter, signal []core.Point) (*Series, error) {
	_, constant := f.(*core.Cache)
	s, err := a.Create(name, f.Epsilon(), constant)
	if err != nil {
		return nil, err
	}
	segs, err := core.Run(f, signal)
	if err != nil {
		return nil, err
	}
	if err := s.Append(segs...); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.points = f.Stats().Points
	s.consumed = s.points
	s.mu.Unlock()
	return s, nil
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Epsilon returns the series' precision contract (do not modify).
func (s *Series) Epsilon() []float64 { return s.eps }

// Constant reports whether the series holds piece-wise constant data.
func (s *Series) Constant() bool { return s.constant }

// Dim returns the series dimensionality.
func (s *Series) Dim() int { return len(s.eps) }

// Append stores finalized segments, which must match the series
// dimensionality and must not overlap: each starts no earlier than the
// previous finalized segment ends. Any provisional tail is dropped:
// finalized segments supersede the announcements that preceded them
// (the sender re-covers the same interval, possibly with a different
// end point). The whole batch is validated against the post-supersede
// state before anything mutates, so a rejected segment never costs the
// series its still-valid provisional coverage.
func (s *Series) Append(segs ...core.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(segs) > 0 {
		// The first segment must follow the last surviving (finalized)
		// segment; the rest chain among themselves.
		prev := s.store.Len() - s.provisional - 1
		prevT1 := 0.0
		if prev >= 0 {
			prevT1 = s.store.Seg(prev).T1
		}
		if err := validateSeg(segs[0], len(s.eps), prevT1, prev >= 0); err != nil {
			return err
		}
		for i := 1; i < len(segs); i++ {
			if err := validateSeg(segs[i], len(s.eps), segs[i-1].T1, true); err != nil {
				return err
			}
		}
	}
	if s.provisional > 0 {
		s.dropProvisionalLocked(s.provisional)
	}
	for _, seg := range segs {
		seg.Provisional = false
		s.storeLocked(seg)
	}
	return nil
}

// Restore re-appends a recovered series' finalized segments — a
// snapshot's, or another store's during a migration — and sets the
// sample count to points. A segment that starts before its predecessor
// ends (an overlapping run an older server accepted) is skipped and its
// samples taken off points, as WAL replay rejects such a record on its
// own: the rest of the series still loads. Any other invalid segment
// fails the call as Append does, before anything mutates. It returns
// how many segments it skipped.
func (s *Series) Restore(segs []core.Segment, points int) (skipped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.store.Len() - s.provisional - 1
	notBefore, havePrev := 0.0, prev >= 0
	if havePrev {
		notBefore = s.store.Seg(prev).T1
	}
	var drop []int // indices of skipped segments, ascending
	for i, seg := range segs {
		if err := validateSeg(seg, len(s.eps), notBefore, havePrev); err != nil {
			if seg.T1 < seg.T0 || !errors.Is(err, ErrOrder) {
				return 0, err
			}
			drop = append(drop, i)
			points -= seg.Points
			continue
		}
		notBefore, havePrev = seg.T1, true
	}
	skipped = len(drop)
	if s.provisional > 0 {
		s.dropProvisionalLocked(s.provisional)
	}
	for i, seg := range segs {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		seg.Provisional = false
		s.storeLocked(seg)
	}
	s.points, s.consumed = points, points
	return skipped, nil
}

// AppendProvisional stores one provisional receiver update. Trailing
// provisional segments it supersedes are dropped — any that overlap
// it, or start at or after its start (a degenerate single-point
// announcement re-announced from the same pivot) — so provisional
// segments always form a disjoint suffix behind the finalized ones,
// while a contiguous announcement batch (slide ships previous +
// current interval back to back) is kept whole. Validation runs before
// the drop, so a rejected update leaves the existing tail untouched.
func (s *Series) AppendProvisional(seg core.Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	drop := 0
	for drop < s.provisional {
		tail := s.store.Seg(s.store.Len() - 1 - drop)
		if tail.T1 <= seg.T0 && tail.T0 < seg.T0 {
			break
		}
		drop++
	}
	// Provisional updates keep their supersede rule: the loop above
	// leaves only provisional survivors that end by seg's start, and a
	// finalized predecessor must merely not start after seg does.
	prev := s.store.Len() - 1 - drop
	prevT0 := 0.0
	if prev >= 0 {
		prevT0 = s.store.Seg(prev).T0
	}
	if err := validateSeg(seg, len(s.eps), prevT0, prev >= 0); err != nil {
		return err
	}
	s.dropProvisionalLocked(drop)
	seg.Provisional = true
	s.storeLocked(seg)
	return nil
}

// validateSeg is the segment-acceptance rule: matching dimensionality,
// a forward span, and, when the segment has a predecessor, a start no
// earlier than notBefore — the predecessor's end for finalized segments
// (a PLA's segments never overlap), its start for provisional updates.
func validateSeg(seg core.Segment, dim int, notBefore float64, havePrev bool) error {
	if seg.Dim() != dim || len(seg.X1) != dim {
		return fmt.Errorf("%w: segment dim %d, series dim %d", ErrDim, seg.Dim(), dim)
	}
	if seg.T1 < seg.T0 {
		return fmt.Errorf("%w: segment ends before it starts", ErrOrder)
	}
	if havePrev && seg.T0 < notBefore {
		return fmt.Errorf("%w: segment at %v starts before %v", ErrOrder, seg.T0, notBefore)
	}
	return nil
}

// storeLocked appends a validated segment and advances the counters;
// s.mu must be held.
func (s *Series) storeLocked(seg core.Segment) {
	s.store.Append(seg)
	s.points += seg.Points
	if seg.Provisional {
		s.provisional++
		s.provPoints += seg.Points
	}
	if s.points > s.consumed {
		s.consumed = s.points
	}
}

// dropProvisionalLocked removes the n newest provisional segments;
// s.mu must be held and n ≤ s.provisional.
func (s *Series) dropProvisionalLocked(n int) {
	for i := 0; i < n; i++ {
		pts := s.store.Seg(s.store.Len() - 1 - i).Points
		s.points -= pts
		s.provPoints -= pts
	}
	s.store.DropTail(n)
	s.provisional -= n
}

// DropBefore removes the oldest stored segments whose coverage ends
// before t, returning how many were dropped — the retention primitive.
// It stops at the first segment that reaches t, so a long segment
// spanning the cutoff (and anything after it) survives, and the series
// keeps serving a contiguous, time-ordered suffix.
func (s *Series) DropBefore(t float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, dropped := 0, 0
	for n < s.store.Len() && s.store.Seg(n).T1 < t {
		seg := s.store.Seg(n)
		s.points -= seg.Points
		dropped += seg.Points
		if seg.Provisional {
			s.provisional--
			s.provPoints -= seg.Points
		}
		n++
	}
	if n > 0 {
		s.store.DropHead(n)
		// Retention forgets the dropped samples entirely; shrink the
		// consumed high-water in step so staleness keeps measuring the
		// recent uncovered window, not the whole retired history.
		if s.consumed -= dropped; s.consumed < s.points {
			s.consumed = s.points
		}
		// Live indices shifted: the memoized pushdown windows no longer
		// sit on the grid. Queries rebuild them lazily.
		s.invalidateBlocks()
	}
	return n
}

// Seal folds the store's append tail into its read-optimized sealed
// form when the backing store supports it (the mmap extent store); a
// no-op for plain in-memory stores. Compaction calls it where it would
// write the series into a snapshot. The extent write and fsync run
// outside the series lock, so queries never stall on the disk; if the
// store mutates while the write is in flight (a retention prune from
// another goroutine), the install is refused and the next compaction
// retries — nothing is lost either way, the WAL still covers the tail.
func (s *Series) Seal() error {
	sl, ok := s.store.(Sealer)
	if !ok {
		return nil
	}
	s.mu.Lock()
	prep, ok := sl.PrepareSeal(s.points - s.provPoints)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := prep.Write(); err != nil {
		return err
	}
	s.mu.Lock()
	prep.Commit()
	s.mu.Unlock()
	return nil
}

// CompactStore asks a Compactor-backed store to merge one run of
// small sealed extents, mirroring Seal's lock choreography: capture
// under the lock, write with queries flowing, splice in under the lock
// again. Reports whether a merge committed — callers loop until false.
func (s *Series) CompactStore() (bool, error) {
	c, ok := s.store.(Compactor)
	if !ok {
		return false, nil
	}
	s.mu.Lock()
	prep, ok := c.PrepareCompact()
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := prep.Write(); err != nil {
		return false, err
	}
	s.mu.Lock()
	done := prep.Commit()
	s.mu.Unlock()
	return done, nil
}

// Last returns the newest stored segment.
func (s *Series) Last() (core.Segment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.store.Len()
	if n == 0 {
		return core.Segment{}, false
	}
	return s.store.Seg(n - 1), true
}

// Segments returns a copy of the stored segments.
func (s *Series) Segments() []core.Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Snapshot()
}

// Len returns the number of stored segments.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Len()
}

// SetPoints overrides the original-sample counter. Recovery uses it to
// carry the count across archive rebuilds, where the segments alone
// cannot reproduce it (each knows its own Points, but drops and merges
// shift the total). The consumed high-water restarts from the same
// count: recovery never restores provisional tails, so there is nothing
// outstanding to measure staleness against.
func (s *Series) SetPoints(n int) {
	s.mu.Lock()
	s.points = n
	s.consumed = n
	s.mu.Unlock()
}

// Points returns the number of original samples the series represents,
// provisional coverage included.
func (s *Series) Points() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.points
}

// FinalPoints returns the samples represented by finalized segments
// only.
func (s *Series) FinalPoints() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.points - s.provPoints
}

// PendingPoints returns the samples covered only provisionally — the
// receiver's current max-lag window.
func (s *Series) PendingPoints() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.provPoints
}

// FinalLen returns the number of finalized stored segments (the index
// space durable logs record positions in; provisional tails are never
// logged).
func (s *Series) FinalLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store.Len() - s.provisional
}

// Consumed returns the consumed high-water mark: the most samples this
// series has ever represented, final or provisional. It only moves
// forward (retention aside), so a finalized segment that supersedes a
// longer provisional announcement does not hide that the sender got
// further.
func (s *Series) Consumed() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.consumed
}

// Staleness returns how many consumed samples finalized coverage
// trails: Consumed() − FinalPoints(). For a session honouring an
// m_max_lag bound this stays ≤ m; for an unbounded session it is the
// sender's current filtering-interval length (unknowable here, so 0
// until segments arrive). It distinguishes "flat signal" (large
// segments, staleness bounded) from "lagging filter" only when the
// sender announces provisional updates.
func (s *Series) Staleness() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.consumed - (s.points - s.provPoints)
}

// NoteEffectiveEpsilon widens the series' effective precision to at
// least eff in every dimension. It is monotone: the effective ε reports
// the coarsest data ever archived under the contract, so it never
// narrows while that data may still be served. Dimensions beyond the
// series' are ignored; components below the contract are clamped to it.
func (s *Series) NoteEffectiveEpsilon(eff []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.eps {
		if i >= len(eff) {
			break
		}
		e := eff[i]
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= s.eps[i] {
			continue
		}
		if s.effEps == nil {
			s.effEps = append([]float64(nil), s.eps...)
		}
		if e > s.effEps[i] {
			s.effEps[i] = e
		}
	}
}

// QueryEpsilon returns the per-dimension precision query bounds must
// report: the contract ε, inflated by any degradation the archived data
// passed through (do not modify). Equal to Epsilon when nothing was ever
// shed or renegotiated.
func (s *Series) QueryEpsilon() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.effEps == nil {
		return s.eps
	}
	return s.effEps
}

// EffExtra returns the effective-ε inflation above contract in dim —
// the extra band width every answer over this series must absorb, even
// when served from a rollup tier (the tier re-encodes data that was
// already coarse).
func (s *Series) EffExtra(dim int) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.effEps == nil || dim < 0 || dim >= len(s.eps) {
		return 0
	}
	return s.effEps[dim] - s.eps[dim]
}

// queryEps returns the reported precision in one dimension; the
// pushdown and aggregate paths use it where they used the contract.
func (s *Series) queryEps(dim int) float64 {
	if s.effEps != nil && dim < len(s.effEps) {
		return s.effEps[dim]
	}
	return s.eps[dim]
}

// SetLagHint records the m_max_lag bound the most recent ingest session
// advertised for this series (informational, surfaced by LAG queries).
func (s *Series) SetLagHint(m int) {
	s.mu.Lock()
	s.lagHint = m
	s.mu.Unlock()
}

// LagHint returns the last advertised m_max_lag bound (0 = none).
func (s *Series) LagHint() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lagHint
}

// Span returns the covered time span.
func (s *Series) Span() (t0, t1 float64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.store.Len()
	if n == 0 {
		return 0, 0, false
	}
	// Appends are validated time-ordered and non-overlapping, so the
	// last segment carries the covered end.
	return s.store.Seg(0).T0, s.store.Seg(n - 1).T1, true
}

// locate returns the index of a segment covering t, or -1.
func (s *Series) locate(t float64) int {
	var i int
	if ti, ok := s.store.(TimeIndex); ok {
		// The store can binary-search its own layout (for the mmap store,
		// directly over the mapping) without materializing a segment per
		// probe.
		i = ti.SearchT0(t) - 1
	} else {
		i = sort.Search(s.store.Len(), func(j int) bool { return s.store.Seg(j).T0 > t }) - 1
	}
	if i < 0 {
		return -1
	}
	if t <= s.store.Seg(i).T1 {
		return i
	}
	if i > 0 {
		if prev := s.store.Seg(i - 1); t >= prev.T0 && t <= prev.T1 {
			return i - 1
		}
	}
	return -1
}

// At evaluates the series at time t, reporting whether t is covered.
func (s *Series) At(t float64) ([]float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.locate(t)
	if i < 0 {
		return nil, false
	}
	seg := s.store.Seg(i)
	out := make([]float64, len(s.eps))
	for d := range out {
		out[d] = seg.At(d, t)
	}
	return out, true
}

// Scan returns the stored segments overlapping [t0, t1].
func (s *Series) Scan(t0, t1 float64) ([]core.Segment, error) {
	if t1 < t0 || math.IsNaN(t0) || math.IsNaN(t1) {
		return nil, ErrRange
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []core.Segment
	for i, n := 0, s.store.Len(); i < n; i++ {
		seg := s.store.Seg(i)
		if seg.T1 >= t0 && seg.T0 <= t1 {
			out = append(out, seg)
		}
		if seg.T0 > t1 {
			break
		}
	}
	return out, nil
}

// Sample reconstructs points at times t0, t0+dt, … up to t1 (inclusive),
// skipping uncovered times.
func (s *Series) Sample(t0, t1, dt float64) ([]core.Point, error) {
	if t1 < t0 || dt <= 0 || math.IsNaN(t0) || math.IsNaN(t1) || math.IsNaN(dt) {
		return nil, ErrRange
	}
	var out []core.Point
	for t := t0; t <= t1+1e-12; t += dt {
		if x, ok := s.At(t); ok {
			out = append(out, core.Point{T: t, X: x})
		}
	}
	return out, nil
}

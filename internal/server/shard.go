package server

import (
	"sync/atomic"
	"time"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/wal"
)

// OverloadPolicy selects what an ingest session does when its shard's
// queue is full. Neither policy sheds a segment: every interval a sensor
// sends is stored, so every sample keeps its ε contract.
type OverloadPolicy int

const (
	// Block applies backpressure: the session goroutine blocks until the
	// shard frees a slot, which in turn stalls the client's TCP stream.
	// Nothing is lost; slow consumers slow producers.
	Block OverloadPolicy = iota
	// Sample applies backpressure exactly like Block, and the server's
	// retune loop tells retune-capable senders to decimate points ahead
	// of their filter (and/or widen ε), spending precision instead of
	// losing intervals. The effective ε inflation each sender reports is
	// surfaced on query bounds, so every answer stays honest about what
	// was shed.
	Sample
)

// String names the policy for flags and metrics output.
func (p OverloadPolicy) String() string {
	if p == Sample {
		return "sample"
	}
	return "block"
}

// job is one unit of shard work: a finalized segment bound for a series,
// or (when barrier is non-nil) a synchronisation point — the shard
// commits its write-ahead log, sends the commit error if there was one,
// and closes the channel, proving every job enqueued before it has been
// applied (and, under wal.SyncAlways, fsynced). Receivers read one value:
// nil means the barrier's durability promise holds.
type job struct {
	sess    *ingestSession
	series  *tsdb.Series
	seg     core.Segment
	bytes   int64
	barrier chan error
}

// shard is one worker: a bounded queue drained by a single goroutine that
// owns the appends for every series hashing to it, so per-series segment
// order on the queue is preserved into the archive without extra locking.
// With a durable store, the worker writes each segment ahead of applying
// it into its own partition of the write-ahead log (the wal.Shard with
// the same index), and barriers commit through a two-stage group-commit
// pipeline: the worker never fsyncs inline — it collects the barriers
// found in each greedy drain of its queue into a batch and hands the
// batch to the shard's committer goroutine, which folds every batch
// queued behind an in-flight fsync into the next one. One fsync under
// wal.SyncAlways therefore acknowledges every session barrier that
// arrived while the previous fsync ran, and segment application never
// stalls on the disk. A session's final ack still implies its segments
// are as durable as the sync policy promises: the worker appends a
// session's records before handing its barrier over, and the committer
// fsyncs before acking.
type shard struct {
	id       int
	jobs     chan job
	done     chan struct{}
	commitCh chan []chan error // barrier batches bound for the committer
	synced   chan struct{}     // closed when the committer has drained
	store    *wal.Shard        // nil for an in-memory server
	logf     func(format string, args ...any)

	// pendingSeries tracks, per series this worker has applied
	// provisional updates for, the provisional window last observed —
	// the worker-owned state behind the lagPoints gauge. Keyed by
	// series (not session) so several sessions feeding one series
	// cannot double-count; touched only by the worker goroutine.
	pendingSeries map[string]int64

	segments atomic.Int64 // segments applied
	points   atomic.Int64 // original samples those segments represent
	rejected atomic.Int64 // segments refused (time order, or not durable)
	bytes    atomic.Int64 // wire bytes attributed to this shard
	barriers atomic.Int64 // barriers acknowledged
	commits  atomic.Int64 // commit batches (≤ barriers: the group-commit win)
	active   atomic.Int64 // ingest sessions currently bound to this shard

	lagSessions atomic.Int64 // active sessions advertising a max-lag bound
	lagPoints   atomic.Int64 // Σ provisional-only covered points over those sessions
	lagUpdates  atomic.Int64 // provisional receiver updates applied

	shedPoints atomic.Int64 // sender-reported points decimated before the filter

	// Under Sample, the retune loop reads these to judge queue pressure:
	// the fraction of enqueues in a window that found the queue full (and
	// so had to wait) is a far steadier overload signal than sampling the
	// instantaneous length of a small channel.
	enqTotal atomic.Int64 // Sample-policy enqueues observed
	enqWaits atomic.Int64 // of those, how many found the queue full
}

func newShard(id, depth int, store *wal.Shard, logf func(format string, args ...any)) *shard {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &shard{
		id:            id,
		jobs:          make(chan job, depth),
		done:          make(chan struct{}),
		commitCh:      make(chan []chan error, 16),
		synced:        make(chan struct{}),
		store:         store,
		logf:          logf,
		pendingSeries: make(map[string]int64),
	}
}

// run drains the queue until the jobs channel is closed (server drain).
// Barriers are not committed one by one: after each blocking receive the
// worker greedily drains whatever else is already queued — bounded by
// one queue's worth, so a saturating producer cannot starve an ack —
// and hands the barriers it collected to the committer as one batch.
// run returns only after the committer has acknowledged everything.
func (sh *shard) run() {
	defer close(sh.done)
	go sh.committer()
	var pending []chan error
	open := true
	for open {
		j, ok := <-sh.jobs
		if !ok {
			break
		}
		pending = sh.apply(j, pending)
	drain:
		for budget := cap(sh.jobs); budget > 0; budget-- {
			select {
			case j, ok := <-sh.jobs:
				if !ok {
					open = false
					break drain
				}
				pending = sh.apply(j, pending)
			default:
				break drain
			}
		}
		if len(pending) > 0 {
			sh.commitCh <- pending
			pending = nil // the committer owns the batch now
		}
	}
	close(sh.commitCh)
	<-sh.synced
}

// The committer lingers a small multiple of the observed commit cost
// before syncing, capped at maxCommitLinger: batching effort scales with
// what a sync actually costs on this disk.
// On a journal where an fsync runs ~300µs the linger reaches a few ms
// and folds a whole burst of session ends into one sync; on a fast
// device (or the no-fsync interval policies, where commits are ~ns) it
// rounds to nothing and barriers ack immediately.
const commitLingerFactor = 8

// maxCommitLinger caps the committer's adaptive linger, so a slow sync
// delays an ack by at most this much on top of the sync itself.
const maxCommitLinger = 5 * time.Millisecond

// committer is the second pipeline stage: it turns batches of barriers
// into wal commits. While one fsync runs, further batches pile up on
// commitCh and are folded into the next commit; on top of that the
// committer lingers for about one observed commit duration before
// syncing, so barriers whose arrivals are spread wider than the fsync
// itself still share one. The linger is an EWMA of measured commit
// time — on a log whose commits are free (the interval policies, or a
// fast disk) it stays at zero and barriers ack immediately; the slower
// the journal, the harder the batching, which is the group-commit
// property. The worker goroutine never blocks on any of this.
func (sh *shard) committer() {
	defer close(sh.synced)
	var linger time.Duration
	open := true
	for open {
		batch, ok := <-sh.commitCh
		if !ok {
			return
		}
		// Linger only while other sessions on this shard could still
		// join the batch: when every live session's barrier is already
		// collected (in particular the last session of a drain-down),
		// waiting can't usefully grow the batch, so sync now.
		if linger > 0 && open && sh.active.Load() > int64(len(batch)) {
			timer := time.NewTimer(linger)
		wait:
			for {
				select {
				case more, ok := <-sh.commitCh:
					if !ok {
						open = false
						break wait
					}
					batch = append(batch, more...)
					if sh.active.Load() <= int64(len(batch)) {
						break wait
					}
				case <-timer.C:
					break wait
				}
			}
			timer.Stop()
		}
	merge:
		for {
			select {
			case more, ok := <-sh.commitCh:
				if !ok {
					open = false
					break merge
				}
				batch = append(batch, more...)
			default:
				break merge
			}
		}
		took := sh.commit(batch)
		linger = min((linger+commitLingerFactor*took)/2, maxCommitLinger)
	}
}

// apply processes one job: a segment is written ahead and applied; a
// barrier is deferred onto the pending batch for the next commit. A
// provisional (max-lag) update skips the write-ahead log — it is
// transient wire state the next final segment supersedes, and losing it
// in a crash only resets a freshness gauge — and is applied through the
// series' supersede path instead of the ordered append.
func (sh *shard) apply(j job, pending []chan error) []chan error {
	if j.barrier != nil {
		return append(pending, j.barrier)
	}
	// Any apply may grow or supersede the series' provisional tail;
	// refresh the staleness gauge on the way out.
	defer sh.trackPending(j.series, j.seg.Provisional)
	if j.seg.Provisional {
		if err := j.series.AppendProvisional(j.seg); err != nil {
			sh.rejected.Add(1)
			if j.sess != nil {
				j.sess.rejected.Add(1)
			}
		} else {
			sh.lagUpdates.Add(1)
		}
		return pending
	}
	if sh.store != nil {
		if err := sh.store.Append(j.series, j.seg); err != nil {
			// Write-ahead failed, so applying would ack a segment a
			// restart forgets. Refuse it instead: the ack stays honest.
			sh.logf("server: shard %d: wal append %q: %v", sh.id, j.series.Name(), err)
			sh.rejected.Add(1)
			if j.sess != nil {
				j.sess.rejected.Add(1)
			}
			return pending
		}
	}
	if err := j.series.Append(j.seg); err != nil {
		sh.rejected.Add(1)
		if j.sess != nil {
			j.sess.rejected.Add(1)
		}
		return pending
	}
	sh.segments.Add(1)
	sh.points.Add(int64(j.seg.Points))
	if j.sess != nil {
		j.sess.applied.Add(1)
	}
	return pending
}

// trackPending refreshes the staleness gauge after an apply may have
// changed a series' provisional tail (a final append supersedes it, a
// provisional append replaces or extends it). A series enters the
// tracked set at its first provisional update and its entry falls back
// to zero once finalized segments take over, so the gauge is exactly
// the provisional-only points across this worker's series. (Retention
// pruning can shrink a tracked tail from the compaction goroutine; the
// gauge catches up at the series' next apply.)
func (sh *shard) trackPending(s *tsdb.Series, provisional bool) {
	old, tracked := sh.pendingSeries[s.Name()]
	if !tracked && !provisional {
		return
	}
	now := int64(s.PendingPoints())
	if now == 0 {
		// Finalized (or pruned) back to zero: release the entry so the
		// tracked set stays proportional to series with live tails.
		delete(sh.pendingSeries, s.Name())
	} else {
		sh.pendingSeries[s.Name()] = now
	}
	sh.lagPoints.Add(now - old)
}

// commit acknowledges one batch of barriers behind a single wal commit,
// returning how long the commit itself took (the committer's linger
// feedback). Under wal.SyncAlways that is one fsync however many
// sessions are waiting; a commit error reaches every waiter, so no ack
// overstates durability.
func (sh *shard) commit(batch []chan error) time.Duration {
	if len(batch) == 0 {
		return 0
	}
	var err error
	var took time.Duration
	if sh.store != nil {
		sh.commits.Add(1)
		start := time.Now()
		err = sh.store.Commit()
		took = time.Since(start)
		if err != nil {
			// The segments are applied in memory but their durability is
			// not what the policy promises — hand the error to whoever is
			// waiting so ingest sessions report failure, not a clean ack.
			sh.logf("server: shard %d: wal commit: %v", sh.id, err)
		}
	}
	sh.barriers.Add(int64(len(batch)))
	for _, b := range batch {
		if err != nil {
			b <- err
		}
		close(b)
	}
	return took
}

// enqueue delivers j under the given policy. Both policies block on a
// full queue; under Sample the enqueue also counts whether it had to
// wait, the retune loop's pressure signal. Bytes are counted on arrival.
func (sh *shard) enqueue(j job, policy OverloadPolicy) {
	sh.bytes.Add(j.bytes)
	if policy == Sample {
		sh.enqTotal.Add(1)
		select {
		case sh.jobs <- j:
			return
		default:
			sh.enqWaits.Add(1)
		}
	}
	sh.jobs <- j
}

// ShardMetrics is one shard's counters at a point in time.
type ShardMetrics struct {
	Shard    int
	Segments int64 // finalized segments applied to the archive
	Points   int64 // original samples represented by those segments
	Rejected int64 // segments refused (time order, or failed write-ahead)
	Bytes    int64 // wire bytes attributed to this shard
	QueueLen int   // jobs waiting right now
	QueueCap int   // queue depth
	Barriers int64 // barriers acknowledged (session stream ends + fences)
	Commits  int64 // wal commit batches; Barriers/Commits is the group-commit factor
	WALBytes int64 // bytes appended to this shard's wal partition
	Fsyncs   int64 // fsyncs issued by this shard's wal partition

	// LagSessions counts the shard's active sessions that advertised an
	// m_max_lag bound; LagPoints sums, over the shard's series, the
	// points held only provisionally — last-received minus
	// last-finalized, the staleness each session's bound caps; and
	// LagUpdates counts provisional receiver updates applied.
	LagSessions int64
	LagPoints   int64
	LagUpdates  int64

	// ShedPoints sums the points retune-capable senders reported
	// decimating ahead of their filter for this shard's series.
	ShedPoints int64
}

func (sh *shard) metrics() ShardMetrics {
	m := ShardMetrics{
		Shard:       sh.id,
		Segments:    sh.segments.Load(),
		Points:      sh.points.Load(),
		Rejected:    sh.rejected.Load(),
		Bytes:       sh.bytes.Load(),
		QueueLen:    len(sh.jobs),
		QueueCap:    cap(sh.jobs),
		Barriers:    sh.barriers.Load(),
		Commits:     sh.commits.Load(),
		LagSessions: sh.lagSessions.Load(),
		LagPoints:   sh.lagPoints.Load(),
		LagUpdates:  sh.lagUpdates.Load(),
		ShedPoints:  sh.shedPoints.Load(),
	}
	if sh.store != nil {
		lm := sh.store.Metrics()
		m.WALBytes, m.Fsyncs = lm.Bytes, lm.Fsyncs
	}
	return m
}

// shardIndex routes a series name onto nShards workers — the same
// FNV-1a hash the partitioned log uses, so a shard's wal partition holds
// exactly the series that shard's worker owns.
func shardIndex(name string, nShards int) int {
	return wal.ShardIndex(name, nShards)
}

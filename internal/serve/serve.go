// Package serve is the online serving layer over the durable result
// and state stores: it turns a one-step or incremental-iterative
// computation from a batch artifact into a queryable service.
//
// A Server wraps the per-partition snapshot-capable stores of a running
// (or results.Open-ed) runner and answers point lookups and batched
// MultiGets against refcounted store snapshots (results.Snapshot), so
// reads never block — and are never blocked by — the writers of an
// in-flight refresh. The snapshot set currently being served is an
// *epoch*: while RunDelta / RunIncremental mutates the stores, every
// read keeps seeing the pre-refresh epoch; when the refresh commits
// (its refresh.intent bracket completes and the runner returns),
// Server.Refresh atomically flips to a freshly captured epoch. Readers
// that were in flight across the flip finish on the epoch they started
// on; the old epoch's snapshots are released when its last in-flight
// reader completes, which in turn lets the stores delete compacted-away
// segment files.
//
// Each epoch carries a bounded block cache (results.BlockCache) keyed
// by the identity of the immutable segment blocks lookups touch, so a
// hot block is decoded once per epoch no matter how many distinct keys
// it serves. Because an epoch is immutable, cached blocks can never be
// stale; the cache is dropped wholesale at the flip, which is the
// entire invalidation story.
//
// HTTP endpoints (/get, /mget, /stats, /healthz) are in http.go;
// cmd/i2mr-serve runs a complete serving deployment with live
// background refreshes.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"i2mapreduce/internal/core"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/par"
	"i2mapreduce/internal/results"
)

// SnapshotStore is one partition's snapshot-capable store. Both
// *results.Store (one-step materialized results) and *results.KV
// (incremental-iterative state) implement it.
type SnapshotStore interface {
	Snapshot() *results.Snapshot
}

// DefaultCacheSize is the per-epoch block cache capacity (decoded
// segment blocks) when Options.CacheSize is zero. At the default
// 32 KiB block size this bounds the cache near 8 MiB of decoded data
// per epoch.
const DefaultCacheSize = 256

// Options configures a Server.
type Options struct {
	// Partition routes a group key to its owning store. Defaults to
	// kv.Partition — the engine-wide hash every runner places reduce
	// groups and state keys with. Override only for jobs that ran with
	// a custom mr.Job.Partition.
	Partition func(key string, n int) int
	// CacheSize bounds the per-epoch block cache (decoded segment
	// blocks). 0 means DefaultCacheSize; negative disables caching.
	CacheSize int
}

// Server serves point lookups over a set of per-partition stores with
// epoch-snapshot isolation. Safe for concurrent use.
type Server struct {
	stores    []SnapshotStore
	part      func(key string, n int) int
	cacheSize int

	cur atomic.Pointer[epoch]
	// refreshMu serializes Refresh and Flip: one refresh at a time, and
	// a flip can never interleave with the refresh it publishes.
	refreshMu  sync.Mutex
	refreshing atomic.Bool

	flips       atomic.Int64
	snapsOpen   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// sched, when attached, surfaces the runner's background compaction
	// scheduler gauges in /stats. Nil (and all gauges zero) unless the
	// runner was built with background compaction on.
	sched atomic.Pointer[results.Scheduler]
	// mrbgStores is the runner's MRBG-Stores, whose upkeep counters /stats
	// reports; nil for a Server built over bare stores (NewServer).
	mrbgStores []*mrbg.ShardedStore

	// freshness, when attached, surfaces the ingestion pipeline's
	// watermark/freshness view in /stats. Nil unless an Ingester is
	// bound to this server (AttachFreshness).
	freshness atomic.Pointer[func() Freshness]
}

// epoch is one immutable generation of store snapshots plus its cache.
// refs counts in-flight readers plus one reference held by the Server
// while the epoch is current; the snapshots are released when the count
// reaches zero.
type epoch struct {
	id    int64
	snaps []*results.Snapshot
	cache *results.BlockCache
	refs  atomic.Int64
	// released makes the zero-crossing close idempotent: a reader that
	// pinned the epoch in the instant a flip dropped it to zero (see
	// acquire's retry loop) crosses zero a second time on its release.
	released atomic.Bool
	srv      *Server
}

// NewServer builds a Server over one store per partition and captures
// the first epoch. The caller keeps ownership of the stores (and of the
// runner behind them); Close the Server before closing them.
func NewServer(stores []SnapshotStore, opts Options) (*Server, error) {
	if len(stores) == 0 {
		return nil, errors.New("serve: no stores")
	}
	part := opts.Partition
	if part == nil {
		part = kv.Partition
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	s := &Server{stores: stores, part: part, cacheSize: size}
	s.cur.Store(s.newEpoch(1))
	return s, nil
}

// NewOneStep builds a Server over a one-step runner's durable
// per-partition result stores. Group keys are the Reduce input keys K2
// (K3 for accumulator jobs); each group's value is the output pairs its
// Reduce call emitted.
func NewOneStep(r *incr.Runner, opts Options) (*Server, error) {
	res := r.Results()
	stores := make([]SnapshotStore, len(res))
	for i, st := range res {
		stores[i] = st
	}
	srv, err := NewServer(stores, opts)
	if err != nil {
		return nil, err
	}
	srv.AttachCompactionScheduler(r.CompactionScheduler())
	srv.mrbgStores = r.Stores()
	return srv, nil
}

// NewIncremental builds a Server over the incremental iterative
// runner's durable per-partition state stores. Keys are state keys DK;
// each group holds a single pair whose Value is the state value (the
// results.KV encoding), so Get returns one pair with an empty pair key.
func NewIncremental(r *core.Runner, opts Options) (*Server, error) {
	kvs := r.StateStores()
	stores := make([]SnapshotStore, len(kvs))
	for i, st := range kvs {
		stores[i] = st
	}
	srv, err := NewServer(stores, opts)
	if err != nil {
		return nil, err
	}
	srv.AttachCompactionScheduler(r.CompactionScheduler())
	srv.mrbgStores = r.Stores()
	return srv, nil
}

// newEpoch captures a fresh snapshot of every store.
func (s *Server) newEpoch(id int64) *epoch {
	snaps := make([]*results.Snapshot, len(s.stores))
	for i, st := range s.stores {
		snaps[i] = st.Snapshot()
	}
	e := &epoch{id: id, snaps: snaps, cache: results.NewBlockCache(s.cacheSize), srv: s}
	e.refs.Store(1)
	s.snapsOpen.Add(int64(len(snaps)))
	return e
}

// acquire pins the current epoch for one read. The retry loop closes
// the race with a concurrent flip: a reference taken on an epoch that
// was swapped out before the pin landed is dropped and the new current
// epoch pinned instead.
func (s *Server) acquire() (*epoch, error) {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil, errors.New("serve: server is closed")
		}
		e.refs.Add(1)
		if s.cur.Load() == e {
			return e, nil
		}
		e.release()
	}
}

// release drops one epoch reference, closing the snapshots at zero.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 && e.released.CompareAndSwap(false, true) {
		for _, sn := range e.snaps {
			sn.Close()
		}
		e.srv.snapsOpen.Add(-int64(len(e.snaps)))
	}
}

// get answers one lookup through the epoch's block cache. A hit means
// the answer came out of an already-decoded cached block — including
// for keys never looked up before, when a neighbour's lookup pulled
// their block in.
func (e *epoch) get(key string, p int) ([]kv.Pair, bool, error) {
	ps, found, fromCache, err := e.snaps[p].GetCached(key, e.cache)
	if err != nil {
		return nil, false, err
	}
	if fromCache {
		e.srv.cacheHits.Add(1)
	} else {
		e.srv.cacheMisses.Add(1)
	}
	return ps, found, nil
}

// Epoch returns the id of the epoch currently being served.
func (s *Server) Epoch() int64 {
	if e := s.cur.Load(); e != nil {
		return e.id
	}
	return 0
}

// Get answers one point lookup against the current epoch, returning the
// group's pairs, whether it exists, and the epoch id the read was
// served from.
func (s *Server) Get(key string) (pairs []kv.Pair, found bool, epochID int64, err error) {
	e, err := s.acquire()
	if err != nil {
		return nil, false, 0, err
	}
	defer e.release()
	pairs, found, err = e.get(key, s.part(key, len(s.stores)))
	return pairs, found, e.id, err
}

// MultiGet answers a batch of point lookups against one consistent
// epoch: pairs[i], found[i] correspond to keys[i]. The batch is grouped
// by owning partition and fanned out across the per-partition snapshots
// concurrently.
func (s *Server) MultiGet(keys []string) (pairs [][]kv.Pair, found []bool, epochID int64, err error) {
	e, err := s.acquire()
	if err != nil {
		return nil, nil, 0, err
	}
	defer e.release()
	pairs = make([][]kv.Pair, len(keys))
	found = make([]bool, len(keys))
	byPart := make(map[int][]int)
	for i, k := range keys {
		p := s.part(k, len(s.stores))
		byPart[p] = append(byPart[p], i)
	}
	// Fan out across the owning partitions through par.Do: bounded
	// workers and a deterministic lowest-partition error, instead of the
	// old hand-rolled goroutine-per-partition whose reported error
	// depended on scheduling.
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	err = par.Do(len(parts), 0, func(pi int) error {
		p := parts[pi]
		for _, i := range byPart[p] {
			ps, ok, err := e.get(keys[i], p)
			if err != nil {
				return err
			}
			pairs[i], found[i] = ps, ok
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return pairs, found, e.id, nil
}

// Refresh runs fn — a RunDelta / RunIncremental call — and, when it
// succeeds, atomically flips readers to a fresh post-refresh epoch. For
// the whole duration of fn every read keeps being served from the
// pre-refresh epoch's snapshots; the refresh's store mutations become
// visible all at once at the flip. One refresh runs at a time. On error
// the current epoch stays in place (the runner's own intent bracket
// guarantees the durable stores are either rolled forward or refused at
// the next Open).
func (s *Server) Refresh(fn func() error) error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.refreshing.Store(true)
	defer s.refreshing.Store(false)
	if err := fn(); err != nil {
		return err
	}
	return s.flipLocked()
}

// Flip re-snapshots every store and atomically publishes the new epoch.
// Use it after mutating the stores outside Refresh (e.g. an out-of-band
// Compact whose space reclamation should unpin old segments).
func (s *Server) Flip() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.flipLocked()
}

func (s *Server) flipLocked() error {
	old := s.cur.Load()
	if old == nil {
		return errors.New("serve: server is closed")
	}
	ne := s.newEpoch(old.id + 1)
	s.cur.Store(ne)
	s.flips.Add(1)
	old.release() // drop the server's reference; in-flight readers keep theirs
	return nil
}

// Close stops serving: subsequent reads fail, and the current epoch's
// snapshots are released once its in-flight readers drain. The
// underlying stores stay open (the runner owns them).
func (s *Server) Close() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if e := s.cur.Swap(nil); e != nil {
		e.release()
	}
	return nil
}

// AttachCompactionScheduler surfaces a background compaction scheduler's
// gauges (queue depth, completed runs, failures) in Stats and /stats.
// Call it with the scheduler of the runner whose stores this Server
// serves; nil detaches. Safe to call while serving.
func (s *Server) AttachCompactionScheduler(sched *results.Scheduler) {
	s.sched.Store(sched)
}

// Freshness is the ingestion pipeline's watermark/freshness view as
// embedded in Stats and /stats: how far ingestion has progressed
// (StagedSeq), how far refreshes have caught up (AppliedSeq), and how
// stale the served epoch is relative to accepted records (LagNS).
type Freshness struct {
	// StagedSeq is the last ingest sequence number durably accepted
	// into the staging log; AppliedSeq is the last-applied watermark —
	// every record up to it is reflected in the served epoch.
	StagedSeq  int64 `json:"staged_seq"`
	AppliedSeq int64 `json:"applied_seq"`
	// PendingRecords / PendingBytes are the staging depth: accepted
	// records not yet applied by a refresh (the backpressure gauge).
	PendingRecords int64 `json:"pending_records"`
	PendingBytes   int64 `json:"pending_bytes"`
	// Records / Batches / Rejected / Replayed are cumulative ingestion
	// counters: accepted records, applied micro-batches, records
	// refused with backpressure, and records recovered from the staging
	// log after a restart.
	Records  int64 `json:"records"`
	Batches  int64 `json:"batches"`
	Rejected int64 `json:"rejected"`
	Replayed int64 `json:"replayed"`
	// LagNS is the freshness lag: the age in nanoseconds of the oldest
	// accepted-but-unapplied record (0 when fully drained).
	LagNS int64 `json:"lag_ns"`
}

// AttachFreshness surfaces an ingestion pipeline's watermark/freshness
// view in Stats and /stats. The callback is invoked per Stats call;
// nil detaches. Safe to call while serving.
func (s *Server) AttachFreshness(f func() Freshness) {
	if f == nil {
		s.freshness.Store(nil)
		return
	}
	s.freshness.Store(&f)
}

// Stats is a point-in-time view of the server's counters.
type Stats struct {
	Epoch         int64 `json:"epoch"`
	Partitions    int   `json:"partitions"`
	EpochFlips    int64 `json:"epoch_flips"`
	SnapshotsOpen int64 `json:"snapshots_open"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Refreshing    bool  `json:"refreshing"`
	// Background compaction scheduler gauges; all zero when the runner
	// compacts inline (no scheduler attached).
	CompactQueueDepth int64 `json:"compact_queue_depth"`
	CompactBGRuns     int64 `json:"compact_bg_runs"`
	CompactBGFailures int64 `json:"compact_bg_failures"`
	// MRBG-Store upkeep, summed over the runner's partitions since it
	// was opened: shard files reconstructed and the live bytes copied,
	// bytes written to the index logs, and — gauges — the logs' length
	// and the data files' length against their live bytes. All zero
	// for a job that preserves no MRBGraph.
	MRBGCompactions       int64 `json:"mrbg_compactions"`
	MRBGCompactedBytes    int64 `json:"mrbg_compacted_bytes"`
	MRBGIndexBytesWritten int64 `json:"mrbg_index_bytes_written"`
	MRBGIndexLogBytes     int64 `json:"mrbg_index_log_bytes"`
	MRBGFileBytes         int64 `json:"mrbg_file_bytes"`
	MRBGLiveBytes         int64 `json:"mrbg_live_bytes"`
	// Ingest is the ingestion freshness view; nil unless an Ingester is
	// attached (AttachFreshness).
	Ingest *Freshness `json:"ingest,omitempty"`
}

// Stats returns the server's current counters.
func (s *Server) Stats() Stats {
	sched := s.sched.Load() // nil-safe: gauges read as zero
	graph := mrbg.Totals(s.mrbgStores)
	st := Stats{
		Epoch:             s.Epoch(),
		Partitions:        len(s.stores),
		EpochFlips:        s.flips.Load(),
		SnapshotsOpen:     s.snapsOpen.Load(),
		CacheHits:         s.cacheHits.Load(),
		CacheMisses:       s.cacheMisses.Load(),
		Refreshing:        s.refreshing.Load(),
		CompactQueueDepth: sched.QueueDepth(),
		CompactBGRuns:     sched.Runs(),
		CompactBGFailures: sched.Failures(),

		MRBGCompactions:       graph.Compactions,
		MRBGCompactedBytes:    graph.CompactedBytes,
		MRBGIndexBytesWritten: graph.IndexBytesWritten,
		MRBGIndexLogBytes:     graph.IndexLogBytes,
		MRBGFileBytes:         graph.FileBytes,
		MRBGLiveBytes:         graph.LiveBytes,
	}
	if f := s.freshness.Load(); f != nil {
		fr := (*f)()
		st.Ingest = &fr
	}
	return st
}

// AddTo records the server's counters into a metrics report under the
// shared counter names.
func (s *Server) AddTo(rep *metrics.Report) {
	st := s.Stats()
	rep.Add(metrics.CounterServeEpochFlips, st.EpochFlips)
	rep.Add(metrics.CounterServeSnapshotsOpen, st.SnapshotsOpen)
	rep.Add(metrics.CounterServeCacheHits, st.CacheHits)
	rep.Add(metrics.CounterServeCacheMisses, st.CacheMisses)
	rep.Add(metrics.CounterCompactQueueDepth, st.CompactQueueDepth)
	rep.Add(metrics.CounterCompactBGRuns, st.CompactBGRuns)
	if st.Ingest != nil {
		rep.Add(metrics.CounterIngestRecords, st.Ingest.Records)
		rep.Add(metrics.CounterIngestBatches, st.Ingest.Batches)
		rep.Add(metrics.CounterIngestRejected, st.Ingest.Rejected)
		rep.Add(metrics.CounterIngestReplayed, st.Ingest.Replayed)
		rep.Add(metrics.CounterFreshnessLagNS, st.Ingest.LagNS)
	}
}

// String names the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("serve.Server(%d partitions, epoch %d)", len(s.stores), s.Epoch())
}

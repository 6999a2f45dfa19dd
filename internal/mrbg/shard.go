package mrbg

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/par"
)

// ShardedStore is one reduce task's MRBG-Store, partitioned across
// Options.Shards independent shard files by hash(K2). It preserves the
// single-file store's API and semantics — Merge emits in globally
// sorted key order regardless of shard count — while running the hot
// paths (Merge, GetMany, Compact, Checkpoint) with one goroutine per
// shard, bounded by Options.Parallelism.
//
// Concurrency contract: any number of goroutines may call the read
// methods (Get, GetMany, AllChunks, Stats, Len, Has, Keys)
// concurrently with each other; mutating methods (Put, CommitBatch,
// Merge, Checkpoint, Compact, VerifyInvariants) exclude all other
// calls. Reads serialize per shard (the read windows and I/O counters
// are per-shard state) but proceed in parallel across shards.
type ShardedStore struct {
	opts Options
	// mu is the store-level reader/writer gate; shard-level mutexes
	// additionally serialize readers touching the same shard, because
	// even reads mutate per-shard windows and statistics.
	mu     sync.RWMutex
	shards []*shard
}

// shard pairs one Store with the mutex concurrent readers take.
type shard struct {
	mu sync.Mutex
	st *Store
}

const metaName = "mrbg.meta"

// readMeta loads the persisted shard count, reporting ok=false when no
// meta file exists.
func readMeta(dir string) (int, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	var n int
	if _, err := fmt.Sscanf(string(b), "shards=%d", &n); err != nil || n <= 0 {
		return 0, false, fmt.Errorf("mrbg: corrupt meta file %q", string(b))
	}
	return n, true, nil
}

// writeMeta persists the shard count atomically and durably: losing
// the meta file after a crash would reroute every key on reopen.
func writeMeta(dir string, n int) error {
	return fsutil.WriteFileAtomic(filepath.Join(dir, metaName),
		[]byte(fmt.Sprintf("shards=%d\n", n)))
}

// Open creates a store in opts.Dir or recovers the one checkpointed
// there. The shard count is fixed the first time a directory is opened;
// later opens adopt the persisted count even if opts.Shards differs.
// Data files without a meta file are refused, never shadowed by a fresh
// empty store: shard files mean the meta was lost (a new one could
// reroute every key), and mrbg.dat is the pre-sharding single-file
// layout, which this version no longer reads.
func Open(opts Options) (*ShardedStore, error) {
	if opts.Dir == "" {
		return nil, errors.New("mrbg: Options.Dir is required")
	}
	opts.applyDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("mrbg: creating dir: %w", err)
	}

	n, ok, err := readMeta(opts.Dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		for _, dat := range []string{shardDatName(0, 0), shardIdxName(0), "mrbg.dat"} {
			if _, serr := os.Stat(filepath.Join(opts.Dir, dat)); serr == nil {
				return nil, fmt.Errorf("mrbg: %s holds %s but no %s (lost meta file, or a pre-sharding store this version cannot read)", opts.Dir, dat, metaName)
			} else if !errors.Is(serr, os.ErrNotExist) {
				return nil, fmt.Errorf("mrbg: probing data files: %w", serr)
			}
		}
		n = opts.Shards
		if err := writeMeta(opts.Dir, n); err != nil {
			return nil, err
		}
	}

	ss := &ShardedStore{opts: opts, shards: make([]*shard, n)}
	for i := 0; i < n; i++ {
		st, err := openShard(opts, i)
		if err != nil {
			for _, sh := range ss.shards[:i] {
				sh.st.Close()
			}
			return nil, err
		}
		ss.shards[i] = &shard{st: st}
	}
	return ss, nil
}

// Reset discards everything the store holds, on disk and in memory, and
// returns a fresh empty store over the same directory and options. The
// engines use it to drop the partial MRBGraph of an initial run that
// died before completing. The receiver is closed and must not be used
// afterwards.
func (ss *ShardedStore) Reset() (*ShardedStore, error) {
	if err := ss.Close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(ss.opts.Dir); err != nil {
		return nil, err
	}
	return Open(ss.opts)
}

// shardFor routes a key to its shard (FNV-1a over K2, mod shard count).
func (ss *ShardedStore) shardFor(key string) int {
	if len(ss.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(ss.shards)))
}

// NumShards returns the store's shard count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Close releases the underlying shard files without checkpointing.
func (ss *ShardedStore) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var first error
	for _, sh := range ss.shards {
		if err := sh.st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// forEachShard runs fn once per shard on the shared bounded-parallelism
// runner (internal/par), up to Parallelism calls in flight. Every shard
// runs even if another fails; the first error (lowest shard id) is
// returned. Callers must hold the write lock — fn receives exclusive
// access to its shard.
func (ss *ShardedStore) forEachShard(fn func(i int, st *Store) error) error {
	limit := ss.opts.Parallelism
	if len(ss.shards) == 1 || limit == 1 {
		limit = 1
	}
	return par.Do(len(ss.shards), limit, func(i int) error {
		return fn(i, ss.shards[i].st)
	})
}

// Len returns the number of live chunks across all shards.
func (ss *ShardedStore) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	n := 0
	for _, sh := range ss.shards {
		n += sh.st.Len()
	}
	return n
}

// Has reports whether key has a live chunk.
func (ss *ShardedStore) Has(key string) bool {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.shards[ss.shardFor(key)].st.Has(key)
}

// Keys returns all live chunk keys in sorted order.
func (ss *ShardedStore) Keys() []string {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var ks []string
	for _, sh := range ss.shards {
		for k := range sh.st.index {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// Stats aggregates the per-shard statistics: I/O counters, live chunk
// and byte totals sum across shards. Batches reports the maximum
// per-shard batch counter — exactly the historical meaning (committed
// merge rounds) for Shards: 1, but only a lower bound on rounds for
// larger shard counts, since a round whose delta misses a shard does
// not advance that shard's counter; use ShardStats for exact per-shard
// values.
func (ss *ShardedStore) Stats() Stats {
	var agg Stats
	for _, st := range ss.ShardStats() {
		agg.add(st)
	}
	return agg
}

// add folds b into a: everything sums except Batches, which keeps the
// maximum.
func (a *Stats) add(b Stats) {
	a.Reads += b.Reads
	a.BytesRead += b.BytesRead
	a.CacheHits += b.CacheHits
	a.AppendedChunks += b.AppendedChunks
	a.Flushes += b.Flushes
	a.DanglingDeletes += b.DanglingDeletes
	a.LiveChunks += b.LiveChunks
	a.FileBytes += b.FileBytes
	a.LiveBytes += b.LiveBytes
	a.Compactions += b.Compactions
	a.CompactedBytes += b.CompactedBytes
	a.IndexBytesWritten += b.IndexBytesWritten
	a.IndexLogBytes += b.IndexLogBytes
	a.IndexFoldedBytes += b.IndexFoldedBytes
	a.Batches = max(a.Batches, b.Batches)
}

// Totals sums the statistics of a runner's per-partition stores.
func Totals(stores []*ShardedStore) Stats {
	var agg Stats
	for _, ss := range stores {
		agg.add(ss.Stats())
	}
	return agg
}

// ReportSince adds to rep what the stores' upkeep cost between the
// snapshot since and st: compactions run and bytes copied, index-log
// bytes written, and the logs' length now (a gauge).
func (st Stats) ReportSince(rep *metrics.Report, since Stats) {
	rep.Add(metrics.CounterMRBGCompactions, st.Compactions-since.Compactions)
	rep.Add(metrics.CounterMRBGCompactedBytes, st.CompactedBytes-since.CompactedBytes)
	rep.Add(metrics.CounterMRBGIndexBytesWritten, st.IndexBytesWritten-since.IndexBytesWritten)
	rep.Add(metrics.CounterMRBGIndexLogBytes, st.IndexLogBytes)
}

// ShardStats returns each shard's statistics snapshot, for experiments
// probing load balance across shards.
func (ss *ShardedStore) ShardStats() []Stats {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	out := make([]Stats, len(ss.shards))
	for i, sh := range ss.shards {
		sh.mu.Lock()
		out[i] = sh.st.Stats()
		sh.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the I/O counters on every shard.
func (ss *ShardedStore) ResetStats() {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sh.st.ResetStats()
		sh.mu.Unlock()
	}
}

// Get retrieves one chunk outside any batch plan.
func (ss *ShardedStore) Get(key string) (Chunk, bool, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	sh := ss.shards[ss.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.st.Get(key)
}

// GetMany retrieves the chunks of keys (which must be sorted ascending,
// as the shuffle guarantees for merge queries), invoking fn for each in
// order. ok is false for keys with no live chunk. Shard queries fan out
// in parallel; fn itself always runs sequentially in key order.
func (ss *ShardedStore) GetMany(keys []string, fn func(key string, c Chunk, ok bool) error) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return fmt.Errorf("mrbg: GetMany keys not sorted (%q after %q)", keys[i], keys[i-1])
		}
	}
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.getManyLocked(keys, fn)
}

// getManyLocked is GetMany's body; callers hold at least a read lock,
// making multi-call compositions (AllChunks) atomic with respect to
// mutators.
func (ss *ShardedStore) getManyLocked(keys []string, fn func(key string, c Chunk, ok bool) error) error {
	if len(ss.shards) == 1 {
		// Fast path: stream straight off the single shard, preserving
		// the historical interleaving of fetch and callback.
		sh := ss.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.st.GetMany(keys, fn)
	}

	// Partition positions per shard; each shard's key subsequence stays
	// sorted, so its query plan drives the window heuristic exactly as
	// a dedicated single-shard scan would.
	perShard := make([][]int, len(ss.shards))
	for i, k := range keys {
		s := ss.shardFor(k)
		perShard[s] = append(perShard[s], i)
	}
	type result struct {
		c  Chunk
		ok bool
	}
	results := make([]result, len(keys))
	// Per-shard fan-out through par.Do: bounded by Options.Parallelism
	// and surfacing a deterministic lowest-shard error, replacing a
	// hand-rolled semaphore whose error depended on scheduling.
	if err := par.Do(len(ss.shards), ss.opts.Parallelism, func(si int) error {
		if len(perShard[si]) == 0 {
			return nil
		}
		sh := ss.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		shardKeys := make([]string, len(perShard[si]))
		for j, pos := range perShard[si] {
			shardKeys[j] = keys[pos]
		}
		plan := &queryPlan{keys: shardKeys}
		for j, pos := range perShard[si] {
			plan.pos = j
			c, ok, err := sh.st.fetch(shardKeys[j], plan, nil)
			if err != nil {
				return err
			}
			results[pos] = result{c: c, ok: ok}
		}
		return nil
	}); err != nil {
		return err
	}
	for i, k := range keys {
		if err := fn(k, results[i].c, results[i].ok); err != nil {
			return err
		}
	}
	return nil
}

// AllChunks retrieves every live chunk in sorted key order. The key
// snapshot and the reads happen under one read lock, so a concurrent
// Merge cannot interleave between them.
func (ss *ShardedStore) AllChunks(fn func(c Chunk) error) error {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var keys []string
	for _, sh := range ss.shards {
		for k := range sh.st.index {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return ss.getManyLocked(keys, func(_ string, c Chunk, ok bool) error {
		if !ok {
			return errors.New("mrbg: indexed key has no chunk")
		}
		return fn(c)
	})
}

// Put stages a chunk directly, bypassing the delta join — used by the
// initial (non-incremental) run to preserve the first MRBGraph, where
// every chunk is new. Chunks must arrive in sorted key order per batch;
// call CommitBatch when the batch is complete.
func (ss *ShardedStore) Put(c Chunk) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.shards[ss.shardFor(c.Key)].st.Put(c)
}

// CommitBatch seals chunks staged with Put into one sorted batch per
// shard.
func (ss *ShardedStore) CommitBatch() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.forEachShard(func(_ int, st *Store) error {
		return st.CommitBatch()
	})
}

// Merge joins a delta MRBGraph into the store (paper Sec. 3.3-3.4).
// The delta is partitioned per shard and the shard joins run in
// parallel goroutines; the per-key results are then re-merged and
// emitted in globally sorted key order — byte-for-byte the order a
// single-file store would emit — before any shard commits. If emit
// returns an error every shard aborts with its index unchanged.
//
// Memory: with Shards: 1 results stream one chunk at a time; with more
// shards the staged results buffer in memory until emission (the price
// of re-establishing the global order across concurrently-merging
// shards), so peak usage is proportional to the delta-affected data.
//
// A result is valid only until emit returns: the streaming path reuses
// its slices for the next key (see MergeResult). Callers must not
// depend on the shard count to keep one longer.
func (ss *ShardedStore) Merge(delta []DeltaEdge, emit func(r MergeResult) error) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	for _, sh := range ss.shards {
		if sh.st.hasPending() {
			return errors.New("mrbg: Merge re-entered before commit")
		}
	}

	if len(ss.shards) == 1 {
		// Fast path: stream straight through the single shard, one
		// chunk in memory at a time (the historical behavior). The
		// multi-shard path below must buffer per-shard results to
		// re-merge them into global key order.
		return ss.shards[0].st.Merge(delta, emit)
	}

	parts := make([][]DeltaEdge, len(ss.shards))
	for _, d := range delta {
		s := ss.shardFor(d.Key)
		parts[s] = append(parts[s], d)
	}

	// Stage every shard's join in parallel. Staging appends new chunk
	// versions to the shard's buffer/file but commits nothing.
	staged := make([][]MergeResult, len(ss.shards))
	abortAll := func() {
		for _, sh := range ss.shards {
			sh.st.abortMerge()
		}
	}
	err := ss.forEachShard(func(i int, st *Store) error {
		if len(parts[i]) == 0 {
			return nil
		}
		rs, err := st.stageMerge(parts[i])
		staged[i] = rs
		return err
	})
	if err != nil {
		abortAll()
		return err
	}

	// Re-merge the per-shard results into one deterministic emission
	// order. Keys are unique across shards (each key routes to exactly
	// one), so a flat sort by key reproduces the single-store order.
	total := 0
	for _, rs := range staged {
		total += len(rs)
	}
	merged := make([]MergeResult, 0, total)
	for _, rs := range staged {
		merged = append(merged, rs...)
	}
	slices.SortFunc(merged, func(a, b MergeResult) int { return strings.Compare(a.Key, b.Key) })

	for _, r := range merged {
		if err := emit(r); err != nil {
			abortAll()
			return err
		}
	}

	commitErr := ss.forEachShard(func(i int, st *Store) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return st.commitMerge(staged[i])
	})
	if commitErr != nil {
		// Roll back any shard whose commit failed so the store stays
		// usable. Shards that already committed keep their batch —
		// merging a delta is idempotent per (key, MK), so retrying the
		// whole merge converges.
		for _, sh := range ss.shards {
			if sh.st.hasPending() {
				sh.st.abortMerge()
			}
		}
	}
	return commitErr
}

// Checkpoint commits every shard's changes since its last checkpoint,
// fsyncing data files first. Shards checkpoint in parallel; each
// shard's checkpoint is atomic on its own (Store.Checkpoint).
func (ss *ShardedStore) Checkpoint() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.forEachShard(func(_ int, st *Store) error {
		return st.Checkpoint()
	})
}

// CompactDue reports whether any shard's file has grown to the
// compaction trigger (see the package comment): the engines ask after
// a refresh has committed.
func (ss *ShardedStore) CompactDue() bool {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for _, sh := range ss.shards {
		if sh.st.compactDue() {
			return true
		}
	}
	return false
}

// Compact reconstructs the file of every shard that has crossed the
// compaction trigger, dropping obsolete chunk versions (paper: "the
// MRBGraph file is reconstructed off-line when the worker is idle");
// shards below it are left alone. Shards compact concurrently, and a
// compacted shard is checkpointed as of now.
func (ss *ShardedStore) Compact() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.forEachShard(func(_ int, st *Store) error {
		if !st.compactDue() {
			return nil
		}
		return st.Compact()
	})
}

// VerifyInvariants walks every shard's index checking chunk integrity,
// plus the sharding invariant: every key lives in the shard its hash
// routes to.
func (ss *ShardedStore) VerifyInvariants() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.forEachShard(func(i int, st *Store) error {
		if err := st.VerifyInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for k := range st.index {
			if want := ss.shardFor(k); want != i {
				return fmt.Errorf("mrbg: key %q in shard %d, routes to %d", k, i, want)
			}
		}
		return nil
	})
}

// Package results implements the durable per-partition result store of
// the one-step incremental engine (internal/incr). A Store holds the
// materialized Reduce outputs of one reduce partition as a map from a
// group key (the Reduce input key K2, or K3 for accumulator jobs) to
// the output pairs that group's Reduce call emitted.
//
// Incremental view-maintenance systems treat the materialized result as
// a first-class store that is *patched*, not rebuilt: a delta refresh
// replaces or deletes only the affected groups, and the store remembers
// everything else. The on-disk layout follows the small-LSM shape used
// throughout this codebase (cf. the MRBG-Store):
//
//	results.meta — the manifest: segment list (oldest first), the
//	               segment sequence counter, and the DFS path the
//	               store was last materialized to. Written atomically
//	               (temp file + rename + dir sync); its presence marks
//	               the store as initialized, which incr.Open relies on
//	               to resume a runner after process death.
//	seg-*.seg    — immutable segments: group records sorted by group
//	               key. A record is either a live group (its output
//	               pairs) or a tombstone (the group was deleted).
//
// # Segment formats
//
// New segments are written in the v2 block format (internal/blockio):
// records are packed into ~32 KiB blocks, each CRC-checked and
// optionally compressed, under a sparse first-key-per-block index and a
// per-segment bloom filter. A point lookup probes the bloom filter
// (an absent key usually costs zero I/O), then reads exactly one block.
// A manifest naming a file that is not a block file — the flat v1
// segment layout of early versions, or damage — fails Open with an
// error wrapping blockio.ErrNotBlockFile; it is never read as empty.
// ("results v1" names the manifest schema, not a segment format.)
//
// Mutations accumulate in an in-memory memtable; Checkpoint flushes it
// as a new segment and persists the manifest. Reads overlay the
// memtable over the segments newest-first. When the segment count
// reaches Options.CompactThreshold, Checkpoint folds all segments into
// one, dropping tombstones and obsolete group versions — the
// "reconstructed when idle" treatment the paper gives the MRBGraph
// file, applied to the result set.
//
// # Snapshot isolation
//
// Reads are snapshot-isolated so a serving layer can query the store
// while a refresh mutates it. Store.Snapshot captures the current
// segment set plus a frozen view of the memtable; Get, MultiGet, and
// AllGroups run against such a snapshot without blocking writers (the
// store mutex is held only for the capture itself and for memtable
// mutations — never across segment I/O). Segments are refcounted:
// compaction and Reset detach obsolete segments but defer closing and
// deleting their files until the last snapshot referencing them is
// released, so a snapshot keeps reading the exact bytes it was captured
// over no matter how many refreshes and compactions run meanwhile. A
// segment file whose deferred deletion fails is left behind as an
// orphan, counted in Stats.Orphaned; the next Open re-sweeps orphans
// (any seg-*.seg file the manifest does not reference).
package results

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"i2mapreduce/internal/blockio"
	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/kv"
)

// DefaultCompactThreshold is the segment count at which Checkpoint
// compacts, when Options.CompactThreshold is zero.
const DefaultCompactThreshold = 4

// Options configures a Store.
type Options struct {
	// Dir is the directory holding the manifest and segments. Required.
	Dir string
	// CompactThreshold is the number of on-disk segments that triggers a
	// compaction during Checkpoint. 0 means DefaultCompactThreshold; a
	// negative value disables compaction entirely.
	CompactThreshold int
	// BlockBytes is the target decoded bytes per segment block in newly
	// written (v2) segments. 0 means blockio.DefaultBlockBytes (32 KiB).
	BlockBytes int
	// Compression selects the per-block codec for newly written
	// segments: "" or "none" (raw), or "flate". Reads auto-detect each
	// block's codec, so the knob can change between runs freely.
	Compression string
	// BloomBitsPerKey sizes the per-segment bloom filter. 0 means
	// blockio.DefaultBloomBitsPerKey (10, ~1% false positives); a
	// negative value disables the filter.
	BloomBitsPerKey int
}

// Stats reports the store's shape and maintenance work.
type Stats struct {
	// Segments is the current on-disk segment count.
	Segments int
	// SegmentBytes is the total encoded size of those segments.
	SegmentBytes int64
	// Compactions counts compactions since Open.
	Compactions int64
	// CompactedBytes counts the obsolete segment bytes dropped by those
	// compactions (pre-compaction size minus post-compaction size).
	CompactedBytes int64
	// Flushes counts memtable flushes (checkpointed segments written).
	Flushes int64
	// Orphaned counts segment files whose deletion failed and were left
	// on disk unreferenced by the manifest — a durable-space leak signal
	// (the next Open re-sweeps them). Includes sweep failures at Open.
	Orphaned int64
	// BlocksRead counts segment blocks decoded by reads and merges (v2
	// segments only; a point hit costs exactly one).
	BlocksRead int64
	// BloomSkips counts segment probes answered "absent" by a segment's
	// bloom filter with zero block I/O.
	BloomSkips int64
	// BytesDecompressed counts decoded bytes produced by per-block
	// decompression on the read path (zero when Compression is "none").
	BytesDecompressed int64
}

// removeFile deletes a segment file; a package variable so tests can
// exercise the deletion-failure (orphan) accounting.
var removeFile = os.Remove

// entry is one memtable slot: a group's pending output pairs, or a
// tombstone marking the group deleted.
type entry struct {
	pairs []kv.Pair
	tomb  bool
}

// segment is one immutable sorted run of group records in the v2 block
// format; the file and its parsed footer never change after creation.
// The lifecycle fields below are guarded by the owning Store's mu.
type segment struct {
	path  string
	f     *os.File
	bf    *blockio.File // parsed block index + bloom filter
	bytes int64

	// refs counts snapshots (and transient point-read pins) holding the
	// segment open.
	refs int
	// detached marks a segment the store no longer lists (dropped by
	// compaction, Reset, or Close); it is destroyed when refs reaches
	// zero.
	detached bool
	// remove requests file deletion at destruction (compaction and
	// Reset set it; Close does not — the files are still live state).
	remove bool
}

// Store is one partition's durable result store. All methods are safe
// for concurrent use. mu guards the memtable and the segment list and
// is held only for short critical sections; maintMu serializes the
// maintenance operations (Checkpoint, Compact, Reset, Close) whose
// heavy I/O runs off-lock, so readers never stall behind a segment
// flush or a compaction merge.
type Store struct {
	mu      sync.Mutex
	maintMu sync.Mutex
	opts    Options
	seq     int64 // next segment sequence number; guarded by mu
	segs    []*segment
	// initialized reports whether a manifest existed when the store was
	// opened — i.e. a previous process checkpointed results here.
	initialized bool
	mem         map[string]entry
	// imm is the frozen memtable a Checkpoint is currently flushing
	// (nil otherwise). Reads overlay mem over imm over the segments.
	imm map[string]entry
	// discards counts DiscardPending calls; a failed flush folds its
	// frozen entries back only if no discard happened since the freeze
	// (unfreeze must not resurrect discarded mutations).
	discards   int64
	dirty      bool
	lastOutput string
	stats      Stats

	// blockOpts is the resolved blockio configuration every new segment
	// is written with. Immutable after Open.
	blockOpts blockio.Options
	// sched, when attached, takes over threshold compaction: Checkpoint
	// stops compacting inline (a refresh pays only flush + manifest
	// commit) and notifies the scheduler instead. Guarded by mu.
	sched *Scheduler
	// fileStats / bloomSkips account the lock-free segment read path
	// (snapshot reads hold no store lock); folded into Stats().
	fileStats  blockio.FileStats
	bloomSkips atomic.Int64
}

const manifestName = "results.meta"

// Open creates a store in opts.Dir or recovers the one checkpointed
// there. Segments written but never referenced by the manifest (a crash
// between segment write and manifest commit, or a deferred deletion
// that failed) are swept; sweep failures count into Stats.Orphaned.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("results: Options.Dir is required")
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	codec, err := blockio.ParseCodec(opts.Compression)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: creating dir: %w", err)
	}
	s := &Store{opts: opts, mem: make(map[string]entry)}
	s.blockOpts = blockio.Options{
		BlockBytes:      opts.BlockBytes,
		Codec:           codec,
		BloomBitsPerKey: opts.BloomBitsPerKey,
	}
	names, last, seq, ok, err := readManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.initialized = ok
	s.seq = seq
	s.lastOutput = last
	referenced := make(map[string]bool, len(names))
	for _, name := range names {
		referenced[name] = true
		seg, err := s.openSegment(filepath.Join(opts.Dir, name))
		if err != nil {
			s.closeSegments()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	// Re-sweep orphaned segment files: leftovers of a crash
	// mid-checkpoint or of an earlier deletion failure.
	dirEnts, err := os.ReadDir(opts.Dir)
	if err != nil {
		s.closeSegments()
		return nil, err
	}
	for _, de := range dirEnts {
		name := de.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !referenced[name] {
			if err := removeFile(filepath.Join(opts.Dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				s.stats.Orphaned++
			}
		}
	}
	return s, nil
}

// Initialized reports whether the store was recovered from a manifest a
// previous process wrote — the signal incr.Open uses to decide that a
// preserved computation exists.
func (s *Store) Initialized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.initialized
}

func (s *Store) closeSegments() {
	for _, seg := range s.segs {
		//i2vet:allow errclose read-side segment handle; the segment's bytes were fsynced when its writer finished
		seg.f.Close()
	}
}

// releaseLocked drops one reference to seg, destroying it if it was the
// last and the store has detached the segment. Callers hold s.mu.
func (s *Store) releaseLocked(seg *segment) error {
	seg.refs--
	if seg.refs == 0 && seg.detached {
		return s.destroyLocked(seg)
	}
	return nil
}

// dropLocked detaches seg from the store; the file is deleted at
// destruction when remove is set. Destruction happens immediately when
// no snapshot pins the segment, otherwise at the last release. Callers
// hold s.mu and must have removed seg from s.segs (or be about to).
func (s *Store) dropLocked(seg *segment, remove bool) error {
	seg.detached, seg.remove = true, remove
	if seg.refs == 0 {
		return s.destroyLocked(seg)
	}
	return nil
}

// destroyLocked closes the segment file and, if requested, deletes it,
// reporting the close error (a write-back fault at shutdown must not
// pass silently). A failed deletion leaves an orphan: surfaced in
// Stats.Orphaned and re-swept by the next Open (the manifest no longer
// references it).
func (s *Store) destroyLocked(seg *segment) error {
	cerr := seg.f.Close()
	if seg.remove {
		if err := removeFile(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.stats.Orphaned++
		}
	}
	return cerr
}

// Reset discards the store's entire contents — memtable, segments, and
// manifest — returning it to the freshly-created state. The one-step
// engine uses it to clear the partial results of an initial run that
// died before committing its completion marker. The manifest is removed
// first, so a crash mid-Reset leaves an uninitialized store plus orphan
// segments (cleaned by the next Open), never a manifest referencing
// deleted files. Snapshots captured before the Reset keep reading the
// pre-Reset data until released.
func (s *Store) Reset() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := os.Remove(filepath.Join(s.opts.Dir, manifestName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// The unlink must be durable before any referenced segment goes, or
	// a crash could resurrect a manifest pointing at deleted files.
	if err := fsutil.SyncDir(s.opts.Dir); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		s.dropLocked(seg, true)
	}
	s.segs = nil
	s.mem = make(map[string]entry)
	s.initialized = false
	s.dirty = false
	s.lastOutput = ""
	return nil
}

// Close detaches the segment files without checkpointing. Pending
// memtable mutations are lost (they were never promised durable); a
// segment still pinned by an open snapshot stays readable until the
// snapshot is released.
func (s *Store) Close() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.segs {
		if err := s.dropLocked(seg, false); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	return first
}

// Set replaces group key's output pairs. The slice is retained; callers
// must not mutate it afterwards.
func (s *Store) Set(key string, pairs []kv.Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = entry{pairs: pairs}
	s.dirty = true
}

// DiscardPending drops every uncheckpointed mutation (the memtable),
// restoring the in-memory view to the last durable state. The one-step
// engine calls it at the start of an accumulator reduce task attempt so
// a retried attempt re-folds its groups from clean state instead of
// double-accumulating on top of the failed attempt's partial folds. The
// dirty flag is left as-is (conservatively: an unnecessary rewrite is
// safe, a skipped one is not). Mutations a concurrent Checkpoint has
// already frozen for flushing are past discarding — they commit with
// that checkpoint, exactly as if it had completed before this call —
// but a discard does bar a *failed* flush from resurrecting them.
func (s *Store) DiscardPending() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem = make(map[string]entry)
	s.discards++
}

// Delete removes group key (a tombstone is durably recorded so the
// deletion survives restarts even while older segments still hold the
// group).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = entry{tomb: true}
	s.dirty = true
}

// copyPairs returns a defensive copy of a memtable-backed pair slice:
// Set retains the caller's slice, so handing the same backing array
// back out of Get would let a reader mutation silently corrupt pending
// durable state.
func copyPairs(ps []kv.Pair) []kv.Pair {
	if ps == nil {
		return nil
	}
	return append([]kv.Pair(nil), ps...)
}

// Get returns group key's current output pairs (memtable first, then
// segments newest to oldest). ok is false when the group is absent or
// tombstoned. The returned slice is the caller's to keep. The store
// mutex is held only to locate the record; the segment read itself runs
// off-lock against a pinned segment, so point lookups never stall
// behind a checkpoint or compaction.
func (s *Store) Get(key string) ([]kv.Pair, bool, error) {
	s.mu.Lock()
	if e, ok := s.mem[key]; ok {
		s.mu.Unlock()
		if e.tomb {
			return nil, false, nil
		}
		return copyPairs(e.pairs), true, nil
	}
	if e, ok := s.imm[key]; ok {
		s.mu.Unlock()
		if e.tomb {
			return nil, false, nil
		}
		return copyPairs(e.pairs), true, nil
	}
	// Pin the whole segment list for the probe (a mini-snapshot without
	// the memtable copy): a v2 probe is not resolved until its candidate
	// block has been read off-lock, and a miss must continue to the next
	// older segment, which by then may have been compacted away.
	segs := append([]*segment(nil), s.segs...)
	for _, seg := range segs {
		seg.refs++
	}
	s.mu.Unlock()
	pairs, found, err := s.getFromSegments(segs, key)
	s.mu.Lock()
	for _, seg := range segs {
		s.releaseLocked(seg)
	}
	s.mu.Unlock()
	return pairs, found, err
}

// getFromSegments probes pinned segments newest-first for key. Takes
// no lock; used by Store.Get and snapshot reads alike.
func (s *Store) getFromSegments(segs []*segment, key string) ([]kv.Pair, bool, error) {
	for i := len(segs) - 1; i >= 0; i-- {
		rec, ok, err := s.segGet(segs[i], key)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		if rec.tomb {
			return nil, false, nil
		}
		return rec.pairs, true, nil
	}
	return nil, false, nil
}

// segGet probes one segment for key. A false answer is definitive for
// that segment (the bloom filter never false-negatives, and the block
// scan is exact), so callers fall through to the next older segment.
func (s *Store) segGet(seg *segment, key string) (record, bool, error) {
	if !seg.bf.MayContain(key) {
		s.bloomSkips.Add(1)
		return record{}, false, nil
	}
	bi, ok := seg.bf.FindBlock(key)
	if !ok {
		return record{}, false, nil
	}
	buf := blockio.GetBuf()
	defer blockio.PutBuf(buf)
	data, err := seg.bf.ReadBlock(bi, buf)
	if err != nil {
		return record{}, false, err
	}
	return findInBlock(data, key)
}

// MultiGet answers a batch of point lookups against one consistent
// snapshot: pairs[i], found[i] correspond to keys[i].
func (s *Store) MultiGet(keys []string) (pairs [][]kv.Pair, found []bool, err error) {
	sn := s.Snapshot()
	defer sn.Close()
	return sn.MultiGet(keys)
}

// Pending reports the number of uncheckpointed mutations in the
// memtable — the dirty groups the next Checkpoint will flush (including
// a freeze a concurrent Checkpoint has in flight).
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + len(s.imm)
}

// Dirty reports whether the store changed since it was last
// materialized to a DFS output file.
func (s *Store) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// LastOutput returns the DFS path this store was last materialized to
// ("" if never).
func (s *Store) LastOutput() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastOutput
}

// Materialized records that the store's current contents were written
// to the DFS path, clearing the dirty flag and persisting the path so a
// resumed runner knows where its last output lives. The manifest fsync
// runs off the read lock (under the maintenance mutex, like every
// manifest commit).
func (s *Store) Materialized(path string) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	s.dirty = false
	s.lastOutput = path
	s.mu.Unlock()
	return s.commitManifest()
}

// Stats returns a snapshot of the store's shape counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segs)
	st.SegmentBytes = 0
	for _, seg := range s.segs {
		st.SegmentBytes += seg.bytes
	}
	st.BlocksRead = s.fileStats.BlocksRead.Load()
	st.BytesDecompressed = s.fileStats.BytesDecompressed.Load()
	st.BloomSkips = s.bloomSkips.Load()
	return st
}

// record is one decoded group record.
type record struct {
	key   string
	pairs []kv.Pair
	tomb  bool
}

// sortedRecords flattens a memtable view into key-sorted records;
// defensive requests copies of the pair slices (for views handed to
// callers, which must not alias pending durable state).
func sortedRecords(m map[string]entry, defensive bool) []record {
	recs := make([]record, 0, len(m))
	for k, e := range m {
		ps := e.pairs
		if defensive {
			ps = copyPairs(ps)
		}
		recs = append(recs, record{key: k, pairs: ps, tomb: e.tomb})
	}
	slices.SortFunc(recs, func(a, b record) int { return strings.Compare(a.key, b.key) })
	return recs
}

// ---------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------

// Snapshot is an immutable point-in-time view of a Store: the segment
// set at capture plus a frozen view of the memtable. Reads against a
// snapshot take no store lock and are unaffected by later Sets,
// Checkpoints, Compacts, or Resets — compaction defers deleting the
// segment files a snapshot references until the snapshot is released.
// A Snapshot is safe for concurrent use by many readers; Close releases
// it (idempotent) and must be called exactly when no reads are in
// flight anymore. Reading a closed snapshot is a bug (the pinned
// segment files may have been closed and deleted).
type Snapshot struct {
	s    *Store
	segs []*segment // oldest first, pinned via refs
	// overlay is the frozen memtable view (live memtable over any
	// mid-flush frozen memtable); nil when both were empty.
	overlay map[string]entry
	closed  bool
}

// Snapshot captures the store's current contents. The store mutex is
// held only for the capture (reference bumps and a memtable map copy),
// never across I/O.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := append([]*segment(nil), s.segs...)
	for _, seg := range segs {
		seg.refs++
	}
	var overlay map[string]entry
	if len(s.mem)+len(s.imm) > 0 {
		overlay = make(map[string]entry, len(s.mem)+len(s.imm))
		for k, e := range s.imm {
			overlay[k] = e
		}
		for k, e := range s.mem {
			overlay[k] = e
		}
	}
	return &Snapshot{s: s, segs: segs, overlay: overlay}
}

// Close releases the snapshot's segment pins; segments made obsolete by
// a compaction or Reset since the capture are destroyed (file closed
// and deleted) when their last pin drops. Idempotent.
func (sn *Snapshot) Close() error {
	sn.s.mu.Lock()
	defer sn.s.mu.Unlock()
	if sn.closed {
		return nil
	}
	sn.closed = true
	var first error
	for _, seg := range sn.segs {
		if err := sn.s.releaseLocked(seg); err != nil && first == nil {
			first = err
		}
	}
	sn.segs = nil
	return first
}

// Get returns group key's pairs as of the snapshot; ok is false when
// the group is absent or tombstoned. Lock-free and safe for concurrent
// use.
func (sn *Snapshot) Get(key string) ([]kv.Pair, bool, error) {
	if e, ok := sn.overlay[key]; ok {
		if e.tomb {
			return nil, false, nil
		}
		return copyPairs(e.pairs), true, nil
	}
	return sn.s.getFromSegments(sn.segs, key)
}

// GetCached is Get through a BlockCache: each decoded v2 segment block
// the lookup touches is materialized into (or served from) bc, so a
// working set of hot blocks is decoded once per cache lifetime instead
// of once per lookup. fromCache reports whether the answer came from a
// cached block (false for memtable-overlay answers and overall
// misses). The serving layer keys one BlockCache per epoch;
// because segments are immutable a cached block can never be stale.
func (sn *Snapshot) GetCached(key string, bc *BlockCache) (pairs []kv.Pair, found, fromCache bool, err error) {
	if e, ok := sn.overlay[key]; ok {
		if e.tomb {
			return nil, false, false, nil
		}
		return copyPairs(e.pairs), true, false, nil
	}
	for i := len(sn.segs) - 1; i >= 0; i-- {
		seg := sn.segs[i]
		if bc == nil {
			rec, ok, err := sn.s.segGet(seg, key)
			if err != nil {
				return nil, false, false, err
			}
			if !ok {
				continue
			}
			if rec.tomb {
				return nil, false, false, nil
			}
			return rec.pairs, true, false, nil
		}
		if !seg.bf.MayContain(key) {
			sn.s.bloomSkips.Add(1)
			continue
		}
		bi, ok := seg.bf.FindBlock(key)
		if !ok {
			continue
		}
		recs, cached, err := bc.block(seg, bi)
		if err != nil {
			return nil, false, false, err
		}
		j := sort.Search(len(recs), func(j int) bool { return recs[j].key >= key })
		if j >= len(recs) || recs[j].key != key {
			continue // definitive miss for this segment
		}
		if recs[j].tomb {
			return nil, false, cached, nil
		}
		return copyPairs(recs[j].pairs), true, cached, nil
	}
	return nil, false, false, nil
}

// BlockCache is a bounded cache of materialized segment blocks, keyed
// by block identity (segment, block index). Entries are decoded,
// key-sorted record slices; they are immutable and shared, so callers
// must copy pairs before handing them out. Because segments never
// change after creation there is no invalidation: drop the whole cache
// when its working set should die (the serving layer drops one per
// epoch flip). When full it stops admitting new blocks — the hot set
// is whatever got in first. Safe for concurrent use.
type BlockCache struct {
	mu  sync.RWMutex
	cap int
	m   map[blockCacheKey][]record
}

type blockCacheKey struct {
	seg *segment
	idx int
}

// DefaultBlockCacheSize is the NewBlockCache capacity when size is 0.
const DefaultBlockCacheSize = 256

// NewBlockCache returns a cache holding up to size decoded blocks.
// 0 means DefaultBlockCacheSize; negative disables caching (every
// lookup decodes its block afresh).
func NewBlockCache(size int) *BlockCache {
	if size == 0 {
		size = DefaultBlockCacheSize
	}
	if size < 0 {
		return &BlockCache{}
	}
	return &BlockCache{cap: size, m: make(map[blockCacheKey][]record, size/4)}
}

// Len reports the number of blocks currently cached.
func (bc *BlockCache) Len() int {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return len(bc.m)
}

// block returns segment seg's block bi as sorted records, decoding and
// (capacity permitting) admitting it on first touch. cached reports
// whether the block was already resident.
func (bc *BlockCache) block(seg *segment, bi int) (recs []record, cached bool, err error) {
	k := blockCacheKey{seg: seg, idx: bi}
	if bc.cap > 0 {
		bc.mu.RLock()
		recs, cached = bc.m[k]
		bc.mu.RUnlock()
		if cached {
			return recs, true, nil
		}
	}
	buf := blockio.GetBuf()
	data, err := seg.bf.ReadBlock(bi, buf)
	if err != nil {
		blockio.PutBuf(buf)
		return nil, false, err
	}
	for len(data) > 0 {
		rec, n, err := decodeRecord(data)
		if err != nil {
			blockio.PutBuf(buf)
			return nil, false, fmt.Errorf("results: %s block %d: %w", seg.path, bi, err)
		}
		recs = append(recs, rec)
		data = data[n:]
	}
	blockio.PutBuf(buf)
	if bc.cap > 0 {
		bc.mu.Lock()
		if len(bc.m) < bc.cap {
			bc.m[k] = recs
		}
		bc.mu.Unlock()
	}
	return recs, false, nil
}

// MultiGet answers a batch of point lookups: pairs[i], found[i]
// correspond to keys[i].
func (sn *Snapshot) MultiGet(keys []string) (pairs [][]kv.Pair, found []bool, err error) {
	pairs = make([][]kv.Pair, len(keys))
	found = make([]bool, len(keys))
	for i, k := range keys {
		ps, ok, err := sn.Get(k)
		if err != nil {
			return nil, nil, err
		}
		pairs[i], found[i] = ps, ok
	}
	return pairs, found, nil
}

// AllGroups streams every live group as of the snapshot in ascending
// group-key order (newest version wins per key, tombstones skipped).
// The pairs slice is owned by the callback only until it returns.
func (sn *Snapshot) AllGroups(fn func(key string, pairs []kv.Pair) error) error {
	return mergeRecords(sn.segs, sortedRecords(sn.overlay, true), func(r record) error {
		if r.tomb {
			return nil
		}
		return fn(r.key, r.pairs)
	})
}

// AllGroups streams every live group in ascending group-key order,
// overlaying the memtable on the segments (newest wins per key,
// tombstones skipped). It runs against an internally captured snapshot,
// so concurrent writers are never blocked for the duration of the
// stream. The pairs slice is owned by the callback only until it
// returns.
func (s *Store) AllGroups(fn func(key string, pairs []kv.Pair) error) error {
	sn := s.Snapshot()
	defer sn.Close()
	return sn.AllGroups(fn)
}

// ---------------------------------------------------------------------
// Checkpoint / compaction.
// ---------------------------------------------------------------------

// Checkpoint makes the store durable: the memtable (if non-empty)
// flushes as a new sorted segment, the manifest commits, and — when the
// segment count reaches the compaction threshold — the segments fold
// into one. Always writes the manifest, so a fresh store becomes
// Initialized after its first Checkpoint even with no groups. The
// segment write and any compaction merge run off the read lock;
// concurrent readers and snapshots are never blocked behind them.
func (s *Store) Checkpoint() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := s.flush(); err != nil {
		return err
	}
	s.mu.Lock()
	n := len(s.segs)
	sched := s.sched
	s.mu.Unlock()
	committed := false
	// With a background scheduler attached, compaction leaves the
	// critical path entirely: Checkpoint only flushes and commits, and
	// the scheduler (notified below) folds segments behind the refresh.
	if sched == nil && s.opts.CompactThreshold > 0 && n >= s.opts.CompactThreshold {
		var err error
		if committed, err = s.compact(); err != nil {
			return err
		}
	}
	// A compaction already committed the manifest (it must, before
	// deleting the folded segments); don't pay a second identical fsync.
	if !committed {
		if err := s.commitManifest(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.initialized = true
	s.mu.Unlock()
	sched.Notify(s)
	return nil
}

// AttachScheduler hands the store's threshold compaction to a
// background Scheduler (nil detaches, restoring inline compaction).
// See Checkpoint.
func (s *Store) AttachScheduler(sched *Scheduler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched = sched
}

// CompactDue reports whether the store's segment count has reached its
// compaction threshold. Always false with a single segment (nothing to
// fold) or with compaction disabled (CompactThreshold <= 0).
func (s *Store) CompactDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs) > 1 && s.opts.CompactThreshold > 0 && len(s.segs) >= s.opts.CompactThreshold
}

// Compact folds every segment into one, dropping tombstones and
// obsolete group versions. Intended for idle periods; Checkpoint calls
// it automatically at the threshold. The merge runs off the read lock;
// open snapshots keep the pre-compaction segment files alive until
// released.
func (s *Store) Compact() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	_, err := s.compact()
	return err
}

// flush freezes the memtable and writes it as a new fsynced segment.
// Runs with maintMu held; mu is taken only for the freeze and the
// commit, so readers see either the pre-flush or post-flush state and
// never wait on the segment write. On error the frozen entries fold
// back under the live memtable (entries written meanwhile win).
func (s *Store) flush() error {
	s.mu.Lock()
	if len(s.mem) == 0 {
		s.mu.Unlock()
		return nil
	}
	s.imm = s.mem
	s.mem = make(map[string]entry)
	frozen := s.imm
	gen := s.discards
	seq := s.nextSeqLocked()
	s.mu.Unlock()
	sw, err := s.newSegmentWriter(seq)
	if err != nil {
		s.unfreeze(gen)
		return err
	}
	for _, r := range sortedRecords(frozen, false) {
		if err := sw.add(r); err != nil {
			sw.abort()
			s.unfreeze(gen)
			return err
		}
	}
	seg, err := sw.finish()
	if err != nil {
		s.unfreeze(gen)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = append(s.segs, seg)
	s.imm = nil
	s.stats.Flushes++
	return nil
}

// unfreeze folds the frozen memtable back under the live one after a
// failed flush; entries written during the flush are newer and win,
// and if a DiscardPending ran since the freeze (gen moved on) the
// frozen entries are dropped instead of resurrected.
func (s *Store) unfreeze(gen int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.discards == gen {
		for k, e := range s.imm {
			if _, ok := s.mem[k]; !ok {
				s.mem[k] = e
			}
		}
	}
	s.imm = nil
}

// compact merges the current segments into one via a streaming
// newest-wins merge, reporting whether it committed the manifest. Runs
// with maintMu held (no concurrent flush can change the segment list);
// the merge itself runs against pinned segments with mu released, so
// reads proceed throughout. The manifest commits BEFORE the old
// segment files are deleted — a manifest still referencing the old
// files plus an unreferenced new segment is recoverable after a crash
// (the orphan is swept on Open); a manifest referencing deleted files
// is not. Deletion of a segment still pinned by a snapshot is deferred
// to the snapshot's release. The memtable is not touched (the live
// overlay wins over whatever the segments hold).
func (s *Store) compact() (committed bool, err error) {
	s.mu.Lock()
	if len(s.segs) <= 1 {
		s.mu.Unlock()
		return false, nil
	}
	old := append([]*segment(nil), s.segs...)
	var before int64
	for _, seg := range old {
		seg.refs++ // pin the merge inputs
		before += seg.bytes
	}
	seq := s.nextSeqLocked()
	s.mu.Unlock()
	sw, err := s.newSegmentWriter(seq)
	if err != nil {
		s.unpin(old)
		return false, err
	}
	err = mergeRecords(old, nil, func(r record) error {
		if r.tomb {
			return nil // fully merged: tombstones have done their work
		}
		return sw.add(r)
	})
	if err != nil {
		sw.abort()
		s.unpin(old)
		return false, err
	}
	seg, err := sw.finish()
	if err != nil {
		s.unpin(old)
		return false, err
	}
	s.mu.Lock()
	for _, o := range old {
		s.releaseLocked(o)
	}
	// maintMu excludes concurrent flushes, so the segment list is still
	// exactly the compacted prefix; keep any tail defensively.
	tail := s.segs[len(old):]
	s.segs = append([]*segment{seg}, tail...)
	s.stats.Compactions++
	s.stats.CompactedBytes += before - seg.bytes
	s.mu.Unlock()
	merr := s.commitManifest()
	s.mu.Lock()
	defer s.mu.Unlock()
	if merr != nil {
		// The durable manifest still references the old files, so they
		// must stay on disk for recovery — but in-memory the store has
		// already moved on, and once a later commit succeeds nothing in
		// this process will ever delete them. Count them as orphans
		// (the next Open re-sweeps anything the manifest stops
		// referencing) rather than leaking silently.
		for _, o := range old {
			s.dropLocked(o, false)
		}
		s.stats.Orphaned += int64(len(old))
		return false, merr
	}
	for _, o := range old {
		s.dropLocked(o, true)
	}
	return true, nil
}

// unpin releases the transient compaction pins after a failed merge.
func (s *Store) unpin(segs []*segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range segs {
		s.releaseLocked(seg)
	}
}

// recordSource streams records of one run in key order.
type recordSource interface {
	next() (record, error) // io.EOF at end
}

// sliceRecordSource streams an in-memory sorted record slice.
type sliceRecordSource struct {
	recs []record
	i    int
}

func (r *sliceRecordSource) next() (record, error) {
	if r.i >= len(r.recs) {
		return record{}, io.EOF
	}
	rec := r.recs[r.i]
	r.i++
	return rec, nil
}

// blockRecordSource streams a v2 block segment: blocks are read one at
// a time into a pooled buffer and decoded in place.
type blockRecordSource struct {
	bf   *blockio.File
	bi   int
	buf  *[]byte
	data []byte // undecoded remainder of the current block
}

func (b *blockRecordSource) next() (record, error) {
	for len(b.data) == 0 {
		if b.bi >= b.bf.NumBlocks() {
			return record{}, io.EOF
		}
		if b.buf == nil {
			b.buf = blockio.GetBuf()
		}
		data, err := b.bf.ReadBlock(b.bi, b.buf)
		if err != nil {
			return record{}, err
		}
		b.bi++
		b.data = data
	}
	rec, n, err := decodeRecord(b.data)
	if err != nil {
		return record{}, err
	}
	b.data = b.data[n:]
	return rec, nil
}

func (b *blockRecordSource) release() {
	if b.buf != nil {
		blockio.PutBuf(b.buf)
		b.buf = nil
	}
}

// releaser lets mergeRecords return pooled resources held by a source
// even when the merge stops early on an error.
type releaser interface{ release() }

// mergeRecords k-way merges the overlay (highest priority, may be nil)
// and the segments (newer = higher priority) into one newest-wins
// stream of records in ascending key order. Records for a key that lost
// to a newer version are consumed and dropped. Each segment is read
// through its own section reader (never the shared file offset), so any
// number of merges and point reads run concurrently over the same
// segment files.
func mergeRecords(segs []*segment, overlay []record, fn func(r record) error) error {
	// sources[0] is the overlay; sources[1..] are segments newest first,
	// so the lowest source index holding a key wins.
	sources := make([]recordSource, 0, len(segs)+1)
	sources = append(sources, &sliceRecordSource{recs: overlay})
	for i := len(segs) - 1; i >= 0; i-- {
		sources = append(sources, &blockRecordSource{bf: segs[i].bf})
	}
	defer func() {
		for _, src := range sources {
			if r, ok := src.(releaser); ok {
				r.release()
			}
		}
	}()
	heads := make([]*record, len(sources))
	advance := func(i int) error {
		rec, err := sources[i].next()
		if err == io.EOF {
			heads[i] = nil
			return nil
		}
		if err != nil {
			return err
		}
		heads[i] = &rec
		return nil
	}
	for i := range sources {
		if err := advance(i); err != nil {
			return err
		}
	}
	for {
		// Find the smallest key; the lowest source index wins ties.
		win := -1
		for i, h := range heads {
			if h == nil {
				continue
			}
			if win < 0 || h.key < heads[win].key {
				win = i
			}
		}
		if win < 0 {
			return nil
		}
		key := heads[win].key
		if err := fn(*heads[win]); err != nil {
			return err
		}
		// Consume this key from every source.
		for i := range heads {
			for heads[i] != nil && heads[i].key == key {
				if err := advance(i); err != nil {
					return err
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Segment codec. A record frames as:
//
//	uvarint(len(key)) key byte(kind) [uvarint(n) {uvarint(len k) k uvarint(len v) v}*]
//
// kind 0 = tombstone (no pairs follow), 1 = live group.
// ---------------------------------------------------------------------

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func encodeRecord(buf []byte, r record) []byte {
	buf = appendUvarint(buf, uint64(len(r.key)))
	buf = append(buf, r.key...)
	if r.tomb {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendUvarint(buf, uint64(len(r.pairs)))
	for _, p := range r.pairs {
		buf = appendUvarint(buf, uint64(len(p.Key)))
		buf = append(buf, p.Key...)
		buf = appendUvarint(buf, uint64(len(p.Value)))
		buf = append(buf, p.Value...)
	}
	return buf
}

// maxFieldLen bounds any single decoded field, turning a corrupted
// length prefix into an error instead of a huge allocation.
const maxFieldLen = 64 << 20

// splitField splits one length-prefixed field off the front of buf,
// returning the field (aliasing buf — zero copy) and the bytes
// consumed.
func splitField(buf []byte) ([]byte, int, error) {
	n, un := binary.Uvarint(buf)
	if un <= 0 {
		return nil, 0, errors.New("results: corrupt length prefix")
	}
	if n > maxFieldLen {
		return nil, 0, fmt.Errorf("results: corrupt field length %d", n)
	}
	end := un + int(n)
	if end > len(buf) {
		return nil, 0, errors.New("results: truncated field")
	}
	return buf[un:end], end, nil
}

// peekRecord parses the record at the front of a decoded block without
// materializing anything: the returned key aliases buf and n is the
// record's encoded length. The zero-allocation form of decodeRecord,
// used to skip past records a point lookup is not interested in.
func peekRecord(buf []byte) (key []byte, n int, err error) {
	key, n, err = splitField(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("results: corrupt record key: %w", err)
	}
	if n >= len(buf) {
		return nil, 0, errors.New("results: truncated record kind")
	}
	kind := buf[n]
	n++
	switch kind {
	case 0:
		return key, n, nil
	case 1:
		np, un := binary.Uvarint(buf[n:])
		if un <= 0 || np > maxFieldLen {
			return nil, 0, errors.New("results: corrupt pair count")
		}
		n += un
		for i := uint64(0); i < 2*np; i++ {
			_, fn, err := splitField(buf[n:])
			if err != nil {
				return nil, 0, fmt.Errorf("results: corrupt pair field: %w", err)
			}
			n += fn
		}
		return key, n, nil
	default:
		return nil, 0, fmt.Errorf("results: invalid record kind %d", kind)
	}
}

// decodeRecord materializes the record at the front of a decoded
// block, returning its encoded length. Strings are copied out; nothing
// in the result aliases buf (which is typically a pooled block buffer
// about to be recycled).
func decodeRecord(buf []byte) (record, int, error) {
	key, n, err := splitField(buf)
	if err != nil {
		return record{}, 0, fmt.Errorf("results: corrupt record key: %w", err)
	}
	if n >= len(buf) {
		return record{}, 0, errors.New("results: truncated record kind")
	}
	kind := buf[n]
	n++
	switch kind {
	case 0:
		return record{key: string(key), tomb: true}, n, nil
	case 1:
		np, un := binary.Uvarint(buf[n:])
		if un <= 0 || np > maxFieldLen {
			return record{}, 0, errors.New("results: corrupt pair count")
		}
		n += un
		pairs := make([]kv.Pair, 0, np)
		for i := uint64(0); i < np; i++ {
			k, kn, err := splitField(buf[n:])
			if err != nil {
				return record{}, 0, fmt.Errorf("results: corrupt pair key: %w", err)
			}
			n += kn
			v, vn, err := splitField(buf[n:])
			if err != nil {
				return record{}, 0, fmt.Errorf("results: corrupt pair value: %w", err)
			}
			n += vn
			pairs = append(pairs, kv.Pair{Key: string(k), Value: string(v)})
		}
		return record{key: string(key), pairs: pairs}, n, nil
	default:
		return record{}, 0, fmt.Errorf("results: invalid record kind %d", kind)
	}
}

// findInBlock scans a decoded block for key. Records the scan skips
// cost zero allocations (peekRecord aliases the block buffer); only a
// match is materialized. Records are key-sorted, so the scan stops at
// the first key past the target.
func findInBlock(data []byte, key string) (record, bool, error) {
	for len(data) > 0 {
		k, n, err := peekRecord(data)
		if err != nil {
			return record{}, false, err
		}
		if string(k) == key { // comparison only — does not allocate
			rec, _, err := decodeRecord(data)
			if err != nil {
				return record{}, false, err
			}
			return rec, true, nil
		}
		if string(k) > key {
			return record{}, false, nil
		}
		data = data[n:]
	}
	return record{}, false, nil
}

// segmentWriter streams records (sorted by key) into a new v2 block
// segment file; blockio builds the sparse index and bloom filter.
type segmentWriter struct {
	path  string
	f     *os.File
	bw    *blockio.Writer
	buf   []byte
	stats *blockio.FileStats // attached to the finished file's reader
}

// nextSeqLocked reserves the next segment sequence number. Callers
// hold s.mu; the file itself is created off-lock by newSegmentWriter.
func (s *Store) nextSeqLocked() int64 {
	s.seq++
	return s.seq
}

// newSegmentWriter opens the segment file for the reserved sequence
// number. The manifest is NOT updated — callers commit it after every
// structural change. Runs without s.mu (file creation is I/O).
func (s *Store) newSegmentWriter(seq int64) (*segmentWriter, error) {
	path := filepath.Join(s.opts.Dir, fmt.Sprintf("seg-%06d.seg", seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw, err := blockio.NewWriter(f, s.blockOpts)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &segmentWriter{path: path, f: f, bw: bw, stats: &s.fileStats}, nil
}

// add appends one record.
func (sw *segmentWriter) add(r record) error {
	sw.buf = encodeRecord(sw.buf[:0], r)
	return sw.bw.Append(r.key, sw.buf)
}

// finish writes the footer, fsyncs the file, and returns the segment
// ready for reads. On error the file is removed.
func (sw *segmentWriter) finish() (*segment, error) {
	bf, err := sw.bw.Finish()
	if err != nil {
		sw.abort()
		return nil, err
	}
	bf.SetStats(sw.stats)
	return &segment{path: sw.path, f: sw.f, bf: bf, bytes: bf.Size()}, nil
}

// abort discards the partially written file.
func (sw *segmentWriter) abort() {
	//i2vet:allow errclose abort path: the partial segment file is removed on the next line
	sw.f.Close()
	os.Remove(sw.path)
}

// openSegment opens an existing segment by parsing its block-file
// footer. A file in any other format is an error naming the file.
func (s *Store) openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("results: opening segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("results: opening segment: %w", err)
	}
	bf, err := blockio.Open(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("results: %s: %w", path, err)
	}
	bf.SetStats(&s.fileStats)
	return &segment{path: path, f: f, bf: bf, bytes: fi.Size()}, nil
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

// commitManifest persists the segment list, sequence counter, and last
// materialized output path atomically and durably. Callers hold
// maintMu (which serializes every manifest writer) but NOT mu: the
// bytes are assembled under the read lock, the fsync + rename runs off
// it, so readers never stall behind a manifest commit.
func (s *Store) commitManifest() error {
	s.mu.Lock()
	var b bytes.Buffer
	fmt.Fprintf(&b, "results v1\nseq=%d\nlast=%s\n", s.seq, s.lastOutput)
	for _, seg := range s.segs {
		fmt.Fprintf(&b, "seg=%s\n", filepath.Base(seg.path))
	}
	s.mu.Unlock()
	return fsutil.WriteFileAtomic(filepath.Join(s.opts.Dir, manifestName), b.Bytes())
}

// readManifest loads the manifest; ok=false when none exists (a fresh
// store).
func readManifest(dir string) (segs []string, last string, seq int64, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, "", 0, false, nil
	}
	if err != nil {
		return nil, "", 0, false, err
	}
	lines := strings.Split(string(b), "\n")
	if len(lines) == 0 || lines[0] != "results v1" {
		return nil, "", 0, false, fmt.Errorf("results: corrupt manifest header %q", string(b))
	}
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		k, v, found := strings.Cut(line, "=")
		if !found {
			return nil, "", 0, false, fmt.Errorf("results: corrupt manifest line %q", line)
		}
		switch k {
		case "seq":
			if _, err := fmt.Sscanf(v, "%d", &seq); err != nil {
				return nil, "", 0, false, fmt.Errorf("results: corrupt manifest seq %q", v)
			}
		case "last":
			last = v
		case "seg":
			if v == "" || strings.ContainsAny(v, "/\\") {
				return nil, "", 0, false, fmt.Errorf("results: corrupt manifest segment %q", v)
			}
			segs = append(segs, v)
		default:
			return nil, "", 0, false, fmt.Errorf("results: unknown manifest key %q", k)
		}
	}
	return segs, last, seq, true, nil
}

// Package mrbg implements the MRBGraph abstraction and the MRBG-Store
// (paper Sec. 3.2-3.4 and 5.2): the fine-grain intermediate state
// `(K2, MK, V2)` of a MapReduce computation, preserved reduce-side so
// incremental jobs re-compute only affected Reduce instances.
//
// # On-disk layout
//
// Open returns a ShardedStore: chunks are partitioned across
// Options.Shards independent shards by hash(K2) % Shards, so the hot
// paths (Merge, GetMany, Compact) can run one goroutine per shard. A
// store directory holds:
//
//	mrbg.meta — the shard count, fixed at creation time. Reopening with
//	    a different Options.Shards adopts the persisted count (keys
//	    would otherwise hash to the wrong file).
//	mrbg-<i>.g<n>.dat — generation n of shard i's MRBGraph file: chunk
//	    frames appended in sorted batches, one batch per merge operation
//	    (iteration). A chunk holds every live edge of one K2, stored
//	    contiguously; the unit of every read and write is a whole chunk.
//	    Exactly one generation is current; a compaction writes the next
//	    one and the index commit switches to it.
//	mrbg-<i>.idx — shard i's index log, the shard's single commit point.
//	    A sequence of records, each framed as
//
//	        len:u32le  crc32c(payload):u32le  payload
//
//	    with the payload
//
//	        uvarint generation, uvarint data-file length, uvarint batches,
//	        uvarint n, then n entries in ascending key order:
//	            uvarint len(key), key, uvarint len(frame)
//	            and, unless len(frame) is 0 (the key was removed):
//	            uvarint offset, uvarint batch, crc32c(frame):u32le
//
//	    Replaying the records in order onto an empty index yields the
//	    checkpointed state; the last record names the current generation,
//	    its logical length and the batch counter.
//
// Checkpoint fsyncs the data file and appends one record holding only
// the entries set or removed since the last checkpoint (and writes
// nothing when there are none), so it costs O(affected keys), not
// O(live keys). Open replays the log, drops a torn last record (any
// other damage is an error), truncates data-file bytes appended after
// the last checkpoint, and unlinks data files of other generations.
//
// Fold rule: when an append would grow the log past twice the size of
// a single record holding the whole index, Checkpoint instead replaces
// the log with that one record (temp file + rename). A store's first
// checkpoint and every compaction are folds too, so the log's first
// record is never torn and the log stays within 2x of the live index.
//
// Obsolete chunk versions are not rewritten in place (paper: "obsolete
// chunks are NOT immediately updated in the file for I/O efficiency");
// Compact reconstructs the file instead: it copies the live frames
// verbatim, in key order, into the next generation's file, fsyncs it,
// commits a folded index naming that generation, and unlinks the old
// one. A crash before the index commit leaves the old generation
// current (the new file is swept by Open); after it, the new one.
// CompactDue is the trigger: the file is at least compactRatio times
// its live bytes and at least compactFloor long. The engines check it
// once a refresh has committed — never between the iterations of one
// refresh — and compact inline, or on the background scheduler
// (results.Scheduler) when BackgroundCompaction is on.
//
// Every index entry carries the CRC32C of its chunk frame, verified on
// every chunk read and on the compaction copy; the frames themselves
// are unchanged. A flipped byte in either file is an error, never a
// wrong chunk.
//
// The layout before sharding (mrbg.dat/mrbg.idx with no mrbg.meta) is
// not read: Open refuses such a directory rather than creating an empty
// store beside the old files.
//
// With Shards: 1 (the default) a ShardedStore behaves exactly like the
// historical single-file store: same emit order, same query results,
// same I/O statistics.
package mrbg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Edge is one MRBGraph edge as preserved in a chunk: the source Map
// instance (MK, a globally unique fingerprint of the map input record)
// and the intermediate value V2 it contributed to this chunk's K2.
type Edge struct {
	MK uint64
	V2 string
}

// Chunk is the preserved Reduce input of one intermediate key: K2 plus
// all edges incident on it. Edges are kept in ascending MK order so
// chunk contents are deterministic.
type Chunk struct {
	Key   string
	Edges []Edge
}

// Values returns just the V2 list, in edge order — the {V2} multiset
// handed to the Reduce function.
func (c Chunk) Values() []string {
	vs := make([]string, len(c.Edges))
	for i, e := range c.Edges {
		vs[i] = e.V2
	}
	return vs
}

// DeltaEdge is one record of a delta MRBGraph: an edge insertion/update
// (Delete=false) or an edge deletion (Delete=true, V2 ignored), as
// produced by incremental Map computation (paper Sec. 3.3).
type DeltaEdge struct {
	Key    string
	MK     uint64
	V2     string
	Delete bool
}

// ReadStrategy selects how Merge reads preserved chunks (paper Table 4).
type ReadStrategy int

const (
	// IndexOnly reads exactly one chunk per I/O using the index.
	IndexOnly ReadStrategy = iota
	// SingleFixedWindow keeps one fixed-size read window for the whole
	// file; a miss reads FixedWindowSize bytes at the chunk position.
	// With multiple batches the window thrashes, re-reading obsolete
	// regions — the pathology Table 4 shows.
	SingleFixedWindow
	// MultiFixedWindow keeps one fixed-size window per batch.
	MultiFixedWindow
	// MultiDynamicWindow keeps one window per batch and sizes each read
	// with Algorithm 1's gap heuristic over the query plan. This is the
	// paper's default; this store's is IndexOnly (see Options.Strategy).
	MultiDynamicWindow
)

// String names the strategy as in Table 4.
func (s ReadStrategy) String() string {
	switch s {
	case IndexOnly:
		return "index-only"
	case SingleFixedWindow:
		return "single-fix-window"
	case MultiFixedWindow:
		return "multi-fix-window"
	case MultiDynamicWindow:
		return "multi-dynamic-window"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures a store.
type Options struct {
	// Dir is the directory holding the shard files. Required.
	Dir string
	// Shards is the number of independent shard files chunks are
	// partitioned across by hash(K2). Fixed at store creation and
	// persisted in mrbg.meta; reopening adopts the persisted count.
	// Default 1.
	Shards int
	// Parallelism bounds the goroutines fanned out across shards by
	// Merge, GetMany, Compact, and Checkpoint. Default GOMAXPROCS.
	Parallelism int
	// Strategy selects how chunks are read. The zero value, and so the
	// default every engine runs with, is IndexOnly: one exact read per
	// chunk. The paper's default, MultiDynamicWindow, must be asked for.
	Strategy ReadStrategy
	// GapThreshold is Algorithm 1's T: a gap between consecutive
	// queried chunks below T is worth reading through. Default 100 KB
	// (paper default).
	GapThreshold int64
	// ReadCacheSize caps any single read window. Default 1 MiB.
	ReadCacheSize int64
	// FixedWindowSize is the read size for the fixed-window strategies.
	// Default 256 KiB.
	FixedWindowSize int64
	// AppendBufSize is the append buffer capacity; the buffer flushes
	// with sequential I/O when full (paper Sec. 3.4). Default 256 KiB.
	AppendBufSize int64
}

func (o *Options) applyDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.GapThreshold <= 0 {
		o.GapThreshold = 100 << 10
	}
	if o.ReadCacheSize <= 0 {
		o.ReadCacheSize = 1 << 20
	}
	if o.FixedWindowSize <= 0 {
		o.FixedWindowSize = 256 << 10
	}
	if o.FixedWindowSize > o.ReadCacheSize {
		o.FixedWindowSize = o.ReadCacheSize
	}
	if o.AppendBufSize <= 0 {
		o.AppendBufSize = 256 << 10
	}
}

// Stats reports the store's I/O behaviour (Table 4's columns).
type Stats struct {
	// Reads is the number of read I/O operations issued.
	Reads int64
	// BytesRead is the total bytes fetched by those reads.
	BytesRead int64
	// CacheHits counts chunk retrievals satisfied by a read window.
	CacheHits int64
	// AppendedChunks counts chunks written through the append buffer.
	AppendedChunks int64
	// Flushes counts append-buffer flushes.
	Flushes int64
	// DanglingDeletes counts delta deletions whose key had no live
	// chunk (a symptom of a delta that does not match the preserved
	// MRBGraph).
	DanglingDeletes int64
	// Batches is the number of sorted batches in the file.
	Batches int
	// LiveChunks is the number of keys in the index.
	LiveChunks int
	// FileBytes is the logical length of the MRBGraph file, including
	// obsolete chunk versions.
	FileBytes int64
	// LiveBytes is the total size of live chunks only.
	LiveBytes int64
	// Compactions counts data-file reconstructions; CompactedBytes the
	// live bytes they copied into a new generation. Compaction's own
	// I/O is counted here only, never in Reads/BytesRead.
	Compactions    int64
	CompactedBytes int64
	// IndexBytesWritten counts the bytes Checkpoint and Compact wrote
	// to the index log (appended records and folded images).
	IndexBytesWritten int64
	// IndexLogBytes is the current length of the index log, and
	// IndexFoldedBytes the length a fold would cut it to: the log is
	// folded before it passes twice that.
	IndexLogBytes    int64
	IndexFoldedBytes int64
}

// loc locates one live chunk version inside the shard's data file.
type loc struct {
	off   int64
	len   int64
	batch int
	// crc is the CRC32C of the chunk's frame, checked whenever the frame
	// is read back.
	crc uint32
}

// castagnoli is the CRC32C table behind every checksum in this package.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is one shard of an MRBG-Store: the current generation of its
// MRBGraph file plus its index. It is not safe for concurrent use — the
// ShardedStore front end guarantees each shard is touched by one
// goroutine at a time.
type Store struct {
	opts Options
	id   int // shard number: names the shard's files
	// gen is the current data-file generation and f that file; nextGen
	// is the generation the next compaction writes (never reused within
	// a process, see Compact).
	gen, nextGen int64
	f            *os.File
	// index changes key by key only through setLoc/dropLoc, which keep
	// live, image and dirty in step with it (replay and compaction
	// replace it wholesale and retotal).
	index map[string]loc
	// size is the logical end of the file: committed bytes plus
	// buffered-but-unflushed appends land beyond it only after flush.
	size  int64
	batch int
	// live is the total frame length of the indexed chunks; image the
	// encoded length of their index entries (what a fold would write).
	live, image int64
	// dirty is the keys set or removed since the last checkpoint: the
	// next index-log record. idxSize is the committed length of the
	// index log; 0 forces the next checkpoint to fold.
	dirty   map[string]struct{}
	idxSize int64

	appendBuf []byte
	// pending maps keys to their new locations assigned at append time;
	// applied to the index when a merge completes.
	pending map[string]loc

	windows map[int]*window // per-batch read windows (strategy-dependent)
	stats   Stats

	// scratch holds the slices the merge loop reuses from key to key and
	// from merge to merge; they grow to the largest chunk merged. idx is
	// the checkpoint's record buffer.
	scratch struct {
		old, merged []Edge
		values      []string
		idx         []byte
	}

	// step, when set by a test, is called at each point of a compaction
	// where a crash leaves a different on-disk state.
	step func(name string)
}

// minEdgeBytes is the smallest encoded edge: 8 bytes of MK and a
// one-byte length of an empty V2.
const minEdgeBytes = 9

// shardDatName names generation gen of shard i's data file,
// shardIdxName its index log.
func shardDatName(i int, gen int64) string { return fmt.Sprintf("mrbg-%d.g%d.dat", i, gen) }
func shardIdxName(i int) string            { return fmt.Sprintf("mrbg-%d.idx", i) }

func (s *Store) datPath(gen int64) string { return filepath.Join(s.opts.Dir, shardDatName(s.id, gen)) }
func (s *Store) idxPath() string          { return filepath.Join(s.opts.Dir, shardIdxName(s.id)) }

// openShard creates or recovers shard i in opts.Dir: it replays the
// index log, opens the generation the log names (generation 0 for a
// store never checkpointed, emptied of anything it holds), cuts off
// data appended after the last checkpoint, and unlinks data files of
// every other generation — what a crash around a compaction's commit
// leaves behind. opts must already have defaults applied and opts.Dir
// must exist.
func openShard(opts Options, i int) (*Store, error) {
	s := &Store{
		opts:    opts,
		id:      i,
		index:   make(map[string]loc),
		dirty:   make(map[string]struct{}),
		pending: make(map[string]loc),
		windows: make(map[int]*window),
	}
	checkpointed, err := s.loadIndex()
	if err != nil {
		return nil, err
	}
	flags := os.O_RDWR
	if !checkpointed {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(s.datPath(s.gen), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mrbg: opening data file: %w", err)
	}
	s.f = f
	s.nextGen = s.gen + 1
	if err := s.trimDataFiles(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// trimDataFiles drops what no checkpoint covers: bytes of the current
// generation beyond the checkpointed length, and the files of all other
// generations.
func (s *Store) trimDataFiles() error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < s.size {
		return fmt.Errorf("mrbg: data file %s shorter (%d) than checkpoint (%d)", fi.Name(), fi.Size(), s.size)
	}
	if fi.Size() > s.size {
		if err := s.f.Truncate(s.size); err != nil {
			return err
		}
	}
	ents, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	prefix, current := fmt.Sprintf("mrbg-%d.g", s.id), shardDatName(s.id, s.gen)
	for _, e := range ents {
		name := e.Name()
		if name == current || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".dat") {
			continue
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, name)); err != nil {
			return fmt.Errorf("mrbg: sweeping stale generation: %w", err)
		}
	}
	return nil
}

// setLoc points key at l; dropLoc removes it. They are the only writers
// of the index, so the live-byte and image-size totals and the dirty
// set always match it.
func (s *Store) setLoc(key string, l loc) {
	if old, ok := s.index[key]; ok {
		s.live -= old.len
		s.image -= entrySize(key, old)
	}
	s.index[key] = l
	s.live += l.len
	s.image += entrySize(key, l)
	s.dirty[key] = struct{}{}
}

func (s *Store) dropLoc(key string) {
	old, ok := s.index[key]
	if !ok {
		return
	}
	delete(s.index, key)
	s.live -= old.len
	s.image -= entrySize(key, old)
	s.dirty[key] = struct{}{}
}

// Close releases the underlying file without checkpointing.
func (s *Store) Close() error { return s.f.Close() }

// Len returns the number of live chunks.
func (s *Store) Len() int { return len(s.index) }

// Has reports whether key has a live chunk.
func (s *Store) Has(key string) bool {
	_, ok := s.index[key]
	return ok
}

// Keys returns all live chunk keys in sorted order.
func (s *Store) Keys() []string {
	ks := make([]string, 0, len(s.index))
	for k := range s.index {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Stats returns a snapshot of the store's I/O statistics.
func (s *Store) Stats() Stats {
	st := s.stats
	st.Batches = s.batch
	st.LiveChunks = len(s.index)
	st.FileBytes = s.size
	st.LiveBytes = s.live
	st.IndexLogBytes = s.idxSize
	st.IndexFoldedBytes = s.imageBytes()
	return st
}

// ResetStats zeroes the I/O counters (batch/live counts and the index
// log length are derived and unaffected). The Table 4 harness resets
// between phases.
func (s *Store) ResetStats() { s.stats = Stats{} }

// encodeChunk appends the chunk's frame to buf and returns it. Frame:
//
//	uvarint(len(key)) key uvarint(nEdges) { mk:8 bytes uvarint(len(v2)) v2 }*
func encodeChunk(buf []byte, c Chunk) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(c.Key)))
	buf = append(buf, tmp[:n]...)
	buf = append(buf, c.Key...)
	n = binary.PutUvarint(tmp[:], uint64(len(c.Edges)))
	buf = append(buf, tmp[:n]...)
	for _, e := range c.Edges {
		binary.LittleEndian.PutUint64(tmp[:8], e.MK)
		buf = append(buf, tmp[:8]...)
		n = binary.PutUvarint(tmp[:], uint64(len(e.V2)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, e.V2...)
	}
	return buf
}

// decodeChunk parses one chunk frame from data. It returns the chunk
// and the number of bytes consumed.
func decodeChunk(data []byte) (Chunk, int, error) {
	return decodeChunkInto(nil, data)
}

// decodeChunkInto is decodeChunk appending the edges to edges[:0], so a
// caller that decodes many chunks in a row (the merge loop) reuses one
// edge slice. The frame is copied once, into a single string; the
// chunk's key and every V2 are substrings of it, so decoding costs one
// allocation however many edges the chunk holds. data should therefore
// be exactly the frame, as every caller in this package passes it.
func decodeChunkInto(edges []Edge, data []byte) (Chunk, int, error) {
	keyLen, n := binary.Uvarint(data)
	if n <= 0 || keyLen > uint64(len(data)-n) {
		return Chunk{}, 0, errors.New("mrbg: corrupt chunk key length")
	}
	keyAt := n
	pos := n + int(keyLen)
	nEdges, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return Chunk{}, 0, errors.New("mrbg: corrupt chunk edge count")
	}
	pos += n
	// An edge is at least 8 bytes of MK plus one length byte: a count the
	// remaining bytes cannot hold is corruption, and must not size an
	// allocation.
	if nEdges > uint64(len(data)-pos)/minEdgeBytes {
		return Chunk{}, 0, errors.New("mrbg: corrupt chunk edge count")
	}
	frame := string(data)
	edges = slices.Grow(edges[:0], int(nEdges))
	for i := uint64(0); i < nEdges; i++ {
		if pos+8 > len(data) {
			return Chunk{}, 0, errors.New("mrbg: corrupt edge MK")
		}
		mk := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		vLen, n := binary.Uvarint(data[pos:])
		if n <= 0 || vLen > uint64(len(data)-pos-n) {
			return Chunk{}, 0, errors.New("mrbg: corrupt edge value length")
		}
		pos += n
		edges = append(edges, Edge{MK: mk, V2: frame[pos : pos+int(vLen)]})
		pos += int(vLen)
	}
	return Chunk{Key: frame[keyAt : keyAt+int(keyLen)], Edges: edges}, pos, nil
}

// appendChunk stages one chunk in the append buffer, recording its
// future location in pending, and flushes the buffer when full.
func (s *Store) appendChunk(c Chunk) error {
	start := len(s.appendBuf)
	s.appendBuf = encodeChunk(s.appendBuf, c)
	frame := s.appendBuf[start:]
	s.pending[c.Key] = loc{
		off:   s.size + int64(start),
		len:   int64(len(frame)),
		batch: s.batch + 1,
		crc:   crc32.Checksum(frame, castagnoli),
	}
	s.stats.AppendedChunks++
	if int64(len(s.appendBuf)) >= s.opts.AppendBufSize {
		return s.flushAppendBuf()
	}
	return nil
}

// flushAppendBuf appends the buffered bytes to the file with one
// sequential write.
func (s *Store) flushAppendBuf() error {
	if len(s.appendBuf) == 0 {
		return nil
	}
	if _, err := s.f.WriteAt(s.appendBuf, s.size); err != nil {
		return fmt.Errorf("mrbg: append flush: %w", err)
	}
	s.size += int64(len(s.appendBuf))
	// pending locations were assigned against the pre-buffer size, so
	// they are already correct; just reset the buffer.
	s.appendBuf = s.appendBuf[:0]
	s.stats.Flushes++
	return nil
}

// commitPending flushes buffered appends, advances the batch counter,
// and applies pending index updates. Called at the end of a merge.
func (s *Store) commitPending() error {
	if err := s.flushAppendBuf(); err != nil {
		return err
	}
	if len(s.pending) == 0 {
		return nil
	}
	s.batch++
	for k, l := range s.pending {
		s.setLoc(k, l)
	}
	clear(s.pending)
	return nil
}

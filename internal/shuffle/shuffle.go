// Package shuffle is the streaming shuffle runtime every engine in the
// module runs on: the vanilla engine (internal/mr) and through it the
// baselines, the one-step delta refresh (internal/incr), and the
// iterative engines (internal/iter and internal/core).
//
// The runtime has three pieces:
//
//   - a Buffer of per-destination, lock-striped partition buffers, so
//     concurrent map tasks emitting to different partitions never
//     contend on a shared mutex;
//   - map-side production of sorted runs under a configurable memory
//     budget: when a partition buffer exceeds its share of the budget,
//     the buffered pairs are sorted and spilled as one run file to
//     node-local scratch, bounding an iteration's memory footprint by
//     the budget rather than the intermediate data size;
//   - a reduce-side streaming k-way merge (kv.NewMergerByKeyValue) and
//     group, so spilled runs and the in-memory residue drain as a
//     single (key, value)-ordered stream. Because the merge reproduces
//     kv.SortPairs' total order, reduce groups are byte-identical at
//     any budget, spill count, or emit interleaving.
//
// Iteration (iteration.go) layers the Map -> shuffle -> Reduce task
// scaffolding on top, so all engines run the same pass.
package shuffle

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

// pairOverhead approximates the per-record bookkeeping (string headers,
// slice growth) charged against the memory budget in addition to key
// and value bytes, so tiny records cannot make the budget meaningless.
const pairOverhead = 32

// Config describes one Buffer.
type Config struct {
	// Partitions is the number of destination (reduce) partitions.
	Partitions int
	// MemoryBudget bounds the total bytes of intermediate pairs held in
	// memory across all partition buffers. Each partition spills when
	// its buffer exceeds MemoryBudget / Partitions. <= 0 disables
	// spilling (everything stays in memory, as the old loops did).
	MemoryBudget int64
	// ScratchDir names the node-local directory for partition p's spill
	// runs. Required when MemoryBudget > 0; the directory is created on
	// first spill and the run files are removed by Close.
	ScratchDir func(p int) string
	// Report, when set, receives the spill counters
	// (metrics.CounterSpillRuns / CounterSpillBytes) and sort-stage
	// timings as they accrue.
	Report *metrics.Report

	// SkewRatio > 0 enables hot-key skew mitigation (see hotkeys.go):
	// a key whose estimated share of its partition's records exceeds
	// SkewRatio is split across SkewFanOut sub-keys during the map
	// phase and reassembled by Reduce, byte-identically. Must be < 1.
	SkewRatio float64
	// SkewFanOut is the sub-key count hot keys split into (default 8,
	// max 256).
	SkewFanOut int
	// SkewMinRecords is the per-partition record count below which
	// detection stays off (default 256).
	SkewMinRecords int64
	// Combine, when set, pre-aggregates every reduce group's values
	// before they reach the reduce callback; for split hot keys the
	// sub-groups combine in parallel first. Combine must be a pure
	// associative aggregation returning sorted values, such that
	// combining partial combines equals combining the whole group —
	// then split and unsplit shuffles stay byte-identical. Combine must
	// not retain the slice it is given.
	Combine func(key string, values []string) []string
}

// Buffer collects the intermediate pairs of one iteration. Emit is safe
// for concurrent use by any number of map tasks; Reduce streams one
// partition after FinishMap seals the buffers.
type Buffer struct {
	cfg     Config
	perPart int64 // per-stripe budget share; also each Emitter's total staging share
	parts   []partition
	// runSeq hands out unique spill-file sequence numbers across
	// stripes and task emitters.
	runSeq atomic.Int64
	// sortNanos accumulates the durations attributed to StageSort
	// (spill sort+write, residue sort). They occur inside map/reduce
	// task windows, so the Iteration driver subtracts them from those
	// stages to keep Report.Total() equal to wall work.
	sortNanos atomic.Int64
	// skew is the hot-key split registry; nil unless cfg.SkewRatio > 0.
	skew *skewState
}

// partition is one destination's stripe: its own mutex, in-memory
// buffer, and spilled run files.
type partition struct {
	mu       sync.Mutex
	pairs    []kv.Pair
	bytes    int64    // budget-charged size of pairs
	runs     []string // spill file paths
	err      error    // first spill error; surfaced by FinishMap
	recs     int64    // records emitted to this partition
	netBytes int64    // key+value bytes (the simulated network transfer)
	sealed   bool
	sorted   bool // residue sorted (done lazily by the first Reduce)

	// Hot-key detection state (nil / zero unless Config.SkewRatio > 0).
	sketch *topKSketch
	seen   int64 // records observed for detection (published + staged)
}

// New validates cfg and returns an empty Buffer.
func New(cfg Config) (*Buffer, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("shuffle: Config.Partitions = %d", cfg.Partitions)
	}
	if cfg.MemoryBudget > 0 && cfg.ScratchDir == nil {
		return nil, errors.New("shuffle: MemoryBudget requires ScratchDir")
	}
	if cfg.SkewRatio < 0 || cfg.SkewRatio >= 1 {
		if cfg.SkewRatio != 0 {
			return nil, fmt.Errorf("shuffle: Config.SkewRatio = %g, want 0 or (0, 1)", cfg.SkewRatio)
		}
	}
	b := &Buffer{cfg: cfg, parts: make([]partition, cfg.Partitions)}
	if cfg.SkewRatio > 0 {
		b.skew = newSkewState(cfg)
	}
	// One share per stripe; an Emitter uses the same share as its *total*
	// staging bound, so up to Partitions concurrent map tasks stage at
	// most one budget in aggregate alongside the stripes' one budget.
	b.perPart = PartitionShare(cfg.MemoryBudget, cfg.Partitions)
	return b, nil
}

// PartitionShare is one partition's share of a shuffle memory budget:
// what a stripe buffers before it spills, and what a reduce task that
// batches its partition's stream (mrbg.MergeGroups) buffers per batch.
// 0 means unbounded (budget <= 0); a positive budget yields at least 1.
func PartitionShare(budget int64, partitions int) int64 {
	if budget <= 0 {
		return 0
	}
	return max(budget/int64(partitions), 1)
}

// Emit routes one intermediate pair to its destination partition,
// spilling that partition's buffer as a sorted run if it exceeds its
// budget share. Safe for concurrent use; emitters to different
// partitions never share a lock. Spill I/O errors are deferred to
// FinishMap so Emit can keep the error-free signature user Map
// functions expect.
//
// Emissions are visible to reducers whether or not the emitting caller
// later fails. Map tasks the cluster may *retry* must therefore not
// call Emit directly — use a per-task Emitter, which publishes only on
// success, so a failed attempt contributes nothing.
func (b *Buffer) Emit(key, value string) {
	// Routing and byte accounting use the base key even when the record
	// is rerouted to a sub-key: results must land in the base key's
	// partition, and counters stay comparable to an unsplit shuffle.
	d := kv.Partition(key, b.cfg.Partitions)
	storeKey := key
	if b.skew != nil {
		storeKey = b.skew.route(key)
	}
	p := &b.parts[d]
	p.mu.Lock()
	if p.sealed {
		p.mu.Unlock()
		panic("shuffle: Emit after FinishMap")
	}
	if p.err != nil {
		p.mu.Unlock()
		return
	}
	p.pairs = append(p.pairs, kv.Pair{Key: storeKey, Value: value})
	sz := int64(len(key) + len(value))
	p.recs++
	p.netBytes += sz
	p.bytes += sz + pairOverhead
	if b.skew != nil && storeKey == key {
		b.observeLocked(p, key, 1)
	}
	b.maybeSpillLocked(d, p)
}

// maybeSpillLocked checks stripe d's budget share and, when exceeded,
// steals the buffer and spills outside the stripe lock (so other
// emitters only wait for the swap, not disk). Called with p.mu held;
// always returns with it released.
func (b *Buffer) maybeSpillLocked(d int, p *partition) {
	if b.perPart <= 0 || p.bytes <= b.perPart {
		p.mu.Unlock()
		return
	}
	run := p.pairs
	var reused int64
	p.pairs, reused = getRunBuffer()
	p.bytes = 0
	p.mu.Unlock()
	path, n, dur, err := b.writeSpillRun(d, run)
	putRunBuffer(run)
	p.mu.Lock()
	if err != nil {
		if p.err == nil {
			p.err = err
		}
	} else {
		p.runs = append(p.runs, path)
	}
	p.mu.Unlock()
	if err == nil {
		// Stripe contents were already published, so account at once;
		// Emitter staging spills instead account at Publish, keeping
		// discarded attempts out of the metrics.
		b.accountSpills(1, n, dur, reused)
	}
}

// ---------------------------------------------------------------------
// Spill-run buffer reuse. A stolen spill buffer is cleared and pooled
// once its run file is on disk, and the partition that spilled refills
// a recycled buffer — so a budget-bound map phase reaches a steady
// state of a few full-grown buffers instead of re-growing one from nil
// per spill.
// ---------------------------------------------------------------------

var runBufPool sync.Pool // of *[]kv.Pair

// getRunBuffer returns an empty pair buffer to refill — recycled
// capacity when the pool has any (reused=1), nil otherwise.
func getRunBuffer() (buf []kv.Pair, reused int64) {
	v := runBufPool.Get()
	if v == nil {
		return nil, 0
	}
	buf = (*v.(*[]kv.Pair))[:0]
	if cap(buf) == 0 {
		return nil, 0
	}
	return buf, 1
}

// putRunBuffer clears a spilled buffer (releasing its string
// references) and pools its capacity for the next spill.
func putRunBuffer(run []kv.Pair) {
	if cap(run) == 0 {
		return
	}
	clear(run)
	run = run[:0]
	runBufPool.Put(&run)
}

// writeSpillRun sorts one buffer and writes it as a uniquely named run
// file in partition d's scratch dir, returning the encoded size and
// sort+write duration. Accounting is the caller's responsibility.
func (b *Buffer) writeSpillRun(d int, run []kv.Pair) (string, int64, time.Duration, error) {
	start := time.Now()
	kv.SortPairs(run)
	path := filepath.Join(b.cfg.ScratchDir(d), fmt.Sprintf("run-%06d.spill", b.runSeq.Add(1)))
	n, err := writeRun(path, run)
	if err != nil {
		return "", 0, 0, err
	}
	return path, n, time.Since(start), nil
}

// accountSpills records spill counters and sort-stage time.
func (b *Buffer) accountSpills(runs, bytes int64, dur time.Duration, reuse int64) {
	if b.cfg.Report == nil || runs == 0 {
		return
	}
	b.cfg.Report.Add(metrics.CounterSpillRuns, runs)
	b.cfg.Report.Add(metrics.CounterSpillBytes, bytes)
	if reuse > 0 {
		b.cfg.Report.Add(metrics.CounterSpillReuse, reuse)
	}
	b.cfg.Report.AddStage(metrics.StageSort, dur)
	b.sortNanos.Add(int64(dur))
}

// removeFiles deletes paths, returning the first real error.
func removeFiles(paths []string) error {
	var first error
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

func writeRun(path string, run []kv.Pair) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := encodeRun(f, run)
	if err != nil {
		f.Close()
		os.Remove(path) // never leave a torn run behind
		return n, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return n, err
	}
	return n, nil
}

// encodeRun streams a sorted run through a large (256 KiB) write
// buffer: spill files are written in few, big syscalls, which is most
// of the cost of running under a tight shuffle memory budget.
func encodeRun(w io.Writer, run []kv.Pair) (int64, error) {
	enc := kv.NewWriterSize(w, 256<<10)
	for _, p := range run {
		if err := enc.WritePair(p); err != nil {
			return enc.Bytes, err
		}
	}
	return enc.Bytes, enc.Flush()
}

// FinishMap seals the buffers after the map phase. It returns the first
// deferred spill error, if any. Emit panics after FinishMap.
func (b *Buffer) FinishMap() error {
	var detected int
	if b.skew != nil {
		// Freeze the split set before sealing: every reducer locks a
		// stripe mutex sealed below before reading the frozen map, so
		// the seal loop publishes it.
		detected = b.skew.freeze()
	}
	var first error
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		p.sealed = true
		if p.err != nil && first == nil {
			first = p.err
		}
		p.mu.Unlock()
	}
	if b.skew != nil && b.cfg.Report != nil {
		b.cfg.Report.Add(metrics.CounterHotKeysDetected, int64(detected))
		b.cfg.Report.Add(metrics.CounterHotKeySplitRecords, b.skew.splitRecs.Load())
	}
	return first
}

// Records returns the total intermediate records emitted
// ("map.records.out").
func (b *Buffer) Records() int64 {
	var n int64
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		n += p.recs
		p.mu.Unlock()
	}
	return n
}

// Bytes returns the total key+value bytes emitted ("shuffle.bytes", the
// simulated network transfer of the shuffle).
func (b *Buffer) Bytes() int64 {
	var n int64
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		n += p.netBytes
		p.mu.Unlock()
	}
	return n
}

// SortDuration returns the cumulative time attributed to StageSort so
// far (spill sort+write, residue sort; see Buffer.sortNanos).
// Iteration.Run times map/reduce task windows around Emit/Reduce calls
// and subtracts it so Report.Total() counts the sort work exactly once.
func (b *Buffer) SortDuration() time.Duration {
	return time.Duration(b.sortNanos.Load())
}

// SpilledRuns returns how many sorted runs were spilled to disk.
func (b *Buffer) SpilledRuns() int64 {
	var n int64
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		n += int64(len(p.runs))
		p.mu.Unlock()
	}
	return n
}

// mergeFanIn caps how many run files one merge pass opens at once
// (Hadoop's io.sort.factor). It bounds both file descriptors and
// reader-buffer memory (mergeFanIn x 64 KiB) no matter how many runs a
// tiny budget produced; partitions with more runs are first compacted
// by intermediate merge passes.
const mergeFanIn = 64

// Reduce streams partition d's merged, grouped intermediate data:
// spilled runs and the in-memory residue k-way merge into one
// (key, value)-ordered stream that is grouped per distinct key. Memory
// use is at most mergeFanIn buffered readers plus the residue. The
// value order inside each group equals kv.SortPairs order, independent
// of spills (intermediate merge passes preserve it, so compaction
// cannot change results).
//
// Distinct partitions may Reduce concurrently (the cluster runs reduce
// tasks in parallel); concurrent Reduce calls for the *same* partition
// are not supported — matching the engines, which run exactly one
// reduce task per partition (retries are sequential).
//
// With hot-key splitting or a Combine configured, the raw stream first
// passes through a collator (hotkeys.go) that reassembles split groups
// and applies the combine, so callers always observe one group per
// logical key.
func (b *Buffer) Reduce(d int, yield func(g kv.Group) error) error {
	if b.skew != nil || b.cfg.Combine != nil {
		c := b.newCollator(yield)
		if err := b.reduceRaw(d, c.add); err != nil {
			return err
		}
		return c.close()
	}
	return b.reduceRaw(d, yield)
}

// reduceRaw streams the partition's merged groups with sub-keys intact.
func (b *Buffer) reduceRaw(d int, yield func(g kv.Group) error) error {
	if d < 0 || d >= len(b.parts) {
		return fmt.Errorf("shuffle: Reduce(%d) with %d partitions", d, len(b.parts))
	}
	p := &b.parts[d]
	p.mu.Lock()
	if !p.sealed {
		p.mu.Unlock()
		return errors.New("shuffle: Reduce before FinishMap")
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	if !p.sorted {
		start := time.Now()
		kv.SortPairs(p.pairs)
		p.sorted = true
		if b.cfg.Report != nil {
			d := time.Since(start)
			b.cfg.Report.AddStage(metrics.StageSort, d)
			b.sortNanos.Add(int64(d))
		}
	}
	residue := p.pairs
	p.mu.Unlock()

	// Compact down to at most mergeFanIn runs. Each pass merges one
	// batch into a new run file and updates p.runs under the stripe
	// lock, so Close always sees the current file set (and a retried
	// reduce attempt resumes from a consistent state).
	for {
		p.mu.Lock()
		if len(p.runs) <= mergeFanIn {
			runs := append([]string(nil), p.runs...)
			p.mu.Unlock()
			return b.mergeAndGroup(runs, residue, yield)
		}
		batch := append([]string(nil), p.runs[:mergeFanIn]...)
		p.mu.Unlock()

		start := time.Now()
		merged := filepath.Join(b.cfg.ScratchDir(d), fmt.Sprintf("merge-%06d.spill", b.runSeq.Add(1)))
		if err := mergeRunFiles(batch, merged); err != nil {
			return err
		}
		p.mu.Lock()
		p.runs = append(p.runs[mergeFanIn:], merged)
		p.mu.Unlock()
		for _, path := range batch {
			os.Remove(path)
		}
		if b.cfg.Report != nil {
			dur := time.Since(start)
			b.cfg.Report.AddStage(metrics.StageSort, dur)
			b.sortNanos.Add(int64(dur))
		}
	}
}

// mergeAndGroup streams the final merge of run files plus the sorted
// in-memory residue into grouped yields.
func (b *Buffer) mergeAndGroup(runs []string, residue []kv.Pair, yield func(g kv.Group) error) error {
	if len(runs) == 0 {
		return kv.GroupStream(kv.NewSliceSource(residue), yield)
	}
	sources := make([]kv.PairSource, 0, len(runs)+1)
	files := make([]*os.File, 0, len(runs))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, path := range runs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		sources = append(sources, kv.ReaderSource{R: kv.NewReader(f)})
	}
	sources = append(sources, kv.NewSliceSource(residue))
	m, err := kv.NewMergerByKeyValue(sources...)
	if err != nil {
		return err
	}
	return kv.GroupStream(m, yield)
}

// mergeRunFiles merges sorted run files into one new sorted run file,
// streaming (no full materialization).
func mergeRunFiles(paths []string, out string) error {
	sources := make([]kv.PairSource, 0, len(paths))
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		sources = append(sources, kv.ReaderSource{R: kv.NewReader(f)})
	}
	m, err := kv.NewMergerByKeyValue(sources...)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := kv.NewWriter(f)
	for {
		pr, err := m.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = w.WritePair(pr)
		}
		if err != nil {
			f.Close()
			os.Remove(out)
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(out)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(out)
		return err
	}
	return nil
}

// Close removes all spilled run files and their (then-empty)
// per-partition spill directories. The Buffer is unusable after.
func (b *Buffer) Close() error {
	var first error
	for i := range b.parts {
		p := &b.parts[i]
		p.mu.Lock()
		runs := p.runs
		p.runs = nil
		p.pairs = nil
		p.sealed = true
		p.mu.Unlock()
		if err := removeFiles(runs); err != nil && first == nil {
			first = err
		}
		if b.cfg.ScratchDir != nil {
			// Best-effort: drops the (now empty) spill directory; a
			// no-op when it was never created or something else still
			// lives in it.
			os.Remove(b.cfg.ScratchDir(i))
		}
	}
	return first
}

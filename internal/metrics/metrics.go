// Package metrics collects the per-stage timings and I/O counters that
// the experiment harness reports. Every job run produces a Report;
// iterative runs produce one Report per iteration plus a merged total.
//
// The paper's Fig. 9 breaks PageRank run time into map / shuffle / sort /
// reduce stages; Table 4 reports MRBG-Store read counts and read bytes.
// Both come straight out of this package.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage identifies one of the MapReduce phases we time separately.
type Stage int

const (
	// StageMap covers Map function invocation and map-side spill writing.
	StageMap Stage = iota
	// StageShuffle covers copying map outputs to reduce tasks.
	StageShuffle
	// StageSort covers the reduce-side merge-sort of fetched runs.
	StageSort
	// StageReduce covers Reduce invocation plus MRBG-Store maintenance.
	StageReduce
	// StageCheckpoint covers the durability plane: flushing dirty state
	// KVs, result stores, and MRBG-Stores at the end of an iteration or
	// refresh (memtable flush + manifest commit; with background
	// compaction enabled, nothing else).
	StageCheckpoint
	numStages
)

// String returns the lower-case stage name used in reports.
func (s Stage) String() string {
	switch s {
	case StageMap:
		return "map"
	case StageShuffle:
		return "shuffle"
	case StageSort:
		return "sort"
	case StageReduce:
		return "reduce"
	case StageCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists all stages in execution order.
func Stages() []Stage {
	return []Stage{StageMap, StageShuffle, StageSort, StageReduce, StageCheckpoint}
}

// Counter names shared across engine layers. Every name passed to
// Report.Add / Report.Counter must be one of these constants — the
// i2vet metricname analyzer enforces it — so a counter cannot silently
// split into two spellings across packages and every name has exactly
// one documented home.
const (
	// CounterMapRecordsIn / Out count the records entering Map tasks and
	// the intermediate records they emit.
	CounterMapRecordsIn  = "map.records.in"
	CounterMapRecordsOut = "map.records.out"
	// CounterMapTasks / CounterReduceTasks count task executions; the
	// ...Reused variants count tasks a memoizing baseline (IncOop)
	// answered from its cache instead of re-running.
	CounterMapTasks          = "map.tasks"
	CounterMapTasksReused    = "map.tasks.reused"
	CounterReduceTasks       = "reduce.tasks"
	CounterReduceTasksReused = "reduce.tasks.reused"
	// CounterReduceGroups counts distinct intermediate keys reduced;
	// CounterReduceInstances counts Reduce invocations in the
	// incremental engines (affected groups only).
	CounterReduceGroups    = "reduce.groups"
	CounterReduceInstances = "reduce.instances"
	// CounterIterations counts engine iterations in an iterative run.
	CounterIterations = "iterations"
	// CounterJobs counts MapReduce jobs launched; CounterStartupNS is
	// the simulated per-job startup cost in nanoseconds.
	CounterJobs      = "jobs"
	CounterStartupNS = "startup.ns"
	// CounterShuffleBytes counts the intermediate key+value bytes the map
	// side emitted into the shuffle (the simulated network transfer).
	CounterShuffleBytes = "shuffle.bytes"
	// CounterStructureRecords counts the structure-file records indexed
	// by the iterative engines; CounterStructureBytesRead counts the
	// structure bytes the incremental map phase re-read.
	CounterStructureRecords   = "structure.records"
	CounterStructureBytesRead = "structure.bytes.read"
	// CounterDeltaRecords counts delta-input records applied by a
	// refresh; CounterDeltaEdges counts the MRBGraph edge updates they
	// expanded into.
	CounterDeltaRecords = "delta.records"
	CounterDeltaEdges   = "delta.edges"
	// CounterMRBGDisabled marks a run that fell back to convergence-only
	// mode with the MRBG-Store bypassed.
	CounterMRBGDisabled = "mrbg.disabled"
	// CounterMRBGCompactions counts the MRBG-Store shard files a refresh
	// reconstructed once it had committed (file >= 8x live bytes), and
	// CounterMRBGCompactedBytes the live chunk bytes those compactions
	// copied: a refresh that ran long because it compacted says so here.
	CounterMRBGCompactions    = "mrbg.compactions"
	CounterMRBGCompactedBytes = "mrbg.compacted.bytes"
	// CounterMRBGIndexBytesWritten counts the bytes a refresh's
	// checkpoints and compactions wrote to the MRBG-Stores' index logs;
	// CounterMRBGIndexLogBytes is the logs' total length afterwards,
	// reported as a gauge.
	CounterMRBGIndexBytesWritten = "mrbg.index.bytes.written"
	CounterMRBGIndexLogBytes     = "mrbg.index.log.bytes"
	// CounterSpillRuns counts sorted runs the shuffle runtime spilled to
	// node-local scratch because a map-side buffer exceeded its share of
	// the shuffle memory budget.
	CounterSpillRuns = "shuffle.spill.runs"
	// CounterSpillBytes counts the encoded bytes of those spilled runs.
	CounterSpillBytes = "shuffle.spill.bytes"
	// CounterResultSegments is the total on-disk segment count across
	// the one-step engine's per-partition result stores after a refresh.
	CounterResultSegments = "results.segments"
	// CounterResultCompactions counts result-store segment compactions
	// performed during a refresh.
	CounterResultCompactions = "results.compactions"
	// CounterResultDirtyPartitions counts the output partitions a
	// refresh actually re-serialized; clean partitions are cloned or
	// skipped.
	CounterResultDirtyPartitions = "results.dirty.partitions"
	// CounterResultBytesRewritten counts the DFS bytes written while
	// materializing those dirty partitions.
	CounterResultBytesRewritten = "results.bytes.rewritten"
	// CounterStateDirtyPartitions counts the partitions whose durable
	// state stores actually flushed during the core engine's
	// checkpoints; clean partitions are skipped entirely (no segment,
	// no manifest rewrite).
	CounterStateDirtyPartitions = "state.dirty.partitions"
	// CounterStateGroupsFlushed counts the state / CPC-baseline entries
	// those flushes wrote — the dirty groups, as opposed to the full
	// per-partition state files the pre-durable engine rewrote every
	// iteration.
	CounterStateGroupsFlushed = "state.groups.flushed"
	// CounterStateSegments is the total on-disk segment count across
	// the core engine's per-partition state stores after a job.
	CounterStateSegments = "state.segments"
	// CounterStateCompactions counts state-store segment compactions
	// performed during a job.
	CounterStateCompactions = "state.compactions"
	// CounterResultSegmentsOrphaned is the cumulative count of result /
	// state segment files whose deferred deletion failed, leaving them
	// on disk unreferenced by any manifest (re-swept at the next Open).
	// Reported as a gauge: non-zero means durable space is leaking.
	CounterResultSegmentsOrphaned = "results.segments.orphaned"
	// CounterServeSnapshotsOpen is the number of store snapshots the
	// serving layer currently holds open (partitions × live epochs).
	CounterServeSnapshotsOpen = "serve.snapshots.open"
	// CounterServeEpochFlips counts the serving layer's atomic epoch
	// flips: one per completed refresh made visible to readers.
	CounterServeEpochFlips = "serve.epoch.flips"
	// CounterServeCacheHits / Misses count point lookups served from /
	// filled into the per-epoch read-through cache (invalidated as a
	// whole at each epoch flip, so a hit can never be stale).
	CounterServeCacheHits   = "serve.cache.hits"
	CounterServeCacheMisses = "serve.cache.misses"
	// CounterHotKeysDetected counts the distinct intermediate keys the
	// shuffle runtime's space-saving sketches flagged as hot (share of
	// their partition's records above Config.SkewRatio) and split across
	// sub-keys during the map phase.
	CounterHotKeysDetected = "shuffle.hotkeys.detected"
	// CounterHotKeySplitRecords counts the intermediate records that were
	// rerouted to a hot key's sub-keys instead of the key itself.
	CounterHotKeySplitRecords = "shuffle.hotkeys.split.records"
	// CounterHotKeyMergedGroups counts the reduce groups reassembled from
	// sub-key fan-out by the merge-back collator (one per split key per
	// partition that saw it).
	CounterHotKeyMergedGroups = "shuffle.hotkeys.merged.groups"
	// CounterResultBlocksRead counts segment blocks decoded by result /
	// state store point lookups and merges (v2 block-format segments
	// only; a point hit should cost exactly one).
	CounterResultBlocksRead = "results.blocks.read"
	// CounterResultBloomSkips counts segment probes answered "absent" by
	// a segment's bloom filter with zero block I/O.
	CounterResultBloomSkips = "results.bloom.skips"
	// CounterResultBytesDecompressed counts the decoded bytes produced by
	// per-block decompression on the segment read path.
	CounterResultBytesDecompressed = "results.bytes.decompressed"
	// CounterSpillReuse counts spill-run pair buffers the shuffle runtime
	// recycled from its pool instead of growing fresh ones.
	CounterSpillReuse = "shuffle.spill.reuse"
	// CounterCompactQueueDepth is the background compaction scheduler's
	// queue depth (stores enqueued but not yet compacted) at report
	// time. Reported as a gauge.
	CounterCompactQueueDepth = "compact.queue.depth"
	// CounterCompactBGRuns counts compactions the background scheduler
	// executed off the checkpoint critical path.
	CounterCompactBGRuns = "compact.bg.runs"
	// CounterIngestRecords counts delta records accepted into the
	// streaming ingestion staging log (Ingester.Add / POST /ingest).
	CounterIngestRecords = "ingest.records"
	// CounterIngestBatches counts micro-batches the ingestion loop cut
	// and applied as refreshes.
	CounterIngestBatches = "ingest.batches"
	// CounterIngestRejected counts delta records refused with
	// backpressure (staging depth at its bound in reject mode).
	CounterIngestRejected = "ingest.rejected"
	// CounterIngestReplayed counts staged records recovered from the
	// staging log at Open and re-queued for refresh — records a previous
	// process accepted but had not yet applied when it died.
	CounterIngestReplayed = "ingest.replayed"
	// CounterFreshnessLagNS is the ingestion freshness lag gauge: the
	// age of the oldest accepted-but-unapplied delta record, in
	// nanoseconds (0 when fully drained).
	CounterFreshnessLagNS = "freshness.lag_ns"
)

// Report accumulates stage durations and named counters for one job (or
// one iteration). The zero value is ready to use. Reports are safe for
// concurrent use: map tasks running on different simulated nodes add to
// the same Report.
type Report struct {
	mu       sync.Mutex
	stages   [numStages]time.Duration
	counters map[string]int64
}

// AddStage records d of work attributed to stage s.
func (r *Report) AddStage(s Stage, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stages[s] += d
}

// TimeStage runs f and attributes its wall-clock duration to stage s.
func (r *Report) TimeStage(s Stage, f func() error) error {
	start := time.Now()
	err := f()
	r.AddStage(s, time.Since(start))
	return err
}

// Stage returns the accumulated duration for s.
func (r *Report) Stage(s Stage) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stages[s]
}

// Total returns the sum over all stages.
func (r *Report) Total() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t time.Duration
	for _, d := range r.stages {
		t += d
	}
	return t
}

// Add increments counter name by v, creating it if needed. Counter
// names are the Counter* constants declared in this package — the
// i2vet metricname analyzer rejects ad-hoc literals — so every name in
// a report is documented and grep-able in one place.
func (r *Report) Add(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += v
}

// Counter returns the value of counter name (zero if never written).
func (r *Report) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// CounterNames returns all counter names in sorted order.
func (r *Report) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge adds every stage duration and counter of other into r.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	other.mu.Lock()
	stages := other.stages
	counters := make(map[string]int64, len(other.counters))
	for k, v := range other.counters {
		counters[k] = v
	}
	other.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range stages {
		r.stages[i] += stages[i]
	}
	if r.counters == nil && len(counters) > 0 {
		r.counters = make(map[string]int64, len(counters))
	}
	for k, v := range counters {
		r.counters[k] += v
	}
}

// Snapshot returns an immutable copy of the report for reporting code
// that should not hold the lock while formatting.
func (r *Report) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]int64, len(r.counters))}
	for i, d := range r.stages {
		s.Stages[i] = d
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	return s
}

// Snapshot is a point-in-time copy of a Report.
type Snapshot struct {
	Stages   [numStages]time.Duration
	Counters map[string]int64
}

// Total returns the sum of all stage durations in the snapshot.
func (s Snapshot) Total() time.Duration {
	var t time.Duration
	for _, d := range s.Stages {
		t += d
	}
	return t
}

// String renders the snapshot as a single line:
// "map=12ms shuffle=3ms sort=1ms reduce=8ms total=24ms".
func (s Snapshot) String() string {
	var b strings.Builder
	for _, st := range Stages() {
		fmt.Fprintf(&b, "%s=%s ", st, s.Stages[st].Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "total=%s", s.Total().Round(time.Microsecond))
	return b.String()
}

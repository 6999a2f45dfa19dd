// Package incr implements fine-grain incremental processing for
// one-step MapReduce computation (paper Sec. 3).
//
// A Runner owns one logical computation across a sequence of input
// versions. RunInitial executes a normal MapReduce job while preserving
// the MRBGraph — each reduce task transfers the globally unique Map key
// MK through the shuffle and saves its (K2, MK, V2) edges into a
// per-task MRBG-Store. RunDelta then refreshes the results from a delta
// input: it invokes Map only on inserted/deleted records, shuffles the
// emitted delta MRBGraph edges through the streaming shuffle runtime
// (internal/shuffle: lock-striped partition buffers, sorted spill runs
// under Job.ShuffleMemoryBudget, reduce-side k-way merge), merges them
// with the preserved states, and re-invokes Reduce only for affected
// K2s.
//
// The materialized result set is itself durable state: each partition's
// Reduce outputs live in a results.Store (internal/results — sorted
// segments plus tombstones, checkpointed alongside the MRBG-Store), so
// a refresh patches only the affected result groups, writeOutputs
// re-serializes only dirty partitions, and Open reattaches a Runner to
// the preserved stores after a process restart without re-running the
// initial job.
//
// The accumulator-Reduce optimization (Sec. 3.5) is supported: when the
// job declares an Accumulate function and deltas contain only
// insertions, no MRBGraph is preserved at all — only the final
// <K3, V3> outputs, which the accumulator updates in place.
package incr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/par"
	"i2mapreduce/internal/results"
	"i2mapreduce/internal/shuffle"
)

// Job describes an incrementally refreshable one-step computation.
type Job struct {
	// Name labels store directories and task names.
	Name string
	// Mapper and Reducer carry exactly the vanilla MapReduce
	// semantics; the engine wraps them for state preservation.
	Mapper  mr.Mapper
	Reducer mr.Reducer
	// NumReducers defaults to the cluster node count.
	NumReducers int
	// Accumulate, when non-nil, declares the Reduce an accumulator
	// (paper Sec. 3.5): Reduce output values for the same K3 combine
	// with ⊕ = Accumulate. Deltas must then contain only insertions,
	// and the engine preserves only Reduce outputs, not the MRBGraph.
	Accumulate func(old, new string) string
	// StoreOpts templates the per-partition MRBG-Store options
	// (Dir is filled in per partition).
	StoreOpts mrbg.Options
	// ResultOpts templates the per-partition durable result store
	// (Dir is filled in per partition; CompactThreshold is the knob).
	ResultOpts results.Options
	// ShuffleMemoryBudget bounds the bytes of delta MRBGraph edges a
	// RunDelta holds in memory: map-side, per-partition buffers spill
	// sorted runs to node-local scratch beyond their budget share
	// ("shuffle.spill.runs"/"shuffle.spill.bytes"); reduce-side, each
	// partition drains the streaming merge into MRBG-Store Merge calls
	// in batches bounded by the same share. <= 0 keeps the delta
	// shuffle fully in memory and merges each partition's delta in one
	// batch. Refresh results are byte-identical at any budget.
	ShuffleMemoryBudget int64
	// SkewRatio / SkewFanOut configure hot-K2 skew mitigation in the
	// delta shuffle (shuffle.Config): a K2 whose share of its
	// partition's delta records exceeds SkewRatio is split across
	// sub-keys and merged back byte-identically before the reduce.
	// 0 disables; when built through i2mr.System, 0 inherits the
	// System-wide default.
	SkewRatio  float64
	SkewFanOut int
	// IOParallelism bounds the concurrent per-partition durability I/O:
	// store opens, result-store commits, and output materialization fan
	// out across partitions on at most this many goroutines. <= 0 means
	// GOMAXPROCS; 1 recovers the serial pre-parallel behavior exactly.
	IOParallelism int
	// BackgroundCompaction moves result-store threshold compaction and
	// MRBG-Store compaction off the refresh critical path onto a
	// background scheduler (results.Scheduler): a refresh checkpoint then
	// pays only the memtable flush and the manifest commit, and
	// compaction runs between refreshes. Off by default: compaction
	// stays inline.
	BackgroundCompaction bool
}

// Runner executes and refreshes one Job.
type Runner struct {
	eng    *mr.Engine
	job    Job
	stores []*mrbg.ShardedStore
	// res[p] is partition p's durable result store: reduce input key K2
	// (or K3 for accumulator jobs) -> the output pairs its Reduce call
	// emitted. Replacing a group replaces exactly those outputs.
	res     []*results.Store
	initial bool
	// ioPar is the resolved Job.IOParallelism (>= 1); sched is the
	// background compaction scheduler, nil unless BackgroundCompaction.
	ioPar int
	sched *results.Scheduler
	// deltaSeq hands out unique scratch directories to concurrent /
	// successive RunDelta shuffles.
	deltaSeq atomic.Int64
	// jobs is the durably completed job count (the initial run counts as
	// 1, every completed RunDelta adds 1), mirrored from the jobs= key of
	// job.meta. External commit protocols (internal/ingest) compare it
	// across a crash to decide whether an in-flight refresh committed.
	jobs atomic.Int64
	// refreshStats backs the engine.Refresher Stats() view.
	refreshStats engine.StatsTracker
	// noCompact, set by tests, keeps refreshes from compacting the
	// MRBG-Stores: the reference a compacting run must match.
	noCompact bool
}

// NewRunner prepares a runner for a fresh computation; per-partition
// MRBG-Stores and result stores are created under the node scratch dir
// of the node that will host each reduce task (co-location, as the
// paper preserves states at the reduce side). To reattach to the
// preserved state of an earlier process instead, use Open.
func NewRunner(eng *mr.Engine, job Job) (*Runner, error) {
	return newRunner(eng, job)
}

// Open reattaches a Runner to the durable state a previous process
// preserved under the same cluster scratch root: the per-partition
// MRBG-Stores recover from their checkpoints and the result stores from
// their manifests, so RunDelta works immediately without re-running the
// initial job. The job must be opened with the same Name, NumReducers,
// and cluster topology it originally ran with; Open fails if any
// partition's preserved results are missing or if the preserved
// partition count differs.
func Open(eng *mr.Engine, job Job) (*Runner, error) {
	r, err := newRunner(eng, job)
	if err != nil {
		return nil, err
	}
	// The job meta (written when RunInitial completed) records the
	// partition count the state was preserved with; partition 0 always
	// lives under node 0's scratch dir, so the meta is findable under
	// any cluster size. Resuming with a different count would silently
	// drop (or re-route) preserved result groups.
	meta, ok, err := engine.ReadJobMeta(r.jobMetaPath())
	if err != nil {
		r.Close()
		return nil, err
	}
	if !ok {
		r.Close()
		return nil, fmt.Errorf("incr: job %q has no preserved state here (RunInitial never completed under this scratch root)", job.Name)
	}
	if meta.Partitions != r.job.NumReducers {
		r.Close()
		return nil, fmt.Errorf("incr: job %q was preserved with %d partitions, cannot resume with %d", job.Name, meta.Partitions, r.job.NumReducers)
	}
	if meta.Mode != r.jobMode() {
		r.Close()
		return nil, fmt.Errorf("incr: job %q was preserved in %s mode, cannot resume in %s mode", job.Name, meta.Mode, r.jobMode())
	}
	for p, res := range r.res {
		if !res.Initialized() {
			r.Close()
			return nil, fmt.Errorf("incr: job %q is missing preserved results for partition %d (was the job run under a different cluster topology?)", job.Name, p)
		}
		switch intent, err := os.ReadFile(r.refreshIntentPath(p)); {
		case err == nil:
			// Benign window: an accumulator refresh stamps job.meta (with
			// the in-flight job number) before unlinking its intent
			// marker, so a marker whose job= payload equals the durably
			// completed count belongs to a refresh that fully committed —
			// the process merely died between the stamp and the unlink.
			// Any other surviving marker means half-applied state.
			if meta.Mode == "accumulator" && engine.IntentJob(string(intent)) == meta.Jobs {
				if err := os.Remove(r.refreshIntentPath(p)); err != nil {
					r.Close()
					return nil, err
				}
				if err := fsutil.SyncDir(filepath.Dir(r.refreshIntentPath(p))); err != nil {
					r.Close()
					return nil, err
				}
				continue
			}
			r.Close()
			return nil, fmt.Errorf("incr: job %q partition %d has a half-applied refresh; this state cannot be resumed safely — re-run the computation in a fresh work dir", job.Name, p)
		case !errors.Is(err, os.ErrNotExist):
			r.Close()
			return nil, fmt.Errorf("incr: probing refresh marker for partition %d: %w", p, err)
		}
	}
	r.jobs.Store(meta.Jobs)
	r.initial = true
	return r, nil
}

// jobMode names the preservation mode for the job meta.
func (r *Runner) jobMode() string {
	if r.job.Accumulate != nil {
		return "accumulator"
	}
	return "finegrain"
}

// refreshIntentPath names partition p's in-progress refresh marker (see
// runDeltaFineGrain's checkpoint bracket).
func (r *Runner) refreshIntentPath(p int) string {
	return filepath.Join(r.resultDir(p), "refresh.intent")
}

// jobMetaPath names the runner-level meta file recording the preserved
// partition count. It lives in partition 0's result directory, which is
// always under node 0's scratch dir regardless of cluster size.
func (r *Runner) jobMetaPath() string {
	return filepath.Join(r.resultDir(0), "job.meta")
}

// writeJobMeta durably persists the partition count, preservation mode,
// and completed-job count. Its presence is the completion marker Open
// requires; the jobs= stamp advances once per fully committed job (the
// initial run, then every RunDelta), so an external commit protocol can
// compare it across a crash.
func (r *Runner) writeJobMeta(jobs int64) error {
	return engine.JobMeta{Partitions: r.job.NumReducers, Mode: r.jobMode(), Jobs: jobs}.Write(r.jobMetaPath())
}

func newRunner(eng *mr.Engine, job Job) (*Runner, error) {
	if job.Name == "" {
		return nil, errors.New("incr: job requires a Name")
	}
	if job.Mapper == nil || job.Reducer == nil {
		return nil, errors.New("incr: job requires Mapper and Reducer")
	}
	if job.NumReducers <= 0 {
		job.NumReducers = eng.Cluster().NumNodes()
	}
	if job.IOParallelism <= 0 {
		job.IOParallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{eng: eng, job: job, ioPar: job.IOParallelism}
	if job.BackgroundCompaction {
		r.sched = results.NewScheduler(results.SchedulerOptions{})
	}
	// Opens (and their recovery work: manifest replay, orphan sweeps)
	// are independent per partition; fan them out on the shared runner.
	r.res = make([]*results.Store, job.NumReducers)
	err := par.Do(job.NumReducers, r.ioPar, func(p int) error {
		ropts := job.ResultOpts
		ropts.Dir = r.resultDir(p)
		rs, err := results.Open(ropts)
		if err != nil {
			return fmt.Errorf("incr: opening result store %d: %w", p, err)
		}
		rs.AttachScheduler(r.sched)
		r.res[p] = rs
		return nil
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	if job.Accumulate == nil {
		r.stores = make([]*mrbg.ShardedStore, job.NumReducers)
		err := par.Do(job.NumReducers, r.ioPar, func(p int) error {
			opts := job.StoreOpts
			opts.Dir = r.partDir("mrbg", p)
			st, err := mrbg.Open(opts)
			if err != nil {
				return fmt.Errorf("incr: opening store %d: %w", p, err)
			}
			r.stores[p] = st
			return nil
		})
		if err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// resultDir names partition p's result store directory.
func (r *Runner) resultDir(p int) string { return r.partDir("results", p) }

// partDir names partition p's directory of the given kind on the node
// hosting the partition.
func (r *Runner) partDir(kind string, p int) string {
	return filepath.Join(r.eng.Cluster().PartitionDir(p), kind, cluster.SafeName(r.job.Name), fmt.Sprintf("part-%04d", p))
}

// Close shuts down the background compaction scheduler (waiting out any
// in-flight compaction, since it runs against these stores), then
// releases the per-partition stores.
func (r *Runner) Close() error {
	first := r.sched.Close()
	for _, s := range r.stores {
		if s == nil {
			continue // a parallel newRunner open failed part-way
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, rs := range r.res {
		if rs == nil {
			continue
		}
		if err := rs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stores exposes the per-partition MRBG-Stores (nil for accumulator
// jobs); the Table 4 harness reads their statistics.
func (r *Runner) Stores() []*mrbg.ShardedStore { return r.stores }

// Results exposes the per-partition durable result stores; the one-step
// bench harness reads their statistics.
func (r *Runner) Results() []*results.Store { return r.res }

// CompactionScheduler exposes the background compaction scheduler (nil
// unless Job.BackgroundCompaction), so the serving layer can surface
// its gauges.
func (r *Runner) CompactionScheduler() *results.Scheduler { return r.sched }

// RunInitial executes the full computation on input (a DFS pair file),
// preserves state, and writes outputs under the output path prefix.
func (r *Runner) RunInitial(input, output string) (*metrics.Report, error) {
	if r.initial {
		return nil, errors.New("incr: RunInitial called twice; use RunDelta for refreshes")
	}
	// The job meta is written only after a fully successful initial run,
	// so its presence is the authoritative completion marker. State
	// checkpointed WITHOUT it is the partial work of an initial run that
	// died mid-way; discard it so this run starts clean rather than
	// overlaying stale results or phantom MRBGraph chunks.
	if _, ok, err := engine.ReadJobMeta(r.jobMetaPath()); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("incr: job %q already has preserved results; use Open to resume or point the system at a fresh work dir", r.job.Name)
	}
	for p, rs := range r.res {
		if rs.Initialized() {
			if err := rs.Reset(); err != nil {
				return nil, err
			}
		}
		if err := os.Remove(r.refreshIntentPath(p)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	for p, st := range r.stores {
		if st.Len() == 0 {
			continue
		}
		nst, err := st.Reset()
		if err != nil {
			return nil, fmt.Errorf("incr: resetting stale store %d: %w", p, err)
		}
		r.stores[p] = nst
	}

	var rep *metrics.Report
	var err error
	if r.job.Accumulate != nil {
		rep, err = r.runInitialAccumulator(input, output)
	} else {
		rep, err = r.runInitialFineGrain(input, output)
	}
	if err != nil {
		return nil, err
	}
	// Stamp the preserved partition count last: its presence tells Open
	// that a complete initial run exists here.
	if err := r.writeJobMeta(1); err != nil {
		return nil, err
	}
	r.jobs.Store(1)
	r.initial = true
	return rep, nil
}

// CompletedJobs returns the durably committed job count: 1 after
// RunInitial, +1 per completed RunDelta, as stamped in job.meta. It
// advances only after the refresh's stores are fully checkpointed, so
// comparing it across a process death tells an external commit protocol
// (internal/ingest) whether an in-flight refresh committed.
func (r *Runner) CompletedJobs() int64 { return r.jobs.Load() }

// commitResults checkpoints every result store and records the part
// file each partition was just materialized to, fanning out across
// partitions at Job.IOParallelism.
func (r *Runner) commitResults(output string) error {
	return par.Do(len(r.res), r.ioPar, func(p int) error {
		if err := r.res[p].Checkpoint(); err != nil {
			return err
		}
		return r.res[p].Materialized(mr.PartPath(output, p))
	})
}

// runInitialFineGrain runs a normal MapReduce job with MK-tagged
// intermediate values, capturing chunks into the MRBG-Stores.
func (r *Runner) runInitialFineGrain(input, output string) (*metrics.Report, error) {
	// An initial edge is a seq-0 insertion in the delta-edge wire format.
	wrappedMapper := mr.MapperFunc(func(k1, v1 string, emit mr.Emit) error {
		return r.job.Mapper.Map(k1, v1, mrbg.EdgeEmit(k1, v1, 0, false, emit))
	})

	job := mr.Job{
		Name:        r.job.Name + "-initial",
		Input:       input,
		Output:      output,
		Mapper:      wrappedMapper,
		NumReducers: r.job.NumReducers,
		ReducerFactory: func(p int) mr.Reducer {
			return mr.ReducerFunc(func(k2 string, tagged []string, emit mr.Emit) error {
				chunk, err := mrbg.GroupChunk(kv.Group{Key: k2, Values: tagged})
				if err != nil {
					return err
				}
				// The chunk is in the store's MK order, so the Reduce value
				// list derived from it is the one re-reduction after a merge
				// will see.
				vals := chunk.Values()
				if err := r.stores[p].Put(chunk); err != nil {
					return err
				}
				var outs []kv.Pair
				err = r.job.Reducer.Reduce(k2, vals, func(k3, v3 string) {
					outs = append(outs, kv.Pair{Key: k3, Value: v3})
					emit(k3, v3)
				})
				if err != nil {
					return err
				}
				r.res[p].Set(k2, outs)
				return nil
			})
		},
	}
	rep, err := r.eng.Run(job)
	if err != nil {
		return nil, err
	}
	ckptStart := time.Now()
	err = par.Do(len(r.stores), r.ioPar, func(p int) error {
		if err := r.stores[p].CommitBatch(); err != nil {
			return err
		}
		return r.stores[p].Checkpoint()
	})
	if err != nil {
		return nil, err
	}
	// The engine's reduce tasks already wrote the part files; commit the
	// result stores as materialized there so the next refresh rewrites
	// only what it dirties.
	if err := r.commitResults(output); err != nil {
		return nil, err
	}
	rep.AddStage(metrics.StageCheckpoint, time.Since(ckptStart))
	return rep, nil
}

// runInitialAccumulator runs a plain job and preserves only outputs.
func (r *Runner) runInitialAccumulator(input, output string) (*metrics.Report, error) {
	job := mr.Job{
		Name:        r.job.Name + "-initial",
		Input:       input,
		Output:      output,
		Mapper:      r.job.Mapper,
		NumReducers: r.job.NumReducers,
		ReducerFactory: func(p int) mr.Reducer {
			return mr.ReducerFunc(func(k2 string, vals []string, emit mr.Emit) error {
				var outs []kv.Pair
				err := r.job.Reducer.Reduce(k2, vals, func(k3, v3 string) {
					outs = append(outs, kv.Pair{Key: k3, Value: v3})
					emit(k3, v3)
				})
				if err != nil {
					return err
				}
				for _, o := range outs {
					r.res[p].Set(o.Key, []kv.Pair{o})
				}
				return nil
			})
		},
	}
	rep, err := r.eng.Run(job)
	if err != nil {
		return nil, err
	}
	ckptStart := time.Now()
	if err := r.commitResults(output); err != nil {
		return nil, err
	}
	rep.AddStage(metrics.StageCheckpoint, time.Since(ckptStart))
	return rep, nil
}

// RunDelta refreshes the computation from a delta input (a DFS delta
// file with '+'/'-' records) and writes the full refreshed outputs
// under the output path prefix. Only partitions whose results actually
// changed are re-serialized; unchanged partitions are republished with
// a block-level clone of their previous part file.
//
// An empty output publishes nothing to the DFS: the refreshed results
// are in the result stores (Results, Outputs, the serving layer) and
// the stores stay dirty, so the next refresh that names an output
// materializes every partition the unpublished refreshes changed.
//
// Once the refresh has committed, MRBG-Store shards whose file has
// grown to the compaction trigger are reconstructed (mrbg package
// comment) — inline, or by the scheduler under BackgroundCompaction.
func (r *Runner) RunDelta(deltaInput, output string) (*metrics.Report, error) {
	if !r.initial {
		return nil, errors.New("incr: RunDelta before RunInitial")
	}
	// Refresh barrier: background compaction must not compete with the
	// refresh's own I/O. Pause waits out any in-flight merge; triggers
	// that fire during the refresh stay queued until Resume.
	r.sched.Pause()
	defer r.sched.Resume()
	if r.job.Accumulate != nil {
		return r.runDeltaAccumulator(deltaInput, output)
	}
	return r.runDeltaFineGrain(deltaInput, output)
}

// runDelta runs one delta refresh on the shared Map -> shuffle -> Reduce
// driver (internal/shuffle): the incremental Map computation invokes
// mapRecord for every delta record, one task per delta input block
// scheduled data-locally (paper Sec. 3.3, "Incremental Map Computation
// to Obtain the Delta MRBGraph"), and one reduce task per partition,
// co-located with its stores, runs reducePartition over the partition's
// merged delta stream. Intermediate memory is bounded by
// Job.ShuffleMemoryBudget, spilling sorted runs into the scratch dir of
// the node that runs each partition's reduce task. seq is the record's
// position in the delta file (block index in the high bits, record
// index within the block in the low), so mapRecord can preserve
// delta-file apply order through the shuffle's value sort.
func (r *Runner) runDelta(deltaInput string, rep *metrics.Report,
	mapRecord func(d kv.Delta, seq uint64, emit func(k2, v2 string)) error,
	reducePartition func(p int, groups shuffle.GroupSource) error) error {
	fs, cl := r.eng.FS(), r.eng.Cluster()
	fi, err := fs.Stat(deltaInput)
	if err != nil {
		return fmt.Errorf("incr: delta input: %w", err)
	}
	mapNodes := make([]int, len(fi.Blocks))
	for b := range fi.Blocks {
		mapNodes[b] = cl.LocalTo(fi.Blocks[b].Nodes)
	}
	name := cluster.SafeName(r.job.Name) + "-delta"
	refresh := r.deltaSeq.Add(1)
	err = shuffle.Iteration{
		Name:         name,
		Partitions:   r.job.NumReducers,
		NumNodes:     cl.NumNodes(),
		RunTasks:     func(ts []cluster.Task) error { _, err := cl.Run(ts); return err },
		MemoryBudget: r.job.ShuffleMemoryBudget,
		// The refresh sequence number lives in the leaf (which the
		// shuffle removes), not in a per-refresh parent that would
		// accumulate one empty directory per refresh on a long-lived
		// runner.
		ScratchDir: func(p int) string {
			return filepath.Join(cl.PartitionDir(p), "shuffle", name, fmt.Sprintf("seq%06d-part-%04d", refresh, p))
		},
		SkewRatio:  r.job.SkewRatio,
		SkewFanOut: r.job.SkewFanOut,
		Report:     rep,
		MapTask: func(b int, emit func(k2, v2 string)) (int64, error) {
			br, err := fs.OpenBlock(deltaInput, b)
			if err != nil {
				return 0, err
			}
			defer br.Close()
			var recs int64
			for {
				d, err := br.ReadDelta()
				if err == io.EOF {
					return recs, nil
				}
				if err == nil {
					recs++
					err = mapRecord(d, uint64(b)<<32|uint64(recs-1), emit)
				}
				if err != nil {
					return 0, err
				}
			}
		},
		ReducePartition: reducePartition,
	}.Run(mapNodes)
	if err != nil {
		return fmt.Errorf("incr: delta %w", err)
	}
	// Every record the delta Map emitted is one delta MRBGraph edge.
	rep.Add(metrics.CounterDeltaEdges, rep.Counter(metrics.CounterMapRecordsOut))
	return nil
}

// splitCheckpoint moves d, the time a reduce task spent in its
// checkpoint, out of the reduce window the driver times and into
// StageCheckpoint.
func splitCheckpoint(rep *metrics.Report, d time.Duration) {
	rep.AddStage(metrics.StageCheckpoint, d)
	rep.AddStage(metrics.StageReduce, -d)
}

// runDeltaFineGrain performs incremental Reduce computation through the
// MRBG-Stores and patches only affected result groups.
func (r *Runner) runDeltaFineGrain(deltaInput, output string) (*metrics.Report, error) {
	rep := &metrics.Report{}
	compBefore, storesBefore := r.resultCompactions(), mrbg.Totals(r.stores)
	mapRecord := func(d kv.Delta, seq uint64, emit func(k2, v2 string)) error {
		return r.job.Mapper.Map(d.Key, d.Value, mrbg.EdgeEmit(d.Key, d.Value, seq, d.Op == kv.OpDelete, emit))
	}
	// Incremental Reduce: drain the partition's delta MRBGraph off the
	// streaming merge, join it against the MRBG-Store, and re-reduce
	// affected K2s into the result store. No lock is shared across
	// partitions, so user Reduce calls run fully in parallel.
	reducePartition := func(p int, groups shuffle.GroupSource) error {
		res := r.res[p]
		var reduced int64
		onMerge := func(m mrbg.MergeResult) error {
			if m.Removed {
				res.Delete(m.Key)
				return nil
			}
			var outs []kv.Pair
			err := r.job.Reducer.Reduce(m.Key, m.Values, func(k3, v3 string) {
				outs = append(outs, kv.Pair{Key: k3, Value: v3})
			})
			if err != nil {
				return err
			}
			reduced++
			res.Set(m.Key, outs)
			return nil
		}
		// Drain the partition's stream into the MRBG-Store in batches
		// bounded by its share of the shuffle budget.
		err := r.stores[p].MergeGroups(groups, shuffle.PartitionShare(r.job.ShuffleMemoryBudget, r.job.NumReducers), onMerge)
		if err != nil {
			return err
		}
		// The two checkpoints are separate fsync points, so a crash
		// between them would leave the partition's MRBGraph ahead of its
		// result store. An intent marker brackets them: it is durably
		// written before the first checkpoint and removed after the
		// second, and Open refuses a partition whose marker survived. (A
		// crash before the first checkpoint rolls both stores back to the
		// previous refresh — consistent — and replaying a fine-grain
		// delta against consistent state is idempotent per (K2, MK).)
		ckptStart := time.Now()
		intent := r.refreshIntentPath(p)
		if err := fsutil.WriteFileAtomic(intent, []byte("refresh\n")); err != nil {
			return err
		}
		if err := r.stores[p].Checkpoint(); err != nil {
			return err
		}
		if err := res.Checkpoint(); err != nil {
			return err
		}
		if err := os.Remove(intent); err != nil {
			return err
		}
		if err := fsutil.SyncDir(filepath.Dir(intent)); err != nil {
			return err
		}
		rep.Add(metrics.CounterReduceInstances, reduced)
		splitCheckpoint(rep, time.Since(ckptStart))
		return nil
	}
	if err := r.runDelta(deltaInput, rep, mapRecord, reducePartition); err != nil {
		return nil, err
	}

	if output != "" {
		if err := r.writeOutputs(output, rep); err != nil {
			return nil, err
		}
	}
	// Advance the durable completed-job count. A crash before this stamp
	// leaves the stores committed but the count behind by one; replaying
	// the same fine-grain delta against that state is idempotent per
	// (K2, MK), so an external replay driven by the stale count is safe.
	if err := r.writeJobMeta(r.jobs.Load() + 1); err != nil {
		return nil, err
	}
	r.jobs.Add(1)
	if err := r.compactStores(rep); err != nil {
		return nil, err
	}
	r.reportResultStats(rep, compBefore)
	mrbg.Totals(r.stores).ReportSince(rep, storesBefore)
	return rep, nil
}

// compactStores runs the MRBG-Stores' due compactions, now that the
// refresh has committed and no merge is in flight. A store's compaction
// is its own atomic commit, so a crash here costs nothing but the
// reclaimed space.
func (r *Runner) compactStores(rep *metrics.Report) error {
	if r.noCompact {
		return nil
	}
	return rep.TimeStage(metrics.StageCheckpoint, func() error {
		return par.Do(len(r.stores), r.ioPar, func(p int) error { return r.sched.Offer(r.stores[p]) })
	})
}

// runDeltaAccumulator refreshes an accumulator-Reduce job: stream the
// delta's intermediate values through the shuffle, reduce each group
// into a partial result, and fold it into the preserved output with ⊕.
func (r *Runner) runDeltaAccumulator(deltaInput, output string) (*metrics.Report, error) {
	rep := &metrics.Report{}
	compBefore := r.resultCompactions()
	mapRecord := func(d kv.Delta, _ uint64, emit func(k2, v2 string)) error {
		if d.Op == kv.OpDelete {
			return fmt.Errorf("incr: accumulator job %q received a deletion for key %q; accumulator deltas must be insert-only (Sec. 3.5)", r.job.Name, d.Key)
		}
		return r.job.Mapper.Map(d.Key, d.Value, emit)
	}

	// Accumulator folds are not idempotent (⊕ reapplied double-counts),
	// so the folds are bracketed by one intent marker covering ALL
	// partitions: a crash while some partitions have durably folded and
	// others have not leaves the marker behind, and Open refuses the
	// half-applied state. The first reduce task to start writes it, so a
	// refresh that fails in its map phase (nothing folded) leaves none.
	// Within one process, a retried task attempt is handled separately:
	// it discards the failed attempt's pending folds (DiscardPending) and
	// re-folds from the partition's durable state. The marker carries
	// the in-flight job number so Open can tell the one benign case
	// apart: job.meta already stamped with this number means the refresh
	// committed and only the unlink was lost.
	intent := r.refreshIntentPath(0)
	var markOnce sync.Once
	var markErr error
	reducePartition := func(p int, groups shuffle.GroupSource) error {
		markOnce.Do(func() {
			markErr = fsutil.WriteFileAtomic(intent, []byte(fmt.Sprintf("job=%d\n", r.jobs.Load()+1)))
		})
		if markErr != nil {
			return markErr
		}
		res := r.res[p]
		res.DiscardPending()
		var reduced int64
		err := groups(func(g kv.Group) error {
			var outs []kv.Pair
			err := r.job.Reducer.Reduce(g.Key, g.Values, func(k3, v3 string) {
				outs = append(outs, kv.Pair{Key: k3, Value: v3})
			})
			if err != nil {
				return err
			}
			reduced++
			for _, o := range outs {
				old, ok, err := res.Get(o.Key)
				if err != nil {
					return err
				}
				// A group can be materialized with zero pairs (a reduce
				// that emitted nothing); treat it as absent rather than
				// indexing old[0].
				if ok && len(old) > 0 {
					o = kv.Pair{Key: o.Key, Value: r.job.Accumulate(old[0].Value, o.Value)}
				}
				res.Set(o.Key, []kv.Pair{o})
			}
			return nil
		})
		if err != nil {
			return err
		}
		ckptStart := time.Now()
		if err := res.Checkpoint(); err != nil {
			return err
		}
		rep.Add(metrics.CounterReduceInstances, reduced)
		splitCheckpoint(rep, time.Since(ckptStart))
		return nil
	}
	if err := r.runDelta(deltaInput, rep, mapRecord, reducePartition); err != nil {
		return nil, err
	}
	// Commit order: stamp the completed-job count BEFORE unlinking the
	// intent marker. A crash between the two is the benign window Open
	// clears (marker job == meta jobs); a crash before the stamp leaves
	// marker job ahead of meta jobs and Open refuses the half-applied
	// folds, as a non-idempotent ⊕ requires.
	if err := r.writeJobMeta(r.jobs.Load() + 1); err != nil {
		return nil, err
	}
	r.jobs.Add(1)
	if err := os.Remove(intent); err != nil {
		return nil, err
	}
	if err := fsutil.SyncDir(filepath.Dir(intent)); err != nil {
		return nil, err
	}
	if output != "" {
		if err := r.writeOutputs(output, rep); err != nil {
			return nil, err
		}
	}
	r.reportResultStats(rep, compBefore)
	return rep, nil
}

// writeOutputs materializes the current result set as DFS part files,
// re-serializing only partitions whose result stores are dirty. A clean
// partition republishes under the new output path with a block-level
// clone of its previous part file (no re-sort, no re-encode); if that
// file is gone — a fresh DFS namespace after a restart — it falls back
// to a full write.
func (r *Runner) writeOutputs(output string, rep *metrics.Report) error {
	start := time.Now()
	var dirtyParts, rewrittenBytes atomic.Int64
	err := par.Do(len(r.res), r.ioPar, func(p int) error {
		res := r.res[p]
		part := mr.PartPath(output, p)
		if !res.Dirty() {
			// The recorded materialization is only reusable if the file
			// actually exists in THIS process's DFS namespace — after a
			// restart it will not, and skipping or cloning would publish
			// an output with missing partitions.
			last := res.LastOutput()
			if last == part {
				if _, err := r.eng.FS().Stat(part); err == nil {
					return nil
				}
			} else if last != "" {
				if err := r.eng.FS().Clone(last, part); err == nil {
					return res.Materialized(part)
				}
			}
		}
		// Everything below re-serializes the partition from its store —
		// because it is dirty, or because a clean partition's previous
		// part file is gone (fresh DFS namespace after a restart). Both
		// count as rewritten: the counters mean "partitions/bytes this
		// refresh actually re-serialized".
		dirtyParts.Add(1)
		w, err := r.eng.FS().Create(part)
		if err != nil {
			return err
		}
		err = res.AllGroups(func(_ string, outs []kv.Pair) error {
			for _, o := range outs {
				if err := w.WritePair(o); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			w.Abort()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fi, err := r.eng.FS().Stat(part)
		if err != nil {
			return err
		}
		rewrittenBytes.Add(fi.Bytes)
		return res.Materialized(part)
	})
	if err != nil {
		return err
	}
	if rep != nil {
		rep.Add(metrics.CounterResultDirtyPartitions, dirtyParts.Load())
		rep.Add(metrics.CounterResultBytesRewritten, rewrittenBytes.Load())
		rep.AddStage(metrics.StageCheckpoint, time.Since(start))
	}
	return nil
}

// resultCompactions sums the result stores' cumulative compaction
// counters; RunDelta reports the per-refresh difference.
func (r *Runner) resultCompactions() int64 {
	var n int64
	for _, res := range r.res {
		n += res.Stats().Compactions
	}
	return n
}

// reportResultStats records the refresh's result-store shape counters.
// Orphaned is a gauge (cumulative since Open): non-zero means segment
// deletions failed and durable space is leaking.
func (r *Runner) reportResultStats(rep *metrics.Report, compBefore int64) {
	var segs, orphaned, blocks, skips, decomp int64
	for _, res := range r.res {
		st := res.Stats()
		segs += int64(st.Segments)
		orphaned += st.Orphaned
		blocks += st.BlocksRead
		skips += st.BloomSkips
		decomp += st.BytesDecompressed
	}
	rep.Add(metrics.CounterResultSegments, segs)
	rep.Add(metrics.CounterResultCompactions, r.resultCompactions()-compBefore)
	rep.Add(metrics.CounterResultSegmentsOrphaned, orphaned)
	// Segment read-path gauges, cumulative since Open (like Orphaned).
	rep.Add(metrics.CounterResultBlocksRead, blocks)
	rep.Add(metrics.CounterResultBloomSkips, skips)
	rep.Add(metrics.CounterResultBytesDecompressed, decomp)
	if r.sched != nil {
		rep.Add(metrics.CounterCompactQueueDepth, r.sched.QueueDepth())
		rep.Add(metrics.CounterCompactBGRuns, r.sched.Runs())
	}
}

// Outputs returns the current result set as a key-sorted slice,
// concatenated across partitions.
func (r *Runner) Outputs() ([]kv.Pair, error) {
	var out []kv.Pair
	for _, res := range r.res {
		err := res.AllGroups(func(_ string, ps []kv.Pair) error {
			out = append(out, ps...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	kv.SortPairs(out)
	return out, nil
}

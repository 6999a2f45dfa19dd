// Package core implements i2MapReduce itself: incremental processing
// for iterative computation (paper Sec. 5), combining the iterative
// model of internal/iter with the MRBG-Store of internal/mrbg.
//
// Lifecycle of a computation over an evolving dataset:
//
//	r, _ := core.NewRunner(engine, spec, cfg)
//	r.RunInitial("structure-v1")        // job A1: iterate to convergence,
//	                                    // then preserve state + MRBGraph
//	r.RunIncremental("delta-1")         // job A2: start from A1's converged
//	                                    // state, re-compute only what the
//	                                    // delta touches
//	r.RunIncremental("delta-2")         // job A3: ...
//
// RunIncremental feeds the delta *structure* data into iteration 1 and
// the delta *state* data into iterations >= 2 (Sec. 5.1), controls
// change propagation with a filter threshold (Sec. 5.3), detects the
// P_delta over-cost condition and falls back to pure iterative
// processing with MRBGraph maintenance off (Sec. 5.2), and checkpoints
// state and MRBGraph files every iteration (Sec. 6.1).
package core

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/par"
	"i2mapreduce/internal/results"
	"i2mapreduce/internal/shuffle"
)

// Spec re-exports the iterative application model; core adds two
// requirements on top of iter's contract for fine-grain incremental
// processing:
//
//   - a Map instance's set of output keys K2 must be determined by the
//     structure record alone (PageRank/SSSP/GIM-V satisfy this), so a
//     state-only change replaces edges at the same (K2, MK);
//   - the prime Reduce must emit at most one state update, keyed by its
//     own K2 (the chunk <-> state-key bijection).
type Spec = iter.Spec

// Config tunes the incremental iterative engine.
type Config struct {
	// NumPartitions defaults to the cluster node count.
	NumPartitions int
	// MaxIterations caps each job's loop. Defaults to 50.
	MaxIterations int
	// Epsilon is the convergence tolerance: state changes at or below
	// it never propagate.
	Epsilon float64
	// CPC enables change propagation control (Sec. 5.3).
	CPC bool
	// FilterThreshold is the CPC filter: with CPC on, only state
	// changes strictly greater than this propagate to the next
	// iteration. The paper's Fig. 10/11 sweep 0.1 / 0.5 / 1.
	FilterThreshold float64
	// DisableMRBG turns MRBGraph maintenance off for the whole
	// computation (the paper's advice for Kmeans). ReplicateState specs
	// force this.
	DisableMRBG bool
	// PDeltaThreshold triggers the automatic MRBG shutdown when the
	// fraction of changed state keys in one iteration exceeds it.
	// Defaults to 0.5 (Sec. 5.2).
	PDeltaThreshold float64
	// StoreOpts templates the per-partition MRBG-Store options.
	StoreOpts mrbg.Options
	// ShuffleMemoryBudget bounds the bytes of intermediate data every
	// pass — full iteration, incremental iteration, preserve pass —
	// holds in memory: beyond it, map output spills to node-local
	// scratch as sorted runs streamed back through a k-way merge
	// ("shuffle.spill.runs" / "shuffle.spill.bytes"), and an incremental
	// reduce merges its delta MRBGraph into the store in batches of its
	// partition's share. <= 0 keeps everything in memory; when the
	// runner is built through i2mr.System, 0 inherits the System-wide
	// default and a negative value explicitly opts out of spilling.
	ShuffleMemoryBudget int64
	// InitialState seeds the state for ReplicateState specs.
	InitialState map[string]string
	// Checkpoint persists state and MRBGraph files after every
	// incremental iteration (Sec. 6.1). On by default for incremental
	// runs when true. Independent of this knob, every job flushes its
	// durable state stores and stamps the job meta when it completes,
	// so Open can always resume at the last job boundary.
	Checkpoint bool
	// StateCompactThreshold is the segment count at which the durable
	// per-partition state stores compact during a checkpoint. 0 uses
	// the store default; negative disables compaction.
	StateCompactThreshold int
	// SegmentBlockBytes / SegmentCompression / BloomBitsPerKey tune the
	// state stores' v2 block segment format (results.Options fields of
	// the same meaning). Zero values use the store defaults; when built
	// through i2mr.System, zero inherits the System-wide defaults.
	SegmentBlockBytes  int
	SegmentCompression string
	BloomBitsPerKey    int
	// SkewRatio / SkewFanOut configure hot-key skew mitigation in every
	// pass's shuffle (shuffle.Config): a K2 whose share of its
	// partition's intermediate records exceeds SkewRatio is split
	// across sub-keys and merged back byte-identically at reduce.
	// 0 disables; when built through i2mr.System, 0 inherits the
	// System-wide default.
	SkewRatio  float64
	SkewFanOut int
	// IOParallelism bounds the concurrent per-partition durability I/O:
	// checkpoint flushes, store opens, and checkpoint restores each fan
	// out across partitions on at most this many goroutines. <= 0 means
	// GOMAXPROCS; 1 recovers the serial pre-parallel behavior exactly.
	IOParallelism int
	// BackgroundCompaction moves state-store threshold compaction and
	// MRBG-Store compaction off the refresh critical path onto a
	// background scheduler (results.Scheduler): a checkpoint then pays
	// only the memtable flush and the manifest commit, and compaction
	// runs between refreshes (the scheduler is paused while a job is in
	// flight). Off by default: state stores compact inline in
	// Checkpoint, MRBG-Stores once a refresh has committed.
	BackgroundCompaction bool
}

// IterStats reports one iteration of an initial or incremental run.
type IterStats struct {
	// Iteration is 1-based within its job.
	Iteration int
	// Propagated counts the state kv-pairs whose change exceeded the
	// active threshold and were emitted to the next iteration —
	// Fig. 11a's "prop. kv-pairs".
	Propagated int
	// Filtered counts state updates suppressed by CPC.
	Filtered int
	// Removed counts state keys whose chunks disappeared entirely.
	Removed int
	// Duration is the iteration wall time (Fig. 11b).
	Duration time.Duration
	// Stages is the per-stage breakdown (Fig. 9).
	Stages metrics.Snapshot
	// MRBGOn records whether MRBGraph maintenance was active.
	MRBGOn bool
}

// Result summarizes one job (initial or incremental).
type Result struct {
	Iterations int
	Converged  bool
	// MRBGDisabledAt is the iteration at which the P_delta detector
	// turned MRBGraph maintenance off, or 0.
	MRBGDisabledAt int
	PerIter        []IterStats
	Report         *metrics.Report
	// Events is the task attempt timeline across the job (Fig. 13).
	Events []cluster.Event
}

// Runner owns one evolving iterative computation.
type Runner struct {
	eng  *mr.Engine
	spec Spec
	cfg  Config
	n    int

	parts  []*structPart
	state  []map[string]string // write-through cache over stateKV
	last   []map[string]string // last propagated value per DK (CPC baseline)
	global map[string]string   // replicated state (ReplicateState specs)
	stores []*mrbg.ShardedStore

	// Durable backing of the in-memory state above (see state.go).
	stateKV  []*results.KV
	lastKV   []*results.KV
	globalKV *results.KV

	mrbgOn      bool
	initialDone bool
	// ioPar is the resolved Config.IOParallelism (>= 1); sched is the
	// background compaction scheduler, nil unless BackgroundCompaction.
	ioPar int
	sched *results.Scheduler
	// refreshFailed latches after a RunIncremental error past its first
	// durable mutation: the preserved state is half-applied and an
	// in-place retry would corrupt it (see RunIncremental).
	refreshFailed bool
	jobSeq        int
	// jobsDone is the durably committed job count (the jobs= stamp of
	// job.meta): it trails jobSeq while a job is in flight and catches up
	// when writeJobMeta commits. CompletedJobs exposes it to external
	// commit protocols (internal/ingest).
	jobsDone atomic.Int64
	// refreshStats backs the engine.Refresher Stats() view.
	refreshStats engine.StatsTracker

	// noCompact, set by tests, keeps refreshes from compacting the
	// MRBG-Stores: the reference a compacting run must match.
	noCompact bool

	jobStart    time.Time
	compactBase int64 // cumulative state-store compactions at job start
	events      []cluster.Event
	mu          sync.Mutex
}

// NewRunner validates the spec and prepares stores and scratch space.
func NewRunner(eng *mr.Engine, spec Spec, cfg Config) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ReplicateState && cfg.InitialState == nil {
		return nil, errors.New("core: ReplicateState requires Config.InitialState")
	}
	if cfg.NumPartitions <= 0 {
		cfg.NumPartitions = eng.Cluster().NumNodes()
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	if cfg.PDeltaThreshold <= 0 {
		cfg.PDeltaThreshold = 0.5
	}
	if cfg.IOParallelism <= 0 {
		cfg.IOParallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		eng:    eng,
		spec:   spec,
		cfg:    cfg,
		n:      cfg.NumPartitions,
		ioPar:  cfg.IOParallelism,
		mrbgOn: !cfg.DisableMRBG && !spec.ReplicateState,
	}
	if cfg.BackgroundCompaction {
		r.sched = results.NewScheduler(results.SchedulerOptions{})
	}
	if r.mrbgOn {
		r.stores = make([]*mrbg.ShardedStore, r.n)
		err := par.Do(r.n, r.ioPar, func(p int) error {
			st, err := mrbg.Open(r.storeOpts(p))
			if err != nil {
				return fmt.Errorf("core: opening store %d: %w", p, err)
			}
			r.stores[p] = st
			return nil
		})
		if err != nil {
			r.Close()
			return nil, err
		}
	}
	if err := r.openStateStores(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close shuts down the background compaction scheduler (waiting out any
// in-flight compaction, since it runs against these stores), then
// releases the MRBG-Stores and the durable state stores.
func (r *Runner) Close() error {
	first := r.sched.Close()
	for _, s := range r.stores {
		if s == nil {
			continue // a parallel NewRunner open failed part-way
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, kvs := range r.stateKV {
		if kvs == nil {
			continue
		}
		if err := kvs.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, kvs := range r.lastKV {
		if kvs == nil {
			continue
		}
		if err := kvs.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.globalKV != nil {
		if err := r.globalKV.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stores exposes the per-partition MRBG-Stores for the Table 4 harness.
func (r *Runner) Stores() []*mrbg.ShardedStore { return r.stores }

// StateStores exposes the durable per-partition state stores — what the
// serving layer (internal/serve) snapshots to answer point lookups
// while refreshes are in flight. State keys are routed to partitions by
// kv.Partition, matching the engine's own placement. For ReplicateState
// specs it returns the single global store (every key routes to the one
// partition).
func (r *Runner) StateStores() []*results.KV {
	if r.spec.ReplicateState {
		return []*results.KV{r.globalKV}
	}
	return append([]*results.KV(nil), r.stateKV...)
}

// MRBGEnabled reports whether MRBGraph maintenance is currently active.
func (r *Runner) MRBGEnabled() bool { return r.mrbgOn }

// CompactionScheduler exposes the background compaction scheduler (nil
// unless Config.BackgroundCompaction), so the serving layer can surface
// its gauges.
func (r *Runner) CompactionScheduler() *results.Scheduler { return r.sched }

// CompletedJobs returns the durably committed job count (the jobs=
// stamp of job.meta): 1 after RunInitial, +1 per committed refresh. It
// advances only after the refresh's completion flush, so comparing it
// across a process death tells an external commit protocol
// (internal/ingest) whether an in-flight refresh committed.
func (r *Runner) CompletedJobs() int64 { return r.jobsDone.Load() }

// threshold returns the active propagation threshold: Epsilon floor,
// raised to FilterThreshold when CPC is on.
func (r *Runner) threshold() float64 {
	t := r.cfg.Epsilon
	if r.cfg.CPC && r.cfg.FilterThreshold > t {
		t = r.cfg.FilterThreshold
	}
	return t
}

// partitionOf returns the partition owning a structure key (Eq. 2).
func (r *Runner) partitionOf(sk string) int {
	if r.spec.ReplicateState {
		return kv.Partition(sk, r.n)
	}
	return kv.Partition(r.spec.Project(sk), r.n)
}

// structPath names partition p's cached structure file.
func (r *Runner) structPath(p int) string {
	return filepath.Join(r.eng.Cluster().PartitionDir(p), "core", cluster.SafeName(r.spec.Name), fmt.Sprintf("part-%04d.struct", p))
}

// runTasks executes tasks on the cluster and accumulates their events
// into the job timeline, offset by the job's start time.
func (r *Runner) runTasks(tasks []cluster.Task) error {
	offset := time.Since(r.jobStart)
	evs, err := r.eng.Cluster().Run(tasks)
	r.mu.Lock()
	for _, e := range evs {
		e.Start += offset
		e.End += offset
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
	return err
}

// runPass runs one Map -> shuffle -> Reduce pass of job r.jobSeq on the
// shared driver (shuffle.Iteration): every task wave after structure
// loading is one of these. label names the pass within the job ("it003",
// "merge", "preserve"): tasks are <spec>/j<seq>-<label>/map-<mmmm> and
// .../reduce-<pppp>, spills go under the reducing node's
// core-shuffle/<spec>/. Map task m runs mapPart over partition parts[m]
// (a full pass names every partition, an incremental one only those
// holding delta input); reduce runs once per partition.
func (r *Runner) runPass(label string, rep *metrics.Report, parts []int,
	mapPart func(p int, emit func(k2, v2 string)) (int64, error),
	reduce func(p int, groups shuffle.GroupSource) error) error {
	cl, spec := r.eng.Cluster(), cluster.SafeName(r.spec.Name)
	nodes := make([]int, len(parts))
	for m, p := range parts {
		nodes[m] = p % cl.NumNodes()
	}
	err := shuffle.Iteration{
		Name:         fmt.Sprintf("%s/j%d-%s", spec, r.jobSeq, label),
		Partitions:   r.n,
		NumNodes:     cl.NumNodes(),
		RunTasks:     r.runTasks,
		MemoryBudget: r.cfg.ShuffleMemoryBudget,
		ScratchDir: func(p int) string {
			return filepath.Join(cl.PartitionDir(p), "core-shuffle", spec, fmt.Sprintf("j%d-%s-part-%04d", r.jobSeq, label, p))
		},
		SkewRatio:       r.cfg.SkewRatio,
		SkewFanOut:      r.cfg.SkewFanOut,
		Report:          rep,
		MapTask:         func(m int, emit func(k2, v2 string)) (int64, error) { return mapPart(parts[m], emit) },
		ReducePartition: reduce,
	}.Run(nodes)
	if err != nil {
		return fmt.Errorf("core: %s: %w", label, err)
	}
	return nil
}

// allParts names every partition: the map side of a full pass.
func (r *Runner) allParts() []int {
	parts := make([]int, r.n)
	for p := range parts {
		parts[p] = p
	}
	return parts
}

// mapEdges is the map side of the passes that produce MRBGraph edges:
// it runs the prime Map over one structure record of partition p with
// its current state value, emitting in the MRBGraph-edge wire format.
func (r *Runner) mapEdges(p int, sk, sv string, seq uint64, del bool, emit func(k2, v2 string)) error {
	dk := r.spec.Project(sk)
	return r.spec.Map(sk, sv, dk, r.stateOrInit(p, dk), mrbg.EdgeEmit(sk, sv, seq, del, emit))
}

// stateOrInit returns the current state value for dk in partition p.
func (r *Runner) stateOrInit(p int, dk string) string {
	if v, ok := r.state[p][dk]; ok {
		return v
	}
	return r.spec.InitState(dk)
}

// State returns a copy of the merged state store.
func (r *Runner) State() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string)
	if r.spec.ReplicateState {
		for k, v := range r.global {
			out[k] = v
		}
		return out
	}
	for _, st := range r.state {
		for k, v := range st {
			out[k] = v
		}
	}
	return out
}

// StateKeyCount returns |D|, the number of live state kv-pairs.
func (r *Runner) StateKeyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spec.ReplicateState {
		return len(r.global)
	}
	n := 0
	for _, st := range r.state {
		n += len(st)
	}
	return n
}

// loadStructure partitions the structure input (Eq. 2) through the
// iterative model's own partitioning wave, builds the per-partition
// files + span indexes, and initializes state.
func (r *Runner) loadStructure(input string) error {
	project := r.spec.Project
	if r.spec.ReplicateState {
		project = nil
	}
	parts, err := iter.PartitionStructure(r.eng, r.spec.Name, input, r.n, r.partitionOf, r.runTasks)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.parts = make([]*structPart, r.n)
	if r.spec.ReplicateState {
		r.setGlobal(maps.Clone(r.cfg.InitialState))
	} else {
		r.state = make([]map[string]string, r.n)
		r.last = make([]map[string]string, r.n)
	}
	for p := 0; p < r.n; p++ {
		sp, err := buildStructPart(r.structPath(p), parts[p], project)
		if err != nil {
			return err
		}
		r.parts[p] = sp
		if !r.spec.ReplicateState {
			r.state[p] = make(map[string]string)
			r.last[p] = make(map[string]string)
			for dk := range sp.spans {
				r.setStateLocked(p, dk, r.spec.InitState(dk))
			}
		}
	}
	return nil
}

// RunInitial executes job A1: load structure, iterate to convergence
// with full passes, then preserve the converged state and MRBGraph for
// future incremental jobs.
func (r *Runner) RunInitial(input string) (*Result, error) {
	if r.initialDone {
		return nil, errors.New("core: RunInitial called twice")
	}
	// The job meta is written only after a fully successful initial run,
	// so its presence is the authoritative completion marker. Durable
	// state WITHOUT it is the partial work of an initial run that died
	// mid-way; discard it so this run starts clean.
	if _, ok, err := engine.ReadJobMeta(r.jobMetaPath()); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("core: computation %q already has preserved state; use Open to resume or point the system at a fresh work dir", r.spec.Name)
	}
	if err := r.resetStaleState(); err != nil {
		return nil, err
	}
	// Background compaction stays paused while the job runs (the same
	// refresh barrier RunIncremental uses).
	r.sched.Pause()
	defer r.sched.Resume()
	r.jobStart = time.Now()
	r.events = nil
	r.jobSeq++
	_, r.compactBase = r.stateStoreStats()
	if err := r.loadStructure(input); err != nil {
		return nil, err
	}
	res := &Result{Report: &metrics.Report{}}
	for it := 1; it <= r.cfg.MaxIterations; it++ {
		stats, err := r.runFullIteration(it, res.Report)
		if err != nil {
			return nil, err
		}
		res.PerIter = append(res.PerIter, stats)
		res.Iterations = it
		if stats.Propagated == 0 {
			res.Converged = true
			break
		}
	}
	if r.mrbgOn {
		if err := r.preservePass(res.Report); err != nil {
			return nil, err
		}
	}
	r.resetLastEmitted()
	// The completion flush runs regardless of Config.Checkpoint: the
	// converged state, the CPC baseline, and the preserved MRBGraph must
	// all be durable before the job meta stamps the run complete.
	if err := r.checkpoint(res.Report); err != nil {
		return nil, err
	}
	if err := r.writeJobMeta(); err != nil {
		return nil, err
	}
	r.finishResult(res)
	r.initialDone = true
	return res, nil
}

// finishResult stamps the job-level counters and the task timeline on
// res; every pass already merged its own stages and counters into
// res.Report when it completed.
func (r *Runner) finishResult(res *Result) {
	res.Report.Add(metrics.CounterIterations, int64(res.Iterations))
	segs, comp := r.stateStoreStats()
	res.Report.Add(metrics.CounterStateSegments, segs)
	res.Report.Add(metrics.CounterStateCompactions, comp-r.compactBase)
	blocks, skips, decomp := r.stateReadStats()
	res.Report.Add(metrics.CounterResultBlocksRead, blocks)
	res.Report.Add(metrics.CounterResultBloomSkips, skips)
	res.Report.Add(metrics.CounterResultBytesDecompressed, decomp)
	if r.sched != nil {
		res.Report.Add(metrics.CounterCompactQueueDepth, r.sched.QueueDepth())
		res.Report.Add(metrics.CounterCompactBGRuns, r.sched.Runs())
	}
	r.mu.Lock()
	res.Events = append([]cluster.Event(nil), r.events...)
	r.mu.Unlock()
}

// resetLastEmitted aligns the CPC baseline with the current state (at
// job boundaries the preserved MRBGraph reflects exactly the current
// state, so the accumulated-change baseline restarts from it).
func (r *Runner) resetLastEmitted() {
	if r.spec.ReplicateState {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := 0; p < r.n; p++ {
		for k := range r.last[p] {
			if _, ok := r.state[p][k]; !ok {
				r.lastKV[p].Delete(k)
			}
		}
		l := make(map[string]string, len(r.state[p]))
		for k, v := range r.state[p] {
			if cur, ok := r.last[p][k]; !ok || cur != v {
				r.lastKV[p].Put(k, v)
			}
			l[k] = v
		}
		r.last[p] = l
	}
}

// runFullIteration is one complete prime Map -> shuffle -> prime
// Reduce pass over all structure records (used by the initial run and
// by MRBG-off mode). State updates apply in place; Propagated counts
// keys that changed beyond the active threshold. The pass's stages and
// counters land in the returned stats and merge into job.
func (r *Runner) runFullIteration(it int, job *metrics.Report) (IterStats, error) {
	start := time.Now()
	rep := &metrics.Report{}

	var mu sync.Mutex // guards the pass's accumulators
	propagated, filtered := 0, 0
	var allOuts []kv.Pair // ReplicateState only
	thr := r.threshold()

	err := r.runPass(fmt.Sprintf("it%03d", it), rep, r.allParts(),
		func(p int, emit func(k2, v2 string)) (int64, error) {
			var repDK, repDV string
			if r.spec.ReplicateState {
				g := r.globalView()
				if len(g) != 1 {
					return 0, fmt.Errorf("core: ReplicateState spec %q has %d state keys; expected 1", r.spec.Name, len(g))
				}
				for k, v := range g {
					repDK, repDV = k, v
				}
			}
			var recs int64
			err := r.parts[p].readAll(func(pr kv.Pair) error {
				recs++
				dk, dv := repDK, repDV
				if !r.spec.ReplicateState {
					dk = r.spec.Project(pr.Key)
					dv = r.stateOrInit(p, dk)
				}
				return r.spec.Map(pr.Key, pr.Value, dk, dv, emit)
			})
			return recs, err
		},
		func(p int, groups shuffle.GroupSource) error {
			getter := r.stateGetterFor(p)
			type upd struct{ dk, dv string }
			var ups []upd
			var outs []kv.Pair
			err := groups(func(g kv.Group) error {
				return r.spec.Reduce(g.Key, g.Values, getter, func(dk, dv string) {
					if r.spec.ReplicateState {
						outs = append(outs, kv.Pair{Key: dk, Value: dv})
						return
					}
					ups = append(ups, upd{dk, dv})
				})
			})
			if err != nil {
				return err
			}
			if r.spec.ReplicateState {
				mu.Lock()
				allOuts = append(allOuts, outs...)
				mu.Unlock()
				return nil
			}
			nProp, nFilt := 0, 0
			r.mu.Lock()
			for _, u := range ups {
				if kv.Partition(u.dk, r.n) != p {
					r.mu.Unlock()
					return fmt.Errorf("core: reduce task %d emitted foreign state key %q", p, u.dk)
				}
				prev := r.state[p][u.dk]
				if r.spec.Difference(prev, u.dv) > thr {
					nProp++
				} else {
					nFilt++
				}
				r.setStateLocked(p, u.dk, u.dv)
			}
			r.mu.Unlock()
			mu.Lock()
			propagated += nProp
			filtered += nFilt
			mu.Unlock()
			return nil
		})
	if err != nil {
		return IterStats{}, err
	}

	if r.spec.ReplicateState {
		kv.SortPairs(allOuts)
		prev := r.globalView()
		next := r.spec.AssembleState(prev, allOuts)
		for k, nv := range next {
			if r.spec.Difference(prev[k], nv) > thr {
				propagated++
			}
		}
		r.setGlobal(next)
	}

	job.Merge(rep)
	return IterStats{
		Iteration:  it,
		Propagated: propagated,
		Filtered:   filtered,
		Duration:   time.Since(start),
		Stages:     rep.Snapshot(),
	}, nil
}

func (r *Runner) globalView() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.global
}

func (r *Runner) stateGetterFor(p int) iter.StateGetter {
	if r.spec.ReplicateState {
		return func(dk string) (string, bool) {
			v, ok := r.globalView()[dk]
			return v, ok
		}
	}
	return func(dk string) (string, bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		v, ok := r.state[p][dk]
		return v, ok
	}
}

// preservePass rebuilds the MRBGraph from the converged state: every
// structure record is mapped once and the resulting edges are stored as
// chunks. This realizes the paper's "only the states in the last
// iteration of A_{i-1} need to be saved" — the preserved MRBGraph is
// the fixed-point edge set.
func (r *Runner) preservePass(job *metrics.Report) error {
	rep := &metrics.Report{}
	err := r.runPass("preserve", rep, r.allParts(),
		func(p int, emit func(k2, v2 string)) (int64, error) {
			var recs int64
			err := r.parts[p].readAll(func(pr kv.Pair) error {
				recs++
				return r.mapEdges(p, pr.Key, pr.Value, 0, false, emit)
			})
			return recs, err
		},
		func(p int, groups shuffle.GroupSource) error {
			err := groups(func(g kv.Group) error {
				c, err := mrbg.GroupChunk(g)
				if err != nil {
					return err
				}
				return r.stores[p].Put(c)
			})
			if err != nil {
				return err
			}
			if err := r.stores[p].CommitBatch(); err != nil {
				return err
			}
			return r.stores[p].Checkpoint()
		})
	job.Merge(rep)
	return err
}

// Package iter implements i2MapReduce's general-purpose iterative model
// (paper Sec. 4): loop-invariant structure kv-pairs <SK,SV> separated
// from loop-variant state kv-pairs <DK,DV>, related by a user-supplied
// Project function (SK -> DK) covering one-to-one, many-to-one, and —
// via state replication — all-to-one dependencies.
//
// The engine applies the paper's two iterative optimizations:
//
//   - jobs stay alive across iterations: the loop reuses partitioned
//     structure files and in-memory shuffle buffers instead of paying
//     per-iteration job startup;
//   - structure data is partitioned once by hash(project(SK)) (Eq. 2),
//     cached in each node's local file system, and re-read locally
//     every iteration, never re-shuffled. State is partitioned by
//     hash(DK) (Eq. 1) with the same hash, so the prime Reduce task of
//     partition p produces exactly the state pairs partition p's prime
//     Map needs — no backward network transfer.
//
// This is also the "iterMR" re-computation baseline of the evaluation
// (Sec. 8.1.1 solution (ii)).
package iter

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/shuffle"
)

// Emit passes one intermediate or state record out of a user function.
type Emit = mr.Emit

// StateGetter exposes read-only access to the current state store to
// the prime Reduce (GIM-V's assign and SSSP's min-with-current need the
// previous state value).
type StateGetter func(dk string) (string, bool)

// Spec describes one iterative algorithm in the i2MapReduce model.
type Spec struct {
	// Name labels scratch files and tasks.
	Name string
	// Project returns the state key interdependent with a structure key
	// (paper Sec. 4.2). Ignored when ReplicateState is set.
	Project func(sk string) string
	// Map is the prime Map: map(SK, SV, DK, DV) -> [(K2,V2)]. In the
	// single-job iteration model K2 is a state key.
	Map func(sk, sv, dk, dv string, emit Emit) error
	// Reduce is the prime Reduce: reduce(K2, {V2}) -> state updates
	// emitted as (DK, DV). For co-partitioned specs every emitted DK
	// must hash to the reduce task's own partition (the paper's
	// "Reduce task i produces and only produces the state kv-pairs in
	// partition i"); the engine enforces this. The values slice is
	// valid only during the call: an incremental iteration reuses it
	// for the next K2.
	Reduce func(k2 string, values []string, state StateGetter, emit Emit) error
	// InitState returns the initial DV for a state key discovered
	// during structure loading. Unused when ReplicateState is set
	// (Config.InitialState supplies the state then).
	InitState func(dk string) string
	// Difference quantifies the change between two values of one state
	// key; the engine uses it for convergence (and the incremental
	// engine for change propagation control).
	Difference func(prev, cur string) float64
	// ReplicateState marks all-to-one dependency (Kmeans): structure is
	// partitioned by hash(SK), and the full state is replicated to
	// every prime Map task (paper Sec. 4.3 "Supporting Smaller Number
	// of State kv-pairs").
	ReplicateState bool
	// AssembleState folds the reduce outputs of one iteration into the
	// replicated state (e.g. Kmeans: collect <cid,cval> fragments into
	// the single centroid-set value). Required iff ReplicateState.
	AssembleState func(prev map[string]string, outs []kv.Pair) map[string]string
}

// Validate checks the spec is complete for its dependency type; both
// iterative engines (this package and internal/core) call it first.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("iter: Spec.Name required")
	case s.Map == nil || s.Reduce == nil || s.Difference == nil:
		return errors.New("iter: Spec requires Map, Reduce, and Difference")
	case s.ReplicateState && s.AssembleState == nil:
		return errors.New("iter: ReplicateState requires AssembleState")
	case !s.ReplicateState && (s.Project == nil || s.InitState == nil):
		return errors.New("iter: co-partitioned Spec requires Project and InitState")
	}
	return nil
}

// Config tunes a run.
type Config struct {
	// NumPartitions defaults to the cluster node count.
	NumPartitions int
	// MaxIterations caps the loop. Defaults to 50.
	MaxIterations int
	// Epsilon declares convergence when no state key changed by more
	// than this between iterations.
	Epsilon float64
	// InitialState seeds the state store for ReplicateState specs.
	InitialState map[string]string
	// ShuffleMemoryBudget bounds the bytes of intermediate data the
	// shuffle buffers in memory per iteration; beyond it, map output
	// spills to node-local scratch as sorted runs that the reduce side
	// streams back through a k-way merge ("shuffle.spill.runs" /
	// "shuffle.spill.bytes" count the spills). <= 0 keeps everything in
	// memory; when the runner is built through i2mr.System, 0 inherits
	// the System-wide default and a negative value explicitly opts out
	// of spilling.
	ShuffleMemoryBudget int64
}

// IterationStats describes one iteration of a run.
type IterationStats struct {
	// Changed counts state keys whose Difference exceeded Epsilon.
	Changed int
	// MaxDiff is the largest observed state change.
	MaxDiff float64
	// Duration is the iteration wall-clock time.
	Duration time.Duration
	// Stages holds the per-stage breakdown.
	Stages metrics.Snapshot
}

// Result summarizes a completed run.
type Result struct {
	Iterations int
	Converged  bool
	PerIter    []IterationStats
	Report     *metrics.Report
}

// Runner executes an iterative computation: LoadStructure once, then
// Run to convergence. A Runner is not safe for concurrent use.
type Runner struct {
	eng  *mr.Engine
	spec Spec
	cfg  Config
	n    int

	state  []map[string]string // per-partition state (co-partitioned)
	global map[string]string   // replicated state (ReplicateState)
	loaded bool
	mu     sync.Mutex
}

// NewRunner validates the spec and prepares a runner.
func NewRunner(eng *mr.Engine, spec Spec, cfg Config) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumPartitions <= 0 {
		cfg.NumPartitions = eng.Cluster().NumNodes()
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	if spec.ReplicateState && cfg.InitialState == nil {
		return nil, errors.New("iter: ReplicateState requires Config.InitialState")
	}
	return &Runner{eng: eng, spec: spec, cfg: cfg, n: cfg.NumPartitions}, nil
}

// NumPartitions returns the partition count n.
func (r *Runner) NumPartitions() int { return r.n }

// partitionOf returns the partition owning a structure key.
func (r *Runner) partitionOf(sk string) int {
	if r.spec.ReplicateState {
		return kv.Partition(sk, r.n) // default partitioning
	}
	return kv.Partition(r.spec.Project(sk), r.n) // Eq. (2)
}

// structPath names partition p's cached structure file on its node.
func (r *Runner) structPath(p int) string {
	return filepath.Join(r.eng.Cluster().PartitionDir(p), "iter", cluster.SafeName(r.spec.Name), fmt.Sprintf("part-%04d.struct", p))
}

// shuffleDir names the node-local spill directory of iteration it's
// partition p (on the node that runs partition p's reduce task).
func (r *Runner) shuffleDir(it, p int) string {
	return filepath.Join(r.eng.Cluster().PartitionDir(p), "iter-shuffle", cluster.SafeName(r.spec.Name), fmt.Sprintf("it%03d-part-%04d", it, p))
}

// LoadStructure runs the preprocessing step (paper Sec. 4.3):
// partition the structure input by hash(project(SK)), sort each
// partition so interdependent SKs and DKs align, cache the partitions
// in node-local files, and initialize the state store.
func (r *Runner) LoadStructure(input string) (*metrics.Report, error) {
	if r.loaded {
		return nil, errors.New("iter: LoadStructure called twice")
	}
	rep := &metrics.Report{}
	start := time.Now()
	run := func(ts []cluster.Task) error { _, err := r.eng.Cluster().Run(ts); return err }
	parts, err := PartitionStructure(r.eng, r.spec.Name, input, r.n, r.partitionOf, run)
	if err != nil {
		return nil, err
	}

	if r.spec.ReplicateState {
		r.global = maps.Clone(r.cfg.InitialState)
	} else {
		r.state = make([]map[string]string, r.n)
	}
	for p := 0; p < r.n; p++ {
		ps := parts[p]
		if r.spec.ReplicateState {
			kv.SortPairs(ps)
		} else {
			// Sort by (project(SK), SK) so the structure file streams in
			// the same order as the DK-sorted state file.
			sort.SliceStable(ps, func(i, j int) bool {
				di, dj := r.spec.Project(ps[i].Key), r.spec.Project(ps[j].Key)
				if di != dj {
					return di < dj
				}
				return ps[i].Key < ps[j].Key
			})
			st := make(map[string]string)
			for _, pr := range ps {
				dk := r.spec.Project(pr.Key)
				if _, ok := st[dk]; !ok {
					st[dk] = r.spec.InitState(dk)
				}
			}
			r.state[p] = st
		}
		if err := WriteStructFile(r.structPath(p), ps); err != nil {
			return nil, err
		}
		rep.Add(metrics.CounterStructureRecords, int64(len(ps)))
	}
	r.loaded = true
	rep.AddStage(metrics.StageMap, time.Since(start))
	return rep, nil
}

// PartitionStructure is the structure-partitioning wave both iterative
// engines load through (paper Sec. 4.3 preprocessing): one task per
// input block, run through run, routes the block's pairs to
// partitionOf(SK). Each partition comes back in input order, whatever
// order the tasks finished in.
func PartitionStructure(eng *mr.Engine, name, input string, n int, partitionOf func(sk string) int, run func([]cluster.Task) error) ([][]kv.Pair, error) {
	fi, err := eng.FS().Stat(input)
	if err != nil {
		return nil, fmt.Errorf("iter: structure input: %w", err)
	}
	// Block b's task alone writes perBlock[b]: the wave shares nothing.
	perBlock := make([][][]kv.Pair, len(fi.Blocks))
	tasks := make([]cluster.Task, 0, len(fi.Blocks))
	for b := range fi.Blocks {
		//i2vet:allow rawgo the one task wave that is not a Map -> shuffle -> Reduce pass: it routes by hash, nothing is grouped or reduced
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/partition-%04d", cluster.SafeName(name), b),
			Preferred: -1,
			Run: func(tc cluster.TaskContext) error {
				br, err := eng.FS().OpenBlock(input, b)
				if err != nil {
					return err
				}
				defer br.Close()
				local := make([][]kv.Pair, n)
				for {
					p, err := br.ReadPair()
					if err == io.EOF {
						perBlock[b] = local
						return nil
					}
					if err != nil {
						return err
					}
					i := partitionOf(p.Key)
					local[i] = append(local[i], p)
				}
			},
		})
	}
	if err := run(tasks); err != nil {
		return nil, fmt.Errorf("iter: partitioning: %w", err)
	}
	parts := make([][]kv.Pair, n)
	for i := range parts {
		for _, local := range perBlock {
			parts[i] = append(parts[i], local[i]...)
		}
	}
	return parts, nil
}

// WriteStructFile writes a sorted structure partition to a node-local
// file; the incremental engine (internal/core) shares the format.
func WriteStructFile(path string, ps []kv.Pair) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := kv.EncodePairs(f, ps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadStructFile streams a cached structure partition from local disk.
func ReadStructFile(path string, fn func(p kv.Pair) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := kv.NewReader(f)
	for {
		p, err := dec.ReadPair()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(p); err != nil {
			return err
		}
	}
}

// State returns a copy of the current state store contents (merged
// across partitions for co-partitioned specs).
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

// Run iterates until convergence (no state change above Epsilon) or
// MaxIterations, whichever first.
func (r *Runner) Run() (*Result, error) {
	if !r.loaded {
		return nil, errors.New("iter: Run before LoadStructure")
	}
	res := &Result{Report: &metrics.Report{}}
	for it := 1; it <= r.cfg.MaxIterations; it++ {
		stats, err := r.runIteration(it, res.Report)
		if err != nil {
			return nil, err
		}
		res.PerIter = append(res.PerIter, stats)
		res.Iterations = it
		res.Report.Add(metrics.CounterIterations, 1)
		if stats.Changed == 0 {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// runIteration executes one prime Map -> shuffle -> prime Reduce pass
// on the shared streaming shuffle runtime (internal/shuffle): the
// runtime owns the task scaffolding, lock-striped partition buffers,
// budgeted spilling, and the streaming merge; this method supplies the
// structure reader, the prime Map/Reduce bindings, and the state-update
// policy (buffer updates, then apply with convergence accounting). The
// pass's stages and counters land in the returned stats and merge into
// job.
func (r *Runner) runIteration(it int, job *metrics.Report) (IterationStats, error) {
	iterStart := time.Now()
	rep := &metrics.Report{}

	type stateUpdate struct {
		dk, dv string
	}
	updates := make([][]stateUpdate, r.n)
	var allOuts []kv.Pair // ReplicateState only
	var outsMu sync.Mutex

	err := shuffle.Iteration{
		Name:         fmt.Sprintf("%s/it%03d", cluster.SafeName(r.spec.Name), it),
		Partitions:   r.n,
		NumNodes:     r.eng.Cluster().NumNodes(),
		RunTasks:     func(ts []cluster.Task) error { _, err := r.eng.Cluster().Run(ts); return err },
		MemoryBudget: r.cfg.ShuffleMemoryBudget,
		ScratchDir:   func(p int) string { return r.shuffleDir(it, p) },
		Report:       rep,
		// Prime Map: one task per partition, co-located with its cached
		// structure file and state store.
		MapTask: func(p int, emit func(k2, v2 string)) (int64, error) {
			// All-to-one specs see the whole replicated state as a
			// single canonical kv-pair, resolved once per task.
			var repDK, repDV string
			if r.spec.ReplicateState {
				g := r.globalView()
				if len(g) != 1 {
					return 0, fmt.Errorf("iter: ReplicateState spec %q has %d state keys; expected 1", r.spec.Name, len(g))
				}
				for k, v := range g {
					repDK, repDV = k, v
				}
			}
			var recs int64
			err := ReadStructFile(r.structPath(p), func(pr kv.Pair) error {
				recs++
				dk, dv := repDK, repDV
				if !r.spec.ReplicateState {
					dk = r.spec.Project(pr.Key)
					var ok bool
					dv, ok = r.state[p][dk]
					if !ok {
						dv = r.spec.InitState(dk)
					}
				}
				return r.spec.Map(pr.Key, pr.Value, dk, dv, emit)
			})
			return recs, err
		},
		// Prime Reduce: per partition, co-located with the prime Map
		// task of the same partition so new state lands where the next
		// iteration's map reads it.
		ReducePartition: func(p int, groups shuffle.GroupSource) error {
			getter := r.stateGetterFor(p)
			var ups []stateUpdate
			var outs []kv.Pair
			var ngroups int64
			err := groups(func(g kv.Group) error {
				ngroups++
				return r.spec.Reduce(g.Key, g.Values, getter, func(dk, dv string) {
					if r.spec.ReplicateState {
						outs = append(outs, kv.Pair{Key: dk, Value: dv})
						return
					}
					ups = append(ups, stateUpdate{dk: dk, dv: dv})
				})
			})
			if err != nil {
				return err
			}
			if !r.spec.ReplicateState {
				for _, u := range ups {
					if kv.Partition(u.dk, r.n) != p {
						return fmt.Errorf("iter: reduce task %d emitted state key %q owned by partition %d", p, u.dk, kv.Partition(u.dk, r.n))
					}
				}
				updates[p] = ups
			} else {
				outsMu.Lock()
				allOuts = append(allOuts, outs...)
				outsMu.Unlock()
			}
			rep.Add(metrics.CounterReduceGroups, ngroups)
			return nil
		},
	}.Run(r.eng.Cluster().PartitionNodes(r.n))
	if err != nil {
		return IterationStats{}, fmt.Errorf("iter: iteration %d: %w", it, err)
	}

	// Apply state updates and measure convergence.
	applyStart := time.Now()
	changed := 0
	maxDiff := 0.0
	observe := func(prev, cur string) {
		d := r.spec.Difference(prev, cur)
		maxDiff = max(maxDiff, d)
		if d > r.cfg.Epsilon {
			changed++
		}
	}
	if r.spec.ReplicateState {
		kv.SortPairs(allOuts)
		prev := r.globalView()
		next := r.spec.AssembleState(prev, allOuts)
		for k, nv := range next {
			observe(prev[k], nv)
		}
		r.mu.Lock()
		r.global = next
		r.mu.Unlock()
	} else {
		for p := 0; p < r.n; p++ {
			for _, u := range updates[p] {
				observe(r.state[p][u.dk], u.dv)
				r.state[p][u.dk] = u.dv
			}
		}
	}
	rep.AddStage(metrics.StageReduce, time.Since(applyStart))

	job.Merge(rep)
	return IterationStats{
		Changed:  changed,
		MaxDiff:  maxDiff,
		Duration: time.Since(iterStart),
		Stages:   rep.Snapshot(),
	}, nil
}

// globalView returns the replicated state map (callers must not
// mutate).
func (r *Runner) globalView() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.global
}

// stateGetterFor builds the read-only state accessor reduce tasks use.
func (r *Runner) stateGetterFor(p int) StateGetter {
	if r.spec.ReplicateState {
		return func(dk string) (string, bool) {
			v, ok := r.globalView()[dk]
			return v, ok
		}
	}
	st := r.state[p]
	return func(dk string) (string, bool) {
		v, ok := st[dk]
		return v, ok
	}
}

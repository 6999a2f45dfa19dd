// Package mr implements the vanilla MapReduce engine (paper Sec. 2)
// that everything else builds on: plain re-computation baselines run on
// it directly, the HaLoop baseline chains its two jobs per iteration
// through it, and the incremental one-step engine runs its initial job
// on it.
//
// A job is a thin binding onto the one Map -> shuffle -> Reduce driver
// of the module, shuffle.Iteration, which the incremental and iterative
// engines run on too:
//
//   - one Map task per DFS input block, scheduled data-locally; its
//     output (optionally combined) is staged per attempt and published
//     to the shuffle on success;
//   - the shuffle keeps the intermediate data in lock-striped
//     per-partition buffers under a fixed memory budget, spilling sorted
//     runs to node-local scratch beyond it and removing them when the
//     job ends;
//   - one Reduce task per partition streams the (key, value)-ordered
//     merge, invokes Reduce per group, and commits a DFS part file.
//
// Output I/O is real disk I/O; the network hop of the shuffle is a byte
// counter ("shuffle.bytes", key+value bytes emitted).
package mr

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/shuffle"
)

// shuffleBudget bounds the intermediate bytes a vanilla job holds in
// memory before map output spills to node-local scratch, the order of
// Hadoop's io.sort.mb. It is a constant, not a Job field: the vanilla
// pass is the baseline every comparison runs against, and the budgets
// the sweeps vary (ShuffleMemoryBudget) size a delta or an iteration,
// not a whole input.
const shuffleBudget = 64 << 20

// Emit passes one output record out of a Map or Reduce function.
type Emit func(key, value string)

// Mapper transforms one input record into zero or more intermediate
// records: map(K1,V1) -> [(K2,V2)].
type Mapper interface {
	Map(key, value string, emit Emit) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(key, value string, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(key, value string, emit Emit) error { return f(key, value, emit) }

// Reducer folds all values of one intermediate key into final records:
// reduce(K2,{V2}) -> [(K3,V3)]. The values slice belongs to the engine
// and is valid only during the call (an incremental refresh reuses it
// for the next key); a Reducer may keep the strings, not the slice.
type Reducer interface {
	Reduce(key string, values []string, emit Emit) error
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values []string, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []string, emit Emit) error {
	return f(key, values, emit)
}

// Job describes one MapReduce job.
type Job struct {
	// Name labels scratch directories and task names. Must be unique
	// within one Engine; Engine enforces this with a sequence number.
	Name string
	// Input is the DFS path holding pair records.
	Input string
	// Inputs optionally lists several DFS paths (like Hadoop reading a
	// directory of part files); used instead of Input when non-empty.
	Inputs []string
	// Output is the DFS path prefix; reduce task r writes
	// "<Output>/part-<r>".
	Output string
	// Mapper is required.
	Mapper Mapper
	// Reducer handles every partition. Exactly one of Reducer and
	// ReducerFactory must be set.
	Reducer Reducer
	// ReducerFactory builds a partition-specific Reducer; the
	// incremental engine uses it to bind each reduce task to its own
	// MRBG-Store. Called once per reduce task attempt.
	ReducerFactory func(partition int) Reducer
	// Combiner optionally pre-aggregates each map task's output with
	// reduce semantics before it enters the shuffle, like Hadoop's
	// combiner.
	Combiner Reducer
	// NumReducers defaults to the cluster's node count. Keys are routed
	// by kv.Partition.
	NumReducers int
	// StartupCost models Hadoop's per-job startup overhead (~20 s for
	// 10-100 tasks, paper Sec. 4.2). It is *accounted*, not slept:
	// Run adds it to the report's "startup.ns" counter, and harnesses
	// fold it into totals. Keeping it virtual keeps benches fast while
	// preserving the plainMR-vs-iterMR comparison shape.
	StartupCost time.Duration
}

// Engine runs jobs against one DFS and one simulated cluster.
type Engine struct {
	fs  *dfs.FS
	cl  *cluster.Cluster
	seq atomic.Int64
}

// NewEngine binds an engine to its file system and cluster.
func NewEngine(fs *dfs.FS, cl *cluster.Cluster) *Engine {
	return &Engine{fs: fs, cl: cl}
}

// FS returns the engine's DFS.
func (e *Engine) FS() *dfs.FS { return e.fs }

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// PartPath returns the DFS path of reduce partition r under output.
func PartPath(output string, r int) string {
	return fmt.Sprintf("%s/part-%05d", output, r)
}

// ReadOutput reads and concatenates all reduce partitions of a job
// output, in partition order.
func (e *Engine) ReadOutput(output string, numReducers int) ([]kv.Pair, error) {
	var out []kv.Pair
	for r := 0; r < numReducers; r++ {
		ps, err := e.fs.ReadAllPairs(PartPath(output, r))
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// Run executes the job to completion and returns its metrics report.
func (e *Engine) Run(job Job) (*metrics.Report, error) {
	if job.Mapper == nil || (job.Reducer == nil) == (job.ReducerFactory == nil) {
		return nil, errors.New("mr: job requires Mapper and exactly one of Reducer/ReducerFactory")
	}
	if (job.Input == "" && len(job.Inputs) == 0) || job.Output == "" {
		return nil, errors.New("mr: job requires Input(s) and Output paths")
	}
	if len(job.Inputs) == 0 {
		job.Inputs = []string{job.Input}
	}
	if job.NumReducers <= 0 {
		job.NumReducers = e.cl.NumNodes()
	}

	report := &metrics.Report{}
	report.Add(metrics.CounterJobs, 1)
	report.Add(metrics.CounterStartupNS, int64(job.StartupCost))

	runID := fmt.Sprintf("%s-%06d", cluster.SafeName(job.Name), e.seq.Add(1))

	// Resolve every input into (path, block) splits: one map task each,
	// preferring the node that holds the block.
	var splits []inputSplit
	var mapNodes []int
	for _, in := range job.Inputs {
		fi, err := e.fs.Stat(in)
		if err != nil {
			return nil, fmt.Errorf("mr: job input: %w", err)
		}
		for _, b := range fi.Blocks {
			splits = append(splits, inputSplit{path: in, block: b.Index})
			mapNodes = append(mapNodes, e.cl.LocalTo(b.Nodes))
		}
	}

	err := shuffle.Iteration{
		Name:         runID,
		Partitions:   job.NumReducers,
		NumNodes:     e.cl.NumNodes(),
		RunTasks:     func(ts []cluster.Task) error { _, err := e.cl.Run(ts); return err },
		MemoryBudget: shuffleBudget,
		// The run id lives in the leaf, which the shuffle removes with
		// its spill files, so a job leaves nothing under scratch.
		ScratchDir: func(p int) string {
			return filepath.Join(e.cl.PartitionDir(p), "mr-shuffle", fmt.Sprintf("%s-part-%04d", runID, p))
		},
		Report: report,
		MapTask: func(m int, emit func(k, v string)) (int64, error) {
			recs, err := e.mapSplit(job, splits[m], emit)
			if err != nil {
				return 0, fmt.Errorf("mr: map task %d: %w", m, err)
			}
			return recs, nil
		},
		ReducePartition: func(r int, groups shuffle.GroupSource) error {
			n, err := e.reducePartition(job, r, groups)
			if err != nil {
				return fmt.Errorf("mr: reduce task %d: %w", r, err)
			}
			report.Add(metrics.CounterReduceGroups, n)
			return nil
		},
	}.Run(mapNodes)
	if err != nil {
		return nil, fmt.Errorf("mr: %w", err)
	}
	report.Add(metrics.CounterMapTasks, int64(len(splits)))
	report.Add(metrics.CounterReduceTasks, int64(job.NumReducers))
	return report, nil
}

// inputSplit is one map task's input: a block of one input file.
type inputSplit struct {
	path  string
	block int
}

// mapSplit reads one input split and applies the Mapper, passing its
// output (through the Combiner, when the job has one) to emit. It
// returns the input record count.
func (e *Engine) mapSplit(job Job, split inputSplit, emit func(k, v string)) (int64, error) {
	br, err := e.fs.OpenBlock(split.path, split.block)
	if err != nil {
		return 0, err
	}
	defer br.Close()

	var out []kv.Pair // the task's whole output, buffered only to combine it
	mapEmit := emit
	if job.Combiner != nil {
		mapEmit = func(k, v string) { out = append(out, kv.Pair{Key: k, Value: v}) }
	}
	var recs int64
	for {
		p, err := br.ReadPair()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		recs++
		if err := job.Mapper.Map(p.Key, p.Value, mapEmit); err != nil {
			return 0, err
		}
	}
	if job.Combiner != nil {
		kv.SortPairs(out)
		err := kv.GroupSorted(out, func(g kv.Group) error {
			return job.Combiner.Reduce(g.Key, g.Values, emit)
		})
		if err != nil {
			return 0, fmt.Errorf("combiner: %w", err)
		}
	}
	return recs, nil
}

// reducePartition invokes the Reducer on every group of partition r and
// commits the DFS part file, returning the group count. Any failure
// aborts the writer, so a retried attempt starts from a clean slate.
func (e *Engine) reducePartition(job Job, r int, groups shuffle.GroupSource) (int64, error) {
	reducer := job.Reducer
	if job.ReducerFactory != nil {
		reducer = job.ReducerFactory(r)
	}
	w, err := e.fs.Create(PartPath(job.Output, r))
	if err != nil {
		return 0, err
	}
	var emitErr error
	emit := func(k, v string) {
		if emitErr == nil {
			emitErr = w.WritePair(kv.Pair{Key: k, Value: v})
		}
	}
	var n int64
	err = groups(func(g kv.Group) error {
		n++
		if err := reducer.Reduce(g.Key, g.Values, emit); err != nil {
			return err
		}
		return emitErr
	})
	if err != nil {
		w.Abort()
		return 0, err
	}
	return n, w.Close()
}

// Package mr implements the vanilla MapReduce engine (paper Sec. 2)
// that everything else builds on: plain re-computation baselines run on
// it directly, the HaLoop baseline chains its two jobs per iteration
// through it, and the incremental one-step engine reuses its map phase.
//
// Execution model, mirroring Hadoop:
//
//   - one Map task per DFS input block, scheduled data-locally;
//   - each Map task partitions its output by key into R buckets, sorts
//     each bucket, optionally combines, and writes one spill file per
//     reduce partition to the executing node's local scratch dir;
//   - each Reduce task copies its spill files from every map task
//     (the shuffle), k-way merges them (the sort), groups by key, and
//     invokes Reduce, writing output to the DFS.
//
// All spill and output I/O is real disk I/O; the network hop of the
// shuffle is a byte counter ("shuffle.bytes").
package mr

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

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
	// Combiner optionally pre-aggregates map-side runs with reduce
	// semantics, like Hadoop's combiner.
	Combiner Reducer
	// NumReducers defaults to the cluster's node count.
	NumReducers int
	// Partition defaults to kv.Partition.
	Partition func(key string, n int) int
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
	if job.Partition == nil {
		job.Partition = kv.Partition
	}

	report := &metrics.Report{}
	report.Add(metrics.CounterJobs, 1)
	report.Add(metrics.CounterStartupNS, int64(job.StartupCost))

	runID := fmt.Sprintf("%s-%06d", sanitize(job.Name), e.seq.Add(1))

	// Resolve every input into (path, block) splits.
	var splitsIn []inputSplit
	for _, in := range job.Inputs {
		fi, err := e.fs.Stat(in)
		if err != nil {
			return nil, fmt.Errorf("mr: job input: %w", err)
		}
		for b := range fi.Blocks {
			splitsIn = append(splitsIn, inputSplit{path: in, block: b, nodes: fi.Blocks[b].Nodes})
		}
	}

	spills, err := e.runMapPhase(runID, job, splitsIn, report)
	if err != nil {
		return nil, err
	}
	if err := e.runReducePhase(runID, job, spills, report); err != nil {
		return nil, err
	}
	return report, nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// spillSet records where every (map task, reduce partition) spill file
// landed so reduce tasks can fetch them.
type spillSet struct {
	mu    sync.Mutex
	paths map[[2]int]string // {mapTask, reducePartition} -> path
}

func (s *spillSet) put(m, r int, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paths[[2]int{m, r}] = path
}

func (s *spillSet) get(m, r int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.paths[[2]int{m, r}]
	return p, ok
}

// inputSplit is one map task's input: a block of one input file.
type inputSplit struct {
	path  string
	block int
	nodes []int
}

func (e *Engine) runMapPhase(runID string, job Job, splits []inputSplit, report *metrics.Report) (*spillSet, error) {
	spills := &spillSet{paths: make(map[[2]int]string)}
	tasks := make([]cluster.Task, 0, len(splits))
	for m := range splits {
		m := m
		pref := -1
		if len(splits[m].nodes) > 0 {
			pref = splits[m].nodes[0] % e.cl.NumNodes()
		}
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/map-%04d", runID, m),
			Preferred: pref,
			Run: func(tc cluster.TaskContext) error {
				return e.runMapTask(runID, job, m, splits[m], tc, spills, report)
			},
		})
	}
	if _, err := e.cl.Run(tasks); err != nil {
		return nil, fmt.Errorf("mr: map phase: %w", err)
	}
	return spills, nil
}

// runMapTask reads one input split, applies the Mapper, and spills one
// sorted (optionally combined) run per reduce partition to local disk.
func (e *Engine) runMapTask(runID string, job Job, m int, split inputSplit, tc cluster.TaskContext, spills *spillSet, report *metrics.Report) error {
	start := time.Now()
	br, err := e.fs.OpenBlock(split.path, split.block)
	if err != nil {
		return err
	}
	defer br.Close()

	buckets := make([][]kv.Pair, job.NumReducers)
	emit := func(k, v string) {
		r := job.Partition(k, job.NumReducers)
		buckets[r] = append(buckets[r], kv.Pair{Key: k, Value: v})
	}
	var inRecs, outRecs int64
	for {
		p, err := br.ReadPair()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		inRecs++
		if err := job.Mapper.Map(p.Key, p.Value, emit); err != nil {
			return fmt.Errorf("mr: map task %d: %w", m, err)
		}
	}
	for _, b := range buckets {
		outRecs += int64(len(b))
	}

	dir := filepath.Join(tc.Node.ScratchDir, runID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for r := 0; r < job.NumReducers; r++ {
		run := buckets[r]
		kv.SortPairs(run)
		if job.Combiner != nil {
			combined, err := combineRun(run, job.Combiner)
			if err != nil {
				return fmt.Errorf("mr: combiner in map task %d: %w", m, err)
			}
			run = combined
		}
		path := filepath.Join(dir, fmt.Sprintf("spill-m%04d-r%04d", m, r))
		if err := writeSpill(path, tc.Attempt, run); err != nil {
			return err
		}
		spills.put(m, r, path)
	}
	report.Add(metrics.CounterMapRecordsIn, inRecs)
	report.Add(metrics.CounterMapRecordsOut, outRecs)
	report.Add(metrics.CounterMapTasks, 1)
	report.AddStage(metrics.StageMap, time.Since(start))
	return nil
}

// combineRun applies reduce semantics to a sorted run, map-side.
func combineRun(run []kv.Pair, c Reducer) ([]kv.Pair, error) {
	var out []kv.Pair
	emit := func(k, v string) { out = append(out, kv.Pair{Key: k, Value: v}) }
	err := kv.GroupSorted(run, func(g kv.Group) error {
		return c.Reduce(g.Key, g.Values, emit)
	})
	if err != nil {
		return nil, err
	}
	// Combiner output may be emitted under new keys; restore sort order
	// so downstream merging stays correct.
	kv.SortPairs(out)
	return out, nil
}

// writeSpill writes a sorted run atomically (attempt-suffixed temp file
// renamed into place) so re-executed attempts never expose torn files.
func writeSpill(path string, attempt int, run []kv.Pair) error {
	tmp := fmt.Sprintf("%s.attempt-%d", path, attempt)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := kv.EncodePairs(f, run); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	//i2vet:allow atomicwrite node-local shuffle scratch: the rename only hides torn files from re-executed attempts; spills are re-derivable, so fsync durability is deliberately skipped
	return os.Rename(tmp, path)
}

func (e *Engine) runReducePhase(runID string, job Job, spills *spillSet, report *metrics.Report) error {
	numMaps := int(report.Counter(metrics.CounterMapTasks))
	tasks := make([]cluster.Task, 0, job.NumReducers)
	for r := 0; r < job.NumReducers; r++ {
		r := r
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/reduce-%04d", runID, r),
			Preferred: r % e.cl.NumNodes(),
			Run: func(tc cluster.TaskContext) error {
				return e.runReduceTask(runID, job, r, numMaps, tc, spills, report)
			},
		})
	}
	if _, err := e.cl.Run(tasks); err != nil {
		return fmt.Errorf("mr: reduce phase: %w", err)
	}
	return nil
}

// runReduceTask shuffles the r-th spill of every map task to the local
// node, merges them, groups, reduces, and commits the DFS part file.
func (e *Engine) runReduceTask(runID string, job Job, r, numMaps int, tc cluster.TaskContext, spills *spillSet, report *metrics.Report) error {
	// Shuffle: copy each map task's r-th spill to this node.
	shuffleStart := time.Now()
	localDir := filepath.Join(tc.Node.ScratchDir, runID, fmt.Sprintf("fetch-r%04d", r))
	if err := os.MkdirAll(localDir, 0o755); err != nil {
		return err
	}
	var runPaths []string
	var shuffleBytes int64
	for m := 0; m < numMaps; m++ {
		src, ok := spills.get(m, r)
		if !ok {
			return fmt.Errorf("mr: missing spill m=%d r=%d", m, r)
		}
		dst := filepath.Join(localDir, fmt.Sprintf("run-m%04d.attempt-%d", m, tc.Attempt))
		n, err := copyFile(dst, src)
		if err != nil {
			return err
		}
		shuffleBytes += n
		runPaths = append(runPaths, dst)
	}
	report.Add(metrics.CounterShuffleBytes, shuffleBytes)
	report.AddStage(metrics.StageShuffle, time.Since(shuffleStart))

	// Sort: k-way merge of the fetched runs.
	sortStart := time.Now()
	sources := make([]kv.PairSource, 0, len(runPaths))
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range runPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		files = append(files, f)
		sources = append(sources, kv.ReaderSource{R: kv.NewReader(f)})
	}
	merger, err := kv.NewMerger(sources...)
	if err != nil {
		return err
	}
	report.AddStage(metrics.StageSort, time.Since(sortStart))

	// Reduce: group the merged stream and invoke the Reducer, writing
	// output to the DFS part file.
	reduceStart := time.Now()
	reducer := job.Reducer
	if job.ReducerFactory != nil {
		reducer = job.ReducerFactory(r)
	}
	w, err := e.fs.Create(PartPath(job.Output, r))
	if err != nil {
		return err
	}
	var emitErr error
	emit := func(k, v string) {
		if emitErr == nil {
			emitErr = w.WritePair(kv.Pair{Key: k, Value: v})
		}
	}
	var groups int64
	err = kv.GroupStream(merger, func(g kv.Group) error {
		groups++
		if err := reducer.Reduce(g.Key, g.Values, emit); err != nil {
			return err
		}
		return emitErr
	})
	if err != nil {
		return fmt.Errorf("mr: reduce task %d: %w", r, err)
	}
	if emitErr != nil {
		return emitErr
	}
	if err := w.Close(); err != nil {
		return err
	}
	report.Add(metrics.CounterReduceGroups, groups)
	report.Add(metrics.CounterReduceTasks, 1)
	report.AddStage(metrics.StageReduce, time.Since(reduceStart))
	return nil
}

func copyFile(dst, src string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if err != nil {
		out.Close()
		return n, err
	}
	return n, out.Close()
}

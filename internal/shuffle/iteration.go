package shuffle

import (
	"fmt"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

// GroupSource streams the merged, grouped intermediate data of one
// partition to a reduce callback.
type GroupSource func(yield func(g kv.Group) error) error

// Iteration describes one Map -> shuffle -> Reduce pass. It is the only
// place in the module that builds a map wave and a reduce wave: the
// vanilla engine (internal/mr), the one-step delta refresh
// (internal/incr) and the iterative engines (internal/iter,
// internal/core) all supply their callbacks here, and the runtime owns
// task construction, per-attempt staging, the lock-striped shuffle
// buffers, spilling, the streaming merge, and stage/counter accounting.
type Iteration struct {
	// Name prefixes task names, e.g. "pagerank/it003".
	Name string
	// Partitions is the reduce partition count; one reduce task runs per
	// partition.
	Partitions int
	// NumNodes sizes the cluster; partition p's reduce task prefers node
	// p % NumNodes, next to the partition's preserved state (the paper's
	// Sec. 4.3 placement).
	NumNodes int
	// RunTasks executes one task wave on the cluster (core passes its
	// event-accumulating wrapper around Cluster.Run).
	RunTasks func(tasks []cluster.Task) error
	// MemoryBudget and ScratchDir configure spilling (see Config).
	MemoryBudget int64
	ScratchDir   func(p int) string
	// SkewRatio / SkewFanOut / Combine configure hot-key skew
	// mitigation (see Config and hotkeys.go); zero values disable it.
	SkewRatio  float64
	SkewFanOut int
	Combine    func(key string, values []string) []string
	// Report receives the pass's stage timings and counters. Required.
	Report *metrics.Report
	// MapTask runs map task m: it feeds the task's input (a DFS block, a
	// structure partition) through the user Map, emitting intermediate
	// pairs, and returns the input record count ("map.records.in").
	MapTask func(m int, emit func(k2, v2 string)) (records int64, err error)
	// ReducePartition consumes partition p's grouped stream and applies
	// the engine's output policy (part file, state update, MRBG merge).
	ReducePartition func(p int, groups GroupSource) error
}

// Run executes the pass with one map task per element of mapNodes;
// mapNodes[m] is task m's preferred node (-1 for any). The task count is
// the caller's to state — a task per input block, a task per partition —
// and may be zero: an empty input still runs every reduce task. The
// intermediate data lives in a Buffer whose memory footprint is bounded
// by MemoryBudget; spill files are removed before Run returns.
func (it Iteration) Run(mapNodes []int) error {
	buf, err := New(Config{
		Partitions:   it.Partitions,
		MemoryBudget: it.MemoryBudget,
		ScratchDir:   it.ScratchDir,
		Report:       it.Report,
		SkewRatio:    it.SkewRatio,
		SkewFanOut:   it.SkewFanOut,
		Combine:      it.Combine,
	})
	if err != nil {
		return err
	}
	defer buf.Close()

	mapTasks := make([]cluster.Task, 0, len(mapNodes))
	for m := range mapNodes {
		m := m
		mapTasks = append(mapTasks, cluster.Task{
			Name:      fmt.Sprintf("%s/map-%04d", it.Name, m),
			Preferred: mapNodes[m],
			Run: func(tc cluster.TaskContext) error {
				start := time.Now()
				// Stage through a per-attempt Emitter: a failed attempt
				// publishes nothing, so the cluster's retry cannot
				// duplicate intermediate pairs.
				em := buf.NewEmitter()
				recs, err := it.MapTask(m, em.Emit)
				if err != nil {
					em.Discard()
					return err
				}
				if err := em.Publish(); err != nil {
					return err
				}
				it.Report.Add(metrics.CounterMapRecordsIn, recs)
				it.Report.AddStage(metrics.StageMap, time.Since(start))
				return nil
			},
		})
	}
	if err := it.RunTasks(mapTasks); err != nil {
		return fmt.Errorf("map phase: %w", err)
	}
	if err := buf.FinishMap(); err != nil {
		return fmt.Errorf("map spill: %w", err)
	}
	// Spill sorting happened inside the timed map windows but is
	// reported as StageSort; rebalance so Total() counts it once.
	mapSort := buf.SortDuration()
	it.Report.AddStage(metrics.StageMap, -mapSort)

	// The network hop of the shuffle is accounted, not performed: spill
	// runs are already written to the consuming partition's node-local
	// scratch.
	shuffleStart := time.Now()
	it.Report.Add(metrics.CounterShuffleBytes, buf.Bytes())
	it.Report.Add(metrics.CounterMapRecordsOut, buf.Records())
	it.Report.AddStage(metrics.StageShuffle, time.Since(shuffleStart))

	reduceTasks := make([]cluster.Task, 0, it.Partitions)
	for p := 0; p < it.Partitions; p++ {
		p := p
		reduceTasks = append(reduceTasks, cluster.Task{
			Name:      fmt.Sprintf("%s/reduce-%04d", it.Name, p),
			Preferred: p % it.NumNodes,
			Run: func(tc cluster.TaskContext) error {
				start := time.Now()
				err := it.ReducePartition(p, func(yield func(g kv.Group) error) error {
					return buf.Reduce(p, yield)
				})
				if err != nil {
					return err
				}
				it.Report.AddStage(metrics.StageReduce, time.Since(start))
				return nil
			},
		})
	}
	if err := it.RunTasks(reduceTasks); err != nil {
		return fmt.Errorf("reduce phase: %w", err)
	}
	// Same rebalance for the residue sorts inside reduce windows.
	it.Report.AddStage(metrics.StageReduce, -(buf.SortDuration() - mapSort))
	return nil
}

package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
)

// RunIncremental executes job A_i: refresh the computation from a
// delta structure input (a DFS delta file of <SK, SV, '+'/'-'>
// records), starting from the previous job's converged state
// (Sec. 5.1).
//
// Iteration 1's delta input is the delta structure data; from iteration
// 2 on, the delta input is the delta state data — the kv-pairs whose
// change exceeded the propagation threshold. Each iteration runs as an
// incremental one-step job against the preserved MRBGraph. When the
// changed fraction P_delta exceeds Config.PDeltaThreshold, MRBGraph
// maintenance turns off and the job falls back to full iterative
// passes from the current state (Sec. 5.2).
func (r *Runner) RunIncremental(deltaInput string) (*Result, error) {
	return r.runRefresh(deltaInput, r.runIncrementalBody)
}

// RunIncrementalFull is the planner's recompute arm: it applies the
// structure delta and then recomputes the fixed point with full
// iterative passes, ignoring the preserved MRBGraph while running but
// re-syncing it afterwards (preserve pass + CPC baseline reset) so
// later RunIncremental refreshes can use it again. Same crash bracket
// and durability as RunIncremental.
func (r *Runner) RunIncrementalFull(deltaInput string) (*Result, error) {
	return r.runRefresh(deltaInput, r.runFullRefreshBody)
}

// runRefresh is the shared refresh prologue + intent bracket around one
// of the two refresh bodies.
func (r *Runner) runRefresh(deltaInput string, body func([]kv.Delta, *Result) error) (*Result, error) {
	if !r.initialDone {
		return nil, errors.New("core: RunIncremental before RunInitial")
	}
	if r.refreshFailed {
		return nil, fmt.Errorf("core: a previous refresh of %q failed mid-way, leaving this runner's state half-applied; it cannot be retried in place — recover in a fresh process (Open refuses the surviving refresh marker)", r.spec.Name)
	}
	r.jobStart = time.Now()
	r.events = nil
	r.jobSeq++
	_, r.compactBase = r.stateStoreStats()

	// Refresh barrier: background compaction must not compete with the
	// refresh's own I/O. Pause waits out any in-flight merge; triggers
	// that fire during the refresh stay queued until Resume.
	r.sched.Pause()
	defer r.sched.Resume()

	deltas, err := r.eng.FS().ReadAllDeltas(deltaInput)
	if err != nil {
		return nil, fmt.Errorf("core: delta input: %w", err)
	}

	res := &Result{Report: &metrics.Report{}}
	res.Report.Add(metrics.CounterDeltaRecords, int64(len(deltas)))

	// The refresh-intent bracket: the marker is durably written before
	// the first mutation of the preserved state (structure files, state
	// stores, MRBG-Stores) and removed only after the completion flush
	// below. A crash anywhere in between leaves stores at inconsistent
	// iterations, and Open refuses to resume while the marker survives.
	if err := r.markRefreshIntent(0); err != nil {
		return nil, err
	}
	// Any failure past the marker leaves the preserved state half-
	// mutated (the structure delta is not re-appliable, merged MRBG
	// edges are not re-mergeable), so the runner is latched: further
	// refreshes on it are refused, exactly as Open refuses the
	// surviving marker after a process death.
	if err := r.runRefreshBracketed(body, deltas, res); err != nil {
		r.refreshFailed = true
		return nil, err
	}
	r.finishResult(res)
	return res, nil
}

// runRefreshBracketed is everything between writing and clearing the
// refresh-intent marker.
func (r *Runner) runRefreshBracketed(body func([]kv.Delta, *Result) error, deltas []kv.Delta, res *Result) error {
	if err := body(deltas, res); err != nil {
		return err
	}
	if err := r.checkpoint(res.Report); err != nil {
		return err
	}
	if err := r.writeJobMeta(); err != nil {
		return err
	}
	return r.clearRefreshIntent()
}

// runIncrementalBody executes the refresh's iterations inside the
// intent bracket RunIncremental maintains.
func (r *Runner) runIncrementalBody(deltas []kv.Delta, res *Result) error {
	// Replicated-state or MRBG-off computations process the delta by
	// re-running full iterations from the converged state (the paper's
	// Kmeans path: "it is better to only use iterative processing
	// engine without using MRBGraph").
	if !r.mrbgOn {
		if err := r.applyStructureDelta(deltas); err != nil {
			return err
		}
		return r.runFullLoop(res, 1)
	}

	// Iteration 1: incremental Map over the delta structure data
	// produces the delta MRBGraph (insertions for '+', deletion markers
	// for '-'), exactly Fig. 3's flow.
	deltaEdges, err := r.mapStructureDelta(deltas, res.Report)
	if err != nil {
		return err
	}
	if err := r.applyStructureDelta(deltas); err != nil {
		return err
	}

	for it := 1; it <= r.cfg.MaxIterations; it++ {
		// With per-iteration checkpointing on, refresh the marker so a
		// refusal after a crash can say which iteration died; without
		// it the single bracket write at RunIncremental start already
		// provides the crash-safety and the rewrite would be a pure
		// extra fsync in the hot loop.
		if r.cfg.Checkpoint {
			if err := r.markRefreshIntent(it); err != nil {
				return err
			}
		}
		stats, props, err := r.runIncrementalIteration(it, deltaEdges)
		if err != nil {
			return err
		}
		stats.MRBGOn = true
		res.PerIter = append(res.PerIter, stats)
		res.Iterations = it

		if r.cfg.Checkpoint {
			if err := r.checkpoint(res.Report); err != nil {
				return err
			}
		}

		total := r.StateKeyCount()
		if total > 0 && float64(stats.Propagated)/float64(total) > r.cfg.PDeltaThreshold {
			// P_delta exceeded: MRBGraph maintenance is costing more
			// than it saves. Turn it off and finish with full passes.
			r.mrbgOn = false
			res.MRBGDisabledAt = it
			res.Report.Add(metrics.CounterMRBGDisabled, 1)
			if err := r.runFullLoop(res, it+1); err != nil {
				return err
			}
			// Re-sync the preserved MRBGraph with the new fixed point
			// so the next incremental job can use it again.
			r.mrbgOn = true
			if err := r.preservePass(); err != nil {
				return err
			}
			r.resetLastEmitted()
			break
		}

		if stats.Propagated == 0 {
			res.Converged = true
			break
		}
		// Iterations >= 2: the delta input is the delta state data.
		deltaEdges, err = r.mapStateDelta(props, res.Report)
		if err != nil {
			return err
		}
	}
	if len(res.PerIter) > 0 && res.PerIter[len(res.PerIter)-1].Propagated == 0 {
		res.Converged = true
	}
	return nil
}

// runFullRefreshBody is RunIncrementalFull's body: delta-merge the
// preserved MRBGraph for its deletion semantics (vanished K2s drop
// their chunks and state) without re-reducing anything, then recompute
// the fixed point with full passes and re-sync the graph.
func (r *Runner) runFullRefreshBody(deltas []kv.Delta, res *Result) error {
	if !r.mrbgOn {
		// MRBG-off runners recompute exactly as their RunIncremental
		// does; there is no preserved graph to maintain.
		if err := r.applyStructureDelta(deltas); err != nil {
			return err
		}
		return r.runFullLoop(res, 1)
	}
	deltaEdges, err := r.mapStructureDelta(deltas, res.Report)
	if err != nil {
		return err
	}
	if err := r.applyStructureDelta(deltas); err != nil {
		return err
	}
	if err := r.mergeDeltaEdges(deltaEdges); err != nil {
		return err
	}
	r.mrbgOn = false
	err = r.runFullLoop(res, 1)
	r.mrbgOn = true
	if err != nil {
		return err
	}
	if err := r.preservePass(); err != nil {
		return err
	}
	r.resetLastEmitted()
	return nil
}

// mergeDeltaEdges folds a delta MRBGraph into the stores for its
// structural effects only: deleted edges cancel, and a K2 whose chunk
// empties is removed along with its state and CPC baseline. No reduce
// runs — the full passes that follow recompute every value anyway.
func (r *Runner) mergeDeltaEdges(deltaEdges [][]mrbg.DeltaEdge) error {
	tasks := make([]cluster.Task, 0, r.n)
	for p := 0; p < r.n; p++ {
		p := p
		if len(deltaEdges[p]) == 0 {
			continue
		}
		slices.SortStableFunc(deltaEdges[p], func(a, b mrbg.DeltaEdge) int { return strings.Compare(a.Key, b.Key) })
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/j%d-fullmerge-%04d", cluster.SafeName(r.spec.Name), r.jobSeq, p),
			Preferred: p % r.eng.Cluster().NumNodes(),
			Run: func(tc cluster.TaskContext) error {
				return r.stores[p].Merge(deltaEdges[p], func(res mrbg.MergeResult) error {
					if res.Removed {
						r.mu.Lock()
						r.deleteStateLocked(p, res.Key)
						r.deleteLastLocked(p, res.Key)
						r.mu.Unlock()
					}
					return nil
				})
			},
		})
	}
	if err := r.runTasks(tasks); err != nil {
		return fmt.Errorf("core: full-refresh delta merge: %w", err)
	}
	return nil
}

// runFullLoop iterates full passes until convergence, appending stats.
func (r *Runner) runFullLoop(res *Result, firstIt int) error {
	for it := firstIt; it <= firstIt+r.cfg.MaxIterations-1; it++ {
		stats, err := r.runFullIteration(it)
		if err != nil {
			return err
		}
		stats.MRBGOn = false
		res.PerIter = append(res.PerIter, stats)
		res.Iterations = it
		if r.cfg.Checkpoint {
			if err := r.checkpoint(res.Report); err != nil {
				return err
			}
		}
		if stats.Propagated == 0 {
			res.Converged = true
			return nil
		}
	}
	return nil
}

// applyStructureDelta merges the delta into the cached structure
// partitions and registers state keys for newly appearing DKs.
func (r *Runner) applyStructureDelta(deltas []kv.Delta) error {
	project := r.spec.Project
	if r.spec.ReplicateState {
		project = nil
	}
	byPart := make([][]kv.Delta, r.n)
	for _, d := range deltas {
		p := r.partitionOf(d.Key)
		byPart[p] = append(byPart[p], d)
	}
	for p := 0; p < r.n; p++ {
		if len(byPart[p]) == 0 {
			continue
		}
		sp, err := r.parts[p].applyDelta(byPart[p], project)
		if err != nil {
			return err
		}
		r.parts[p] = sp
		if r.spec.ReplicateState {
			continue
		}
		r.mu.Lock()
		for dk := range sp.spans {
			if _, ok := r.state[p][dk]; !ok {
				r.setStateLocked(p, dk, r.spec.InitState(dk))
			}
		}
		r.mu.Unlock()
	}
	return nil
}

// mapStructureDelta performs the incremental Map over delta structure
// records: '+' records yield edge insertions, '-' records regenerate
// and mark their original edges deleted (Sec. 3.3 applied to iteration
// 1 of an incremental iterative job).
func (r *Runner) mapStructureDelta(deltas []kv.Delta, rep *metrics.Report) ([][]mrbg.DeltaEdge, error) {
	start := time.Now()
	byPart := make([][]kv.Delta, r.n)
	for _, d := range deltas {
		byPart[r.partitionOf(d.Key)] = append(byPart[r.partitionOf(d.Key)], d)
	}
	edges := make([][]mrbg.DeltaEdge, r.n)
	// Striped per destination, like preservePass: map tasks append into
	// every destination partition, so one mutex over all of edges would
	// serialize the tasks' merge phases against each other.
	edgeMu := make([]sync.Mutex, r.n)
	tasks := make([]cluster.Task, 0, r.n)
	for p := 0; p < r.n; p++ {
		p := p
		if len(byPart[p]) == 0 {
			continue
		}
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/j%d-it001/deltamap-%04d", cluster.SafeName(r.spec.Name), r.jobSeq, p),
			Preferred: p % r.eng.Cluster().NumNodes(),
			Run: func(tc cluster.TaskContext) error {
				local := make([][]mrbg.DeltaEdge, r.n)
				for _, d := range byPart[p] {
					dk := r.spec.Project(d.Key)
					dv := r.stateOrInit(p, dk)
					del := d.Op == kv.OpDelete
					if err := r.mapToEdges(d.Key, d.Value, dk, dv, del, local); err != nil {
						return err
					}
				}
				for i := range local {
					if len(local[i]) == 0 {
						continue
					}
					edgeMu[i].Lock()
					edges[i] = append(edges[i], local[i]...)
					edgeMu[i].Unlock()
				}
				return nil
			},
		})
	}
	if err := r.runTasks(tasks); err != nil {
		return nil, fmt.Errorf("core: delta structure map: %w", err)
	}
	var n int64
	for _, e := range edges {
		n += int64(len(e))
	}
	rep.Add(metrics.CounterDeltaEdges, n)
	rep.AddStage(metrics.StageMap, time.Since(start))
	return edges, nil
}

// propagated carries one iteration's delta state data: the DKs (with
// their newly propagated values) that feed the next iteration's Map.
type propagated struct {
	byPart []map[string]string
	count  int
}

// mapStateDelta performs the selective incremental Map for iterations
// >= 2: only structure records whose projected state key changed are
// re-mapped, located through the span index rather than a full scan.
func (r *Runner) mapStateDelta(props *propagated, rep *metrics.Report) ([][]mrbg.DeltaEdge, error) {
	start := time.Now()
	edges := make([][]mrbg.DeltaEdge, r.n)
	edgeMu := make([]sync.Mutex, r.n)
	tasks := make([]cluster.Task, 0, r.n)
	for p := 0; p < r.n; p++ {
		p := p
		if len(props.byPart[p]) == 0 {
			continue
		}
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/j%d-statemap-%04d", cluster.SafeName(r.spec.Name), r.jobSeq, p),
			Preferred: p % r.eng.Cluster().NumNodes(),
			Run: func(tc cluster.TaskContext) error {
				dks := make([]string, 0, len(props.byPart[p]))
				for dk := range props.byPart[p] {
					dks = append(dks, dk)
				}
				sort.Strings(dks)
				local := make([][]mrbg.DeltaEdge, r.n)
				var recs int64
				bytesRead, err := r.parts[p].readDKsSorted(dks, func(dk string, pr kv.Pair) error {
					recs++
					return r.mapToEdges(pr.Key, pr.Value, dk, props.byPart[p][dk], false, local)
				})
				if err != nil {
					return err
				}
				for i := range local {
					if len(local[i]) == 0 {
						continue
					}
					edgeMu[i].Lock()
					edges[i] = append(edges[i], local[i]...)
					edgeMu[i].Unlock()
				}
				rep.Add(metrics.CounterMapRecordsIn, recs)
				rep.Add(metrics.CounterStructureBytesRead, bytesRead)
				return nil
			},
		})
	}
	if err := r.runTasks(tasks); err != nil {
		return nil, fmt.Errorf("core: delta state map: %w", err)
	}
	rep.AddStage(metrics.StageMap, time.Since(start))
	return edges, nil
}

// runIncrementalIteration merges one delta MRBGraph into the stores and
// re-reduces affected K2s, applying change propagation control to
// decide which updated state kv-pairs feed the next iteration.
func (r *Runner) runIncrementalIteration(it int, deltaEdges [][]mrbg.DeltaEdge) (IterStats, *propagated, error) {
	start := time.Now()
	rep := &metrics.Report{}

	// Shuffle/sort accounting for the delta edges.
	sortStart := time.Now()
	var shuffleBytes int64
	for p := range deltaEdges {
		slices.SortStableFunc(deltaEdges[p], func(a, b mrbg.DeltaEdge) int { return strings.Compare(a.Key, b.Key) })
		for _, d := range deltaEdges[p] {
			shuffleBytes += int64(len(d.Key) + len(d.V2) + 9)
		}
	}
	rep.Add(metrics.CounterShuffleBytes, shuffleBytes)
	rep.AddStage(metrics.StageSort, time.Since(sortStart))

	props := &propagated{byPart: make([]map[string]string, r.n)}
	for p := range props.byPart {
		props.byPart[p] = make(map[string]string)
	}
	thr := r.threshold()
	var totalProp, totalFilt, totalRemoved int
	var mu sync.Mutex

	tasks := make([]cluster.Task, 0, r.n)
	for p := 0; p < r.n; p++ {
		p := p
		tasks = append(tasks, cluster.Task{
			Name:      fmt.Sprintf("%s/j%d-it%03d/reduce-%04d", cluster.SafeName(r.spec.Name), r.jobSeq, it, p),
			Preferred: p % r.eng.Cluster().NumNodes(),
			Run: func(tc cluster.TaskContext) error {
				t0 := time.Now()
				getter := r.stateGetterFor(p)
				nProp, nFilt, nRem := 0, 0, 0
				var reduced int64
				err := r.stores[p].Merge(deltaEdges[p], func(res mrbg.MergeResult) error {
					if res.Removed {
						r.mu.Lock()
						r.deleteStateLocked(p, res.Key)
						r.deleteLastLocked(p, res.Key)
						r.mu.Unlock()
						nRem++
						return nil
					}
					var newDV string
					var emitErr error
					emitted := false
					err := r.spec.Reduce(res.Key, res.Values, getter, func(dk, dv string) {
						switch {
						case emitted:
							emitErr = fmt.Errorf("core: reduce for %q emitted more than one state update", res.Key)
						case dk != res.Key:
							emitErr = fmt.Errorf("core: reduce for %q emitted state key %q; incremental reduce must update its own key", res.Key, dk)
						default:
							newDV, emitted = dv, true
						}
					})
					if err != nil {
						return err
					}
					if emitErr != nil {
						return emitErr
					}
					reduced++
					if !emitted {
						return nil // reduce chose not to update (e.g. SSSP no improvement)
					}
					r.mu.Lock()
					r.setStateLocked(p, res.Key, newDV)
					base, had := r.last[p][res.Key]
					var diff float64
					if had {
						diff = r.spec.Difference(base, newDV)
					}
					if !had || diff > thr {
						r.setLastLocked(p, res.Key, newDV)
						props.byPart[p][res.Key] = newDV
						nProp++
					} else {
						nFilt++
					}
					r.mu.Unlock()
					return nil
				})
				if err != nil {
					return err
				}
				rep.Add(metrics.CounterReduceInstances, reduced)
				rep.AddStage(metrics.StageReduce, time.Since(t0))
				mu.Lock()
				totalProp += nProp
				totalFilt += nFilt
				totalRemoved += nRem
				mu.Unlock()
				return nil
			},
		})
	}
	if err := r.runTasks(tasks); err != nil {
		return IterStats{}, nil, fmt.Errorf("core: incremental reduce (iteration %d): %w", it, err)
	}
	props.count = totalProp

	return IterStats{
		Iteration:  it,
		Propagated: totalProp,
		Filtered:   totalFilt,
		Removed:    totalRemoved,
		Duration:   time.Since(start),
		Stages:     rep.Snapshot(),
	}, props, nil
}

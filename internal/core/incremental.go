package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/par"
	"i2mapreduce/internal/shuffle"
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
	storesBefore := mrbg.Totals(r.stores)

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
	// The refresh has committed; what follows is upkeep of consistent
	// state, outside the bracket and outside every iteration loop.
	if err := r.compactStores(res.Report); err != nil {
		return nil, err
	}
	mrbg.Totals(r.stores).ReportSince(res.Report, storesBefore)
	r.finishResult(res)
	return res, nil
}

// compactStores runs the MRBG-Stores' due compactions (mrbg package
// comment): inline, or handed to the scheduler under
// Config.BackgroundCompaction. A store's compaction is its own atomic
// commit, so a crash here costs nothing but the reclaimed space.
func (r *Runner) compactStores(rep *metrics.Report) error {
	if r.noCompact {
		return nil
	}
	return rep.TimeStage(metrics.StageCheckpoint, func() error {
		return par.Do(len(r.stores), r.ioPar, func(p int) error { return r.sched.Offer(r.stores[p]) })
	})
}

// runRefreshBracketed is everything between writing and clearing the
// refresh-intent marker.
func (r *Runner) runRefreshBracketed(body func([]kv.Delta, *Result) error, deltas []kv.Delta, res *Result) error {
	if err := r.applyStructureDelta(deltas); err != nil {
		return err
	}
	var err error
	if r.mrbgOn {
		err = body(deltas, res)
	} else {
		// Replicated-state or MRBG-off computations re-run full iterations
		// from the converged state (the paper's Kmeans path: "it is better
		// to only use iterative processing engine without using
		// MRBGraph"), whichever refresh was asked for.
		err = r.runFullLoop(res, 1)
	}
	if err != nil {
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
// intent bracket RunIncremental maintains, the structure delta already
// applied.
func (r *Runner) runIncrementalBody(deltas []kv.Delta, res *Result) error {
	// Iteration 1's delta input is the delta structure data (insertions
	// for '+', deletion markers for '-', exactly Fig. 3's flow); from
	// iteration 2 on it is the delta state data, the keys the previous
	// iteration propagated.
	parts, mapPart := r.structureDeltaMap(deltas)
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
		stats, props, err := r.runIncrementalIteration(it, parts, mapPart, res.Report)
		if err != nil {
			return err
		}
		if it == 1 {
			// Every record the delta-structure Map emitted is one delta
			// MRBGraph edge.
			res.Report.Add(metrics.CounterDeltaEdges, stats.Stages.Counters[metrics.CounterMapRecordsOut])
		}
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
			if err := r.preservePass(res.Report); err != nil {
				return err
			}
			r.resetLastEmitted()
			break
		}

		if stats.Propagated == 0 {
			res.Converged = true
			break
		}
		parts, mapPart = r.stateDeltaMap(props, res.Report)
	}
	return nil
}

// runFullRefreshBody is RunIncrementalFull's body: delta-merge the
// preserved MRBGraph for its deletion semantics (vanished K2s drop
// their chunks and state) without re-reducing anything, then recompute
// the fixed point with full passes and re-sync the graph.
func (r *Runner) runFullRefreshBody(deltas []kv.Delta, res *Result) error {
	if err := r.mergeStructureDelta(deltas, res.Report); err != nil {
		return err
	}
	r.mrbgOn = false
	err := r.runFullLoop(res, 1)
	r.mrbgOn = true
	if err != nil {
		return err
	}
	if err := r.preservePass(res.Report); err != nil {
		return err
	}
	r.resetLastEmitted()
	return nil
}

// mergeStructureDelta folds the delta structure data's MRBGraph into the
// stores for its structural effects only: deleted edges cancel, and a K2
// whose chunk empties is removed along with its state and CPC baseline.
// No reduce runs — the full passes that follow recompute every value
// anyway. The removals are idempotent, so they apply as they arrive.
func (r *Runner) mergeStructureDelta(deltas []kv.Delta, job *metrics.Report) error {
	rep := &metrics.Report{}
	parts, mapPart := r.structureDeltaMap(deltas)
	err := r.runPass("merge", rep, parts, mapPart, func(p int, groups shuffle.GroupSource) error {
		return r.stores[p].MergeGroups(groups, shuffle.PartitionShare(r.cfg.ShuffleMemoryBudget, r.n), func(res mrbg.MergeResult) error {
			if res.Removed {
				r.mu.Lock()
				r.deleteStateLocked(p, res.Key)
				r.deleteLastLocked(p, res.Key)
				r.mu.Unlock()
			}
			return nil
		})
	})
	job.Merge(rep)
	job.Add(metrics.CounterDeltaEdges, rep.Counter(metrics.CounterMapRecordsOut))
	return err
}

// runFullLoop iterates full passes until convergence, appending stats.
func (r *Runner) runFullLoop(res *Result, firstIt int) error {
	for it := firstIt; it <= firstIt+r.cfg.MaxIterations-1; it++ {
		stats, err := r.runFullIteration(it, res.Report)
		if err != nil {
			return err
		}
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

// structureDeltaMap is the map side of a pass over the delta structure
// data: '+' records yield edge insertions, '-' records regenerate and
// mark their original edges deleted (Sec. 3.3 applied to iteration 1).
// One map task per partition the delta touches; a record's position in
// the delta is its edges' seq, so records touching one (K2, MK) apply in
// delta-file order at any budget.
func (r *Runner) structureDeltaMap(deltas []kv.Delta) ([]int, func(p int, emit func(k2, v2 string)) (int64, error)) {
	byPart := make([][]int, r.n)
	var parts []int
	for i, d := range deltas {
		p := r.partitionOf(d.Key)
		if byPart[p] == nil {
			parts = append(parts, p)
		}
		byPart[p] = append(byPart[p], i)
	}
	slices.Sort(parts)
	return parts, func(p int, emit func(k2, v2 string)) (int64, error) {
		for _, i := range byPart[p] {
			d := deltas[i]
			if err := r.mapEdges(p, d.Key, d.Value, uint64(i), d.Op == kv.OpDelete, emit); err != nil {
				return 0, err
			}
		}
		return int64(len(byPart[p])), nil
	}
}

// stateDeltaMap is the map side of iterations >= 2: only structure
// records whose projected state key propagated a change are re-mapped,
// located through the span index rather than a full scan, and only
// partitions holding such keys get a map task. dks[p] is partition p's
// propagated state keys, sorted; their new values are already in state.
func (r *Runner) stateDeltaMap(dks [][]string, job *metrics.Report) ([]int, func(p int, emit func(k2, v2 string)) (int64, error)) {
	var parts []int
	for p := range dks {
		if len(dks[p]) > 0 {
			parts = append(parts, p)
		}
	}
	return parts, func(p int, emit func(k2, v2 string)) (int64, error) {
		var recs int64
		bytesRead, err := r.parts[p].readDKsSorted(dks[p], func(_ string, pr kv.Pair) error {
			recs++
			return r.mapEdges(p, pr.Key, pr.Value, 0, false, emit)
		})
		if err == nil {
			job.Add(metrics.CounterStructureBytesRead, bytesRead)
		}
		return recs, err
	}
}

// staged is what one affected K2's incremental reduce decided. A reduce
// attempt only records decisions; they touch the state, the CPC baseline
// and the propagation set once the whole reduce wave has committed — the
// reduce-side twin of the shuffle's per-attempt Emitter. Applied as they
// arrive, a retried attempt would measure the keys it had already
// handled against its own new baseline and drop their propagation.
type staged struct {
	dv                  string
	removed, propagated bool
}

// runIncrementalIteration runs one iteration as an incremental one-step
// job against the preserved MRBGraph: the delta input's Map emits the
// delta MRBGraph, each partition merges its share into the store and
// re-reduces the affected K2s, and change propagation control decides
// which updated state keys feed the next iteration (returned sorted).
func (r *Runner) runIncrementalIteration(it int, parts []int, mapPart func(p int, emit func(k2, v2 string)) (int64, error), job *metrics.Report) (IterStats, [][]string, error) {
	start := time.Now()
	rep := &metrics.Report{}
	thr := r.threshold()
	// Keyed by K2, so a retried attempt overwrites its predecessor's
	// decisions and keeps the removals of already committed batches.
	stage := make([]map[string]staged, r.n)
	for p := range stage {
		stage[p] = make(map[string]staged)
	}

	err := r.runPass(fmt.Sprintf("it%03d", it), rep, parts, mapPart, func(p int, groups shuffle.GroupSource) error {
		getter := r.stateGetterFor(p)
		var reduced int64
		err := r.stores[p].MergeGroups(groups, shuffle.PartitionShare(r.cfg.ShuffleMemoryBudget, r.n), func(res mrbg.MergeResult) error {
			if res.Removed {
				stage[p][res.Key] = staged{removed: true}
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
			base, had := r.last[p][res.Key] // nothing writes the baseline during the wave
			stage[p][res.Key] = staged{dv: newDV, propagated: !had || r.spec.Difference(base, newDV) > thr}
			return nil
		})
		if err == nil {
			rep.Add(metrics.CounterReduceInstances, reduced)
		}
		return err
	})
	if err != nil {
		return IterStats{}, nil, err
	}

	stats := IterStats{Iteration: it, MRBGOn: true}
	props := make([][]string, r.n)
	r.mu.Lock()
	for p := range stage {
		for k, u := range stage[p] {
			switch {
			case u.removed:
				r.deleteStateLocked(p, k)
				r.deleteLastLocked(p, k)
				stats.Removed++
			case u.propagated:
				r.setStateLocked(p, k, u.dv)
				r.setLastLocked(p, k, u.dv)
				props[p] = append(props[p], k)
				stats.Propagated++
			default:
				r.setStateLocked(p, k, u.dv)
				stats.Filtered++
			}
		}
		slices.Sort(props[p])
	}
	r.mu.Unlock()

	job.Merge(rep)
	stats.Duration = time.Since(start)
	stats.Stages = rep.Snapshot()
	return stats, props, nil
}

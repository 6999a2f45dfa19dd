package core

// Durable state layer of the incremental iterative engine.
//
// Every loop-variant quantity the engine used to hold only in memory —
// the per-partition state data, the CPC "last propagated" baselines
// (Sec. 5.3), and the replicated global state of ReplicateState specs —
// is backed by a results.KV: a per-partition durable key-value store
// built on the same memtable + sorted-segment + tombstone +
// atomic-manifest machinery as the one-step engine's result store. The
// in-memory maps remain as a write-through cache (reads never touch
// disk on the hot path); mutations additionally land in the KV
// memtable, and a checkpoint flushes only the entries that actually
// changed — the dirty groups — instead of rewriting full state files.
//
// Job boundaries are stamped by a job.meta completion marker (written
// when RunInitial finishes, refreshed after every completed refresh)
// and refreshes are bracketed by a refresh.intent marker. Open
// reattaches a Runner to this durable state after process death:
// preserved MRBG-Stores and state stores recover from their own
// manifests, the node-local structure files are re-indexed, and the
// next RunIncremental continues the computation. A surviving intent
// marker means the previous process died mid-refresh with the durable
// stores at inconsistent iterations; Open refuses such state rather
// than resuming it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/par"
	"i2mapreduce/internal/results"
)

// Job meta mode strings.
const (
	modePartitioned = "partitioned"
	modeReplicated  = "replicated"
)

// stateRoot is the computation's durable-state directory on the node
// hosting partition p. Partition 0's is under node 0's scratch dir,
// which exists at any cluster size: the runner-level files live there.
func (r *Runner) stateRoot(p int) string {
	return filepath.Join(r.eng.Cluster().PartitionDir(p), "core-state", cluster.SafeName(r.spec.Name))
}

// stateKVDir names partition p's durable store of the given kind
// ("state" or "last"), co-located with the node that runs the
// partition's reduce tasks.
func (r *Runner) stateKVDir(p int, kind string) string {
	return filepath.Join(r.stateRoot(p), fmt.Sprintf("part-%04d", p), kind)
}

// globalKVDir names the replicated-state store (ReplicateState specs).
func (r *Runner) globalKVDir() string { return filepath.Join(r.stateRoot(0), "global") }

// jobMetaPath names the runner-level completion marker.
func (r *Runner) jobMetaPath() string { return filepath.Join(r.stateRoot(0), "job.meta") }

// refreshIntentPath names the in-progress refresh marker bracketing
// every RunIncremental (see RunIncremental's checkpoint bracket).
func (r *Runner) refreshIntentPath() string { return filepath.Join(r.stateRoot(0), "refresh.intent") }

// storeOpts returns partition p's MRBG-Store options.
func (r *Runner) storeOpts(p int) mrbg.Options {
	opts := r.cfg.StoreOpts
	opts.Dir = filepath.Join(r.eng.Cluster().PartitionDir(p), "core-mrbg", cluster.SafeName(r.spec.Name), fmt.Sprintf("part-%04d", p))
	return opts
}

// openStateStores opens (or recovers) the durable state stores,
// fanning out across partitions at Config.IOParallelism. Each opened
// store is attached to the background compaction scheduler when one is
// configured.
func (r *Runner) openStateStores() error {
	opts := results.Options{
		CompactThreshold: r.cfg.StateCompactThreshold,
		BlockBytes:       r.cfg.SegmentBlockBytes,
		Compression:      r.cfg.SegmentCompression,
		BloomBitsPerKey:  r.cfg.BloomBitsPerKey,
	}
	if r.spec.ReplicateState {
		opts.Dir = r.globalKVDir()
		g, err := results.OpenKV(opts)
		if err != nil {
			return fmt.Errorf("core: opening global state store: %w", err)
		}
		g.AttachScheduler(r.sched)
		r.globalKV = g
		return nil
	}
	r.stateKV = make([]*results.KV, r.n)
	r.lastKV = make([]*results.KV, r.n)
	return par.Do(r.n, r.ioPar, func(p int) error {
		sopts := opts
		sopts.Dir = r.stateKVDir(p, "state")
		skv, err := results.OpenKV(sopts)
		if err != nil {
			return fmt.Errorf("core: opening state store %d: %w", p, err)
		}
		skv.AttachScheduler(r.sched)
		r.stateKV[p] = skv
		lopts := opts
		lopts.Dir = r.stateKVDir(p, "last")
		lkv, err := results.OpenKV(lopts)
		if err != nil {
			return fmt.Errorf("core: opening baseline store %d: %w", p, err)
		}
		lkv.AttachScheduler(r.sched)
		r.lastKV[p] = lkv
		return nil
	})
}

// setStateLocked updates partition p's state entry in the cache and the
// durable store's memtable. Callers hold r.mu. An unchanged value is a
// no-op so clean entries never dirty a checkpoint.
func (r *Runner) setStateLocked(p int, dk, dv string) {
	if cur, ok := r.state[p][dk]; ok && cur == dv {
		return
	}
	r.state[p][dk] = dv
	r.stateKV[p].Put(dk, dv)
}

// deleteStateLocked removes partition p's state entry (tombstoned in
// the durable store). Callers hold r.mu.
func (r *Runner) deleteStateLocked(p int, dk string) {
	if _, ok := r.state[p][dk]; !ok {
		return
	}
	delete(r.state[p], dk)
	r.stateKV[p].Delete(dk)
}

// setLastLocked updates partition p's CPC baseline entry. Callers hold
// r.mu.
func (r *Runner) setLastLocked(p int, dk, dv string) {
	if cur, ok := r.last[p][dk]; ok && cur == dv {
		return
	}
	r.last[p][dk] = dv
	r.lastKV[p].Put(dk, dv)
}

// deleteLastLocked removes partition p's CPC baseline entry. Callers
// hold r.mu.
func (r *Runner) deleteLastLocked(p int, dk string) {
	if _, ok := r.last[p][dk]; !ok {
		return
	}
	delete(r.last[p], dk)
	r.lastKV[p].Delete(dk)
}

// setGlobal replaces the replicated state with next, recording the
// per-key differences in the durable global store.
func (r *Runner) setGlobal(next map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.global {
		if _, ok := next[k]; !ok {
			r.globalKV.Delete(k)
		}
	}
	for k, v := range next {
		if cur, ok := r.global[k]; !ok || cur != v {
			r.globalKV.Put(k, v)
		}
	}
	r.global = next
}

// stateStoreStats sums segment counts and cumulative compactions across
// the durable state stores.
func (r *Runner) stateStoreStats() (segments, compactions int64) {
	add := func(kv *results.KV) {
		st := kv.Stats()
		segments += int64(st.Segments)
		compactions += st.Compactions
	}
	if r.spec.ReplicateState {
		add(r.globalKV)
		return
	}
	for p := 0; p < r.n; p++ {
		add(r.stateKV[p])
		add(r.lastKV[p])
	}
	return
}

// stateReadStats sums the segment read-path gauges (cumulative since
// Open) across the durable state stores.
func (r *Runner) stateReadStats() (blocksRead, bloomSkips, bytesDecompressed int64) {
	add := func(kv *results.KV) {
		st := kv.Stats()
		blocksRead += st.BlocksRead
		bloomSkips += st.BloomSkips
		bytesDecompressed += st.BytesDecompressed
	}
	if r.spec.ReplicateState {
		add(r.globalKV)
		return
	}
	for p := 0; p < r.n; p++ {
		add(r.stateKV[p])
		add(r.lastKV[p])
	}
	return
}

// loadKV materializes a durable KV store as a map.
func loadKV(k *results.KV) (map[string]string, error) {
	m := make(map[string]string)
	err := k.All(func(key, value string) error {
		m[key] = value
		return nil
	})
	return m, err
}

// jobMode names the state layout for the job meta.
func (r *Runner) jobMode() string {
	if r.spec.ReplicateState {
		return modeReplicated
	}
	return modePartitioned
}

// mrbgMode names the configured MRBGraph maintenance mode. It derives
// from the spec and config, not from r.mrbgOn: the P_delta fallback
// toggles r.mrbgOn mid-job but always restores it at job boundaries.
func (r *Runner) mrbgMode() string {
	if !r.cfg.DisableMRBG && !r.spec.ReplicateState {
		return "on"
	}
	return "off"
}

// writeJobMeta durably stamps the preserved topology and completed-job
// count. Its presence is the completion marker Open requires; it is
// written when RunInitial finishes and refreshed after every completed
// RunIncremental.
func (r *Runner) writeJobMeta() error {
	err := engine.JobMeta{Partitions: r.n, Mode: r.jobMode(), MRBG: r.mrbgMode(), Jobs: int64(r.jobSeq)}.Write(r.jobMetaPath())
	if err == nil {
		r.jobsDone.Store(int64(r.jobSeq))
	}
	return err
}

// markRefreshIntent durably records that a refresh (and, as iterations
// progress, which one) is mutating the preserved state. It is written
// before the first durable mutation of a RunIncremental, refreshed per
// iteration, and removed only after the refresh's final checkpoint; a
// marker that survives a crash tells Open the stores are at
// inconsistent iterations and must not be resumed.
func (r *Runner) markRefreshIntent(iteration int) error {
	return fsutil.WriteFileAtomic(r.refreshIntentPath(),
		[]byte(fmt.Sprintf("job=%d\niteration=%d\n", r.jobSeq, iteration)))
}

// clearRefreshIntent removes the marker after a completed refresh.
func (r *Runner) clearRefreshIntent() error {
	path := r.refreshIntentPath()
	if err := os.Remove(path); err != nil {
		return err
	}
	return fsutil.SyncDir(filepath.Dir(path))
}

// Open reattaches a Runner to the durable state a previous process
// preserved under the same cluster scratch root: the per-partition
// MRBG-Stores and state stores recover from their manifests, the
// node-local structure files are re-indexed, and RunIncremental works
// immediately without re-running the initial job. The computation must
// be opened with the same spec Name, partition count, state layout, and
// MRBGraph mode it originally ran with; Open fails if any partition's
// preserved state is missing, and refuses a half-applied refresh (a
// surviving refresh.intent marker).
func Open(eng *mr.Engine, spec Spec, cfg Config) (*Runner, error) {
	r, err := NewRunner(eng, spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.attach(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// attach validates the preserved state against this runner's topology
// and loads it.
func (r *Runner) attach() error {
	meta, ok, err := engine.ReadJobMeta(r.jobMetaPath())
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: computation %q has no preserved state here (RunInitial never completed under this scratch root)", r.spec.Name)
	}
	if meta.Partitions != r.n {
		return fmt.Errorf("core: computation %q was preserved with %d partitions, cannot resume with %d", r.spec.Name, meta.Partitions, r.n)
	}
	if meta.Mode != r.jobMode() {
		return fmt.Errorf("core: computation %q was preserved in %s mode, cannot resume in %s mode", r.spec.Name, meta.Mode, r.jobMode())
	}
	if meta.MRBG != r.mrbgMode() {
		return fmt.Errorf("core: computation %q was preserved with MRBGraph maintenance %s, cannot resume with it %s", r.spec.Name, meta.MRBG, r.mrbgMode())
	}
	switch intent, err := os.ReadFile(r.refreshIntentPath()); {
	case err == nil:
		// One benign crash window: the refresh completed (its meta was
		// stamped — meta jobs equals the marker's job number only after
		// writeJobMeta) but the process died before unlinking the
		// marker. That state is fully consistent; clear the marker and
		// resume. Any other surviving marker means stores at
		// inconsistent iterations.
		if engine.IntentJob(string(intent)) == meta.Jobs {
			if err := r.clearRefreshIntent(); err != nil {
				return err
			}
			break
		}
		return fmt.Errorf("core: computation %q has a half-applied refresh (%s); this state cannot be resumed safely — re-run the computation in a fresh work dir",
			r.spec.Name, strings.ReplaceAll(strings.TrimSpace(string(intent)), "\n", " "))
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("core: probing refresh marker: %w", err)
	}

	project := r.spec.Project
	if r.spec.ReplicateState {
		project = nil
	}
	// Recovery is partition-independent — structure re-indexing and
	// state loading both fan out at Config.IOParallelism.
	r.parts = make([]*structPart, r.n)
	err = par.Do(r.n, r.ioPar, func(p int) error {
		sp, err := openStructPart(r.structPath(p), project)
		if err != nil {
			return fmt.Errorf("core: reattaching structure partition %d: %w", p, err)
		}
		r.parts[p] = sp
		return nil
	})
	if err != nil {
		return err
	}

	if r.spec.ReplicateState {
		if !r.globalKV.Initialized() {
			return fmt.Errorf("core: computation %q is missing its preserved global state (was it run under a different cluster topology?)", r.spec.Name)
		}
		g, err := loadKV(r.globalKV)
		if err != nil {
			return err
		}
		r.global = g
	} else {
		r.state = make([]map[string]string, r.n)
		r.last = make([]map[string]string, r.n)
		err = par.Do(r.n, r.ioPar, func(p int) error {
			if !r.stateKV[p].Initialized() || !r.lastKV[p].Initialized() {
				return fmt.Errorf("core: computation %q is missing preserved state for partition %d (was it run under a different cluster topology?)", r.spec.Name, p)
			}
			st, err := loadKV(r.stateKV[p])
			if err != nil {
				return err
			}
			le, err := loadKV(r.lastKV[p])
			if err != nil {
				return err
			}
			r.state[p] = st
			r.last[p] = le
			return nil
		})
		if err != nil {
			return err
		}
	}
	// A preserved mrbg=on computation with live state must come with
	// its preserved MRBGraph; freshly created empty stores here mean
	// the core-mrbg tree was lost (partial copy, cache cleanup), and
	// merging deltas into an empty graph would converge to silently
	// wrong state. (Aggregate, not per-partition: a spec may leave a
	// partition chunkless if nothing ever emitted to its keys.)
	if r.mrbgOn {
		chunks := 0
		for _, st := range r.stores {
			chunks += st.Len()
		}
		if chunks == 0 && r.StateKeyCount() > 0 {
			return fmt.Errorf("core: computation %q is missing its preserved MRBGraph (the core-mrbg stores are empty); cannot resume safely", r.spec.Name)
		}
	}
	r.jobSeq = int(meta.Jobs)
	r.jobsDone.Store(meta.Jobs)
	r.initialDone = true
	return nil
}

// resetStaleState discards the partial durable leavings of an initial
// run that died before committing its job meta: initialized state
// stores, MRBG-Stores with preserved chunks, and any stale refresh
// marker. RunInitial calls it so a retry starts clean instead of
// overlaying stale state or phantom MRBGraph chunks.
func (r *Runner) resetStaleState() error {
	if err := os.Remove(r.refreshIntentPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// Drop the in-memory caches along with the stores: a retried
	// RunInitial must not let a stale cache entry suppress the
	// write-through of an identical fresh value (the skip-if-equal fast
	// path in setGlobal/setStateLocked), or the durable store would end
	// up with holes the cache papers over until the next Open.
	r.global, r.state, r.last = nil, nil, nil
	reset := func(kv *results.KV) error {
		if !kv.Initialized() {
			kv.DiscardPending()
			return nil
		}
		return kv.Reset()
	}
	if r.spec.ReplicateState {
		if err := reset(r.globalKV); err != nil {
			return err
		}
	} else {
		for p := 0; p < r.n; p++ {
			if err := reset(r.stateKV[p]); err != nil {
				return err
			}
			if err := reset(r.lastKV[p]); err != nil {
				return err
			}
		}
	}
	for p, st := range r.stores {
		if st.Len() == 0 {
			continue
		}
		nst, err := st.Reset()
		if err != nil {
			return fmt.Errorf("core: resetting stale store %d: %w", p, err)
		}
		r.stores[p] = nst
	}
	return nil
}

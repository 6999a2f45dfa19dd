package core

// Crash/resume coverage for the durable incremental iterative engine:
// kill-and-Open between refreshes at several partition counts and
// shuffle budgets (byte-identical converged state vs an uninterrupted
// run), refusal of half-applied refreshes (kill between iterations),
// stale-partial-initial detection, topology-mismatch refusal, and the
// dirty-partition checkpoint accounting.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
)

// engineAt builds an engine rooted at a fixed directory, so a test can
// simulate a process restart by constructing a second engine over the
// same scratch root. The DFS namespace is per-process (a fresh job
// re-ingests its inputs); the preserved MRBG-Stores, state stores, and
// structure partitions live under the cluster scratch dirs and survive.
func engineAt(t *testing.T, root string, nodes int) *mr.Engine {
	t.Helper()
	fs, err := dfs.New(dfs.Config{Root: filepath.Join(root, "dfs"), BlockSize: 512, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(fs, cl)
}

// TestOpenResumesAcrossRestartSweep is the acceptance sweep: at every
// (partition count, shuffle budget) configuration, a computation killed
// between refreshes and reattached with Open must converge the next
// delta to state byte-identical to an uninterrupted run's.
func TestOpenResumesAcrossRestartSweep(t *testing.T) {
	// One deterministic graph history shared by every configuration.
	rng := rand.New(rand.NewSource(41))
	adj := randomGraph(rng, 60, 4)
	initialPairs := graphPairs(adj)
	deltas1 := mutateGraph(rng, adj, 0.1)
	deltas2 := mutateGraph(rng, adj, 0.1)
	finalPairs := graphPairs(adj)

	type config struct {
		parts  int
		budget int64
	}
	configs := []config{
		{parts: 2, budget: 0},
		{parts: 2, budget: 256}, // tiny: forces spilling
		{parts: 3, budget: 0},
		{parts: 3, budget: 256},
	}

	var first map[string]string
	for _, c := range configs {
		label := fmt.Sprintf("parts=%d/budget=%d", c.parts, c.budget)
		cfg := Config{
			NumPartitions: c.parts, MaxIterations: 300, Epsilon: 1e-10,
			ShuffleMemoryBudget: c.budget, Checkpoint: true,
		}
		feed := func(eng *mr.Engine) {
			t.Helper()
			if err := eng.FS().WriteAllPairs("g0", initialPairs); err != nil {
				t.Fatal(err)
			}
			if err := eng.FS().WriteAllDeltas("d1", deltas1); err != nil {
				t.Fatal(err)
			}
			if err := eng.FS().WriteAllDeltas("d2", deltas2); err != nil {
				t.Fatal(err)
			}
		}

		// Uninterrupted baseline: initial + d1 + d2 in one process.
		baseEng := engineAt(t, t.TempDir(), 3)
		feed(baseEng)
		base, err := NewRunner(baseEng, pageRankSpec("pr-resume"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.RunInitial("g0"); err != nil {
			t.Fatalf("%s: baseline initial: %v", label, err)
		}
		if _, err := base.RunIncremental("d1"); err != nil {
			t.Fatalf("%s: baseline d1: %v", label, err)
		}
		if _, err := base.RunIncremental("d2"); err != nil {
			t.Fatalf("%s: baseline d2: %v", label, err)
		}
		want := base.State()
		base.Close()

		// Killed run: initial + d1, process death, Open, d2.
		root := t.TempDir()
		eng1 := engineAt(t, root, 3)
		feed(eng1)
		r1, err := NewRunner(eng1, pageRankSpec("pr-resume"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r1.RunInitial("g0"); err != nil {
			t.Fatalf("%s: initial: %v", label, err)
		}
		if _, err := r1.RunIncremental("d1"); err != nil {
			t.Fatalf("%s: d1: %v", label, err)
		}
		r1.Close() // "kill": everything durable was already flushed at the job boundary

		eng2 := engineAt(t, root, 3)
		feed(eng2)
		r2, err := Open(eng2, pageRankSpec("pr-resume"), cfg)
		if err != nil {
			t.Fatalf("%s: Open after restart: %v", label, err)
		}
		res, err := r2.RunIncremental("d2")
		if err != nil {
			t.Fatalf("%s: d2 after restart: %v", label, err)
		}
		if !res.Converged {
			t.Fatalf("%s: resumed refresh did not converge", label)
		}
		got := r2.State()
		assertStatesIdentical(t, got, want, label+": resumed vs uninterrupted")
		if first == nil {
			first = want
		} else {
			assertStatesIdentical(t, want, first, label+": vs first configuration")
		}
		// Sanity anchor: the resumed fixed point matches a from-scratch
		// iterMR convergence on the final graph (within tolerance).
		if err := eng2.FS().WriteAllPairs("gfinal", finalPairs); err != nil {
			t.Fatal(err)
		}
		ref := converge(t, eng2, "pr-resume-ref", "gfinal", c.parts)
		assertStatesClose(t, got, ref, 1e-6, label+": vs reference")
		r2.Close()
	}
}

// TestRestoreBeforeInitialErrors guards the RestoreCheckpoint
// lifecycle: before RunInitial there is no checkpoint to restore, and
// the call must error rather than touch unallocated state.
func TestRestoreBeforeInitialErrors(t *testing.T) {
	eng := engineAt(t, t.TempDir(), 1)
	r, err := NewRunner(eng, pageRankSpec("pr-early"), Config{NumPartitions: 1, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RestoreCheckpoint(); err == nil {
		t.Fatal("RestoreCheckpoint before RunInitial succeeded")
	}
}

// TestOpenRefusesHalfAppliedRefresh kills a refresh between iterations
// (a permanently failing reduce task in iteration 2) and verifies the
// surviving refresh.intent marker makes Open refuse the state.
func TestOpenRefusesHalfAppliedRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	adj := randomGraph(rng, 50, 3)
	root := t.TempDir()
	eng := engineAt(t, root, 2)
	writeGraph(t, eng, "g0", adj)

	cfg := Config{NumPartitions: 2, MaxIterations: 300, Epsilon: 1e-10, Checkpoint: true}
	r, err := NewRunner(eng, pageRankSpec("pr-half"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	deltas := mutateGraph(rng, adj, 0.2)
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	// Exhaust every attempt of an iteration-2 reduce task: the refresh
	// dies after iteration 1's durable mutations, between iterations.
	for attempt := 1; attempt <= 4; attempt++ {
		eng.Cluster().InjectFailure(cluster.Failure{
			Task: "pr-half/j2-it002/reduce-0000", Attempt: attempt, Delay: time.Millisecond,
		})
	}
	if _, err := r.RunIncremental("d"); err == nil {
		t.Fatal("RunIncremental survived a permanently failing reduce task")
	}
	// The same runner is latched: an in-place retry would re-apply the
	// structure delta and re-merge edges into half-mutated stores.
	if _, err := r.RunIncremental("d"); err == nil {
		t.Fatal("RunIncremental retried in place on half-applied state")
	} else if !strings.Contains(err.Error(), "half-applied") {
		t.Fatalf("retry error does not name the half-applied state: %v", err)
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	if _, err := Open(eng2, pageRankSpec("pr-half"), cfg); err == nil {
		t.Fatal("Open resumed a half-applied refresh")
	} else if !strings.Contains(err.Error(), "half-applied") {
		t.Fatalf("Open error does not name the half-applied refresh: %v", err)
	}
}

// TestOpenClearsMarkerOfCompletedRefresh covers the benign crash
// window: the refresh stamped its job meta but died before unlinking
// refresh.intent. The marker's job number equals the meta's jobs count,
// so Open clears it and resumes instead of refusing consistent state —
// while a marker from an unfinished refresh still refuses.
func TestOpenClearsMarkerOfCompletedRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	adj := randomGraph(rng, 40, 3)
	root := t.TempDir()
	eng := engineAt(t, root, 2)
	writeGraph(t, eng, "g0", adj)

	cfg := Config{NumPartitions: 2, MaxIterations: 300, Epsilon: 1e-10}
	r, err := NewRunner(eng, pageRankSpec("pr-window"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	deltas := mutateGraph(rng, adj, 0.1)
	if err := eng.FS().WriteAllDeltas("d1", deltas); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunIncremental("d1"); err != nil {
		t.Fatal(err)
	}
	intent := r.refreshIntentPath()
	want := r.State()
	r.Close()

	// A marker from an unfinished refresh (job ahead of the stamped
	// meta) refuses.
	if err := os.WriteFile(intent, []byte("job=3\niteration=4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(engineAt(t, root, 2), pageRankSpec("pr-window"), cfg); err == nil {
		t.Fatal("Open resumed past an unfinished refresh's marker")
	}
	// The crash-after-completion marker (job == meta jobs, here 2:
	// initial + d1) is cleared and the computation resumes.
	if err := os.WriteFile(intent, []byte("job=2\niteration=9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(engineAt(t, root, 2), pageRankSpec("pr-window"), cfg)
	if err != nil {
		t.Fatalf("Open refused the completed refresh's leftover marker: %v", err)
	}
	defer r2.Close()
	if _, err := os.Stat(intent); !os.IsNotExist(err) {
		t.Fatalf("leftover marker not cleared (err=%v)", err)
	}
	assertStatesIdentical(t, r2.State(), want, "state after clearing completed-refresh marker")
}

// TestStalePartialInitialIsDiscarded kills an initial run mid-preserve
// (after one partition durably checkpointed MRBGraph chunks) and checks
// that Open refuses the partial state while a retried RunInitial resets
// it and converges to the correct fixed point without phantom chunks.
func TestStalePartialInitialIsDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	adj := randomGraph(rng, 40, 3)
	root := t.TempDir()
	eng := engineAt(t, root, 2)
	writeGraph(t, eng, "g0", adj)

	cfg := Config{NumPartitions: 2, MaxIterations: 300, Epsilon: 1e-10}
	r, err := NewRunner(eng, pageRankSpec("pr-stale"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 4; attempt++ {
		eng.Cluster().InjectFailure(cluster.Failure{
			Task: "pr-stale/j1-preserve/reduce-0001", Attempt: attempt, Delay: time.Millisecond,
		})
	}
	if _, err := r.RunInitial("g0"); err == nil {
		t.Fatal("RunInitial survived a permanently failing preserve task")
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	writeGraph(t, eng2, "g0", adj)
	if _, err := Open(eng2, pageRankSpec("pr-stale"), cfg); err == nil {
		t.Fatal("Open attached to a partial initial run (no job meta)")
	}
	r2, err := NewRunner(eng2, pageRankSpec("pr-stale"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	res, err := r2.RunInitial("g0")
	if err != nil {
		t.Fatalf("retried RunInitial after partial run: %v", err)
	}
	if !res.Converged {
		t.Fatal("retried initial run did not converge")
	}
	total := 0
	for _, s := range r2.Stores() {
		total += s.Len()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(adj) {
		t.Fatalf("preserved %d chunks after reset+retry, want %d (stale chunks must not survive)", total, len(adj))
	}
	want := converge(t, eng2, "pr-stale-ref", "g0", 2)
	assertStatesClose(t, r2.State(), want, 1e-8, "after reset+retry")
}

// TestOpenValidatesTopology covers the refusal matrix: missing job
// meta, partition-count mismatch, and MRBGraph-mode mismatch.
func TestOpenValidatesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	adj := randomGraph(rng, 30, 3)
	root := t.TempDir()
	eng := engineAt(t, root, 2)
	writeGraph(t, eng, "g0", adj)

	cfg := Config{NumPartitions: 3, MaxIterations: 300, Epsilon: 1e-10}
	r, err := NewRunner(eng, pageRankSpec("pr-topo"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	if _, err := Open(engineAt(t, t.TempDir(), 2), pageRankSpec("pr-topo"), cfg); err == nil {
		t.Fatal("Open succeeded with no preserved state")
	}
	wrongParts := cfg
	wrongParts.NumPartitions = 2
	if _, err := Open(engineAt(t, root, 2), pageRankSpec("pr-topo"), wrongParts); err == nil {
		t.Fatal("Open succeeded with a mismatched partition count")
	} else if !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("partition-mismatch error does not say so: %v", err)
	}
	wrongMRBG := cfg
	wrongMRBG.DisableMRBG = true
	if _, err := Open(engineAt(t, root, 2), pageRankSpec("pr-topo"), wrongMRBG); err == nil {
		t.Fatal("Open succeeded with a mismatched MRBGraph mode")
	}
	// The matching topology still opens after all the refusals.
	r2, err := Open(engineAt(t, root, 2), pageRankSpec("pr-topo"), cfg)
	if err != nil {
		t.Fatalf("Open with the original topology: %v", err)
	}
	r2.Close()

	// A lost core-mrbg tree (partial copy of the work dir) must refuse
	// rather than resume against freshly created empty stores.
	matches, err := filepath.Glob(filepath.Join(root, "scratch", "node-*", "core-mrbg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("locating core-mrbg dirs: %v (found %d)", err, len(matches))
	}
	for _, m := range matches {
		if err := os.RemoveAll(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(engineAt(t, root, 2), pageRankSpec("pr-topo"), cfg); err == nil {
		t.Fatal("Open resumed with the preserved MRBGraph missing")
	} else if !strings.Contains(err.Error(), "MRBGraph") {
		t.Fatalf("missing-MRBGraph error does not say so: %v", err)
	}
}

// TestCheckpointFlushesOnlyDirtyPartitions asserts the headline of the
// manifest-based checkpoint path: with per-iteration checkpointing on,
// a small delta flushes far fewer partition-store snapshots (and far
// fewer state entries) than the full rewrite the engine used to do.
func TestCheckpointFlushesOnlyDirtyPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	adj := randomGraph(rng, 200, 3)
	eng := engineAt(t, t.TempDir(), 4)
	writeGraph(t, eng, "g0", adj)

	// Epsilon damps the single-vertex change after a few hops, so most
	// partitions stay clean in most iterations.
	r, err := NewRunner(eng, pageRankSpec("pr-dirty"), Config{
		NumPartitions: 4, MaxIterations: 100, Epsilon: 0.01, Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	deltas := mutateGraph(rng, adj, 0.001) // a single vertex
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunIncremental("d")
	if err != nil {
		t.Fatal(err)
	}
	if res.MRBGDisabledAt != 0 {
		t.Fatalf("P_delta fallback triggered unexpectedly at iteration %d", res.MRBGDisabledAt)
	}
	checkpoints := int64(res.Iterations + 1) // per iteration + the completion flush
	dirty := res.Report.Counter(metrics.CounterStateDirtyPartitions)
	flushed := res.Report.Counter(metrics.CounterStateGroupsFlushed)
	if dirty == 0 || flushed == 0 {
		t.Fatalf("no dirty flush recorded (dirty=%d flushed=%d); the refresh did change state", dirty, flushed)
	}
	if full := checkpoints * 4; dirty >= full {
		t.Fatalf("checkpoints flushed %d partition snapshots across %d checkpoints on 4 partitions (>= the full-rewrite %d); dirty tracking is not selective", dirty, checkpoints, full)
	}
	if total := checkpoints * int64(len(adj)); flushed >= total {
		t.Fatalf("checkpoints flushed %d state entries (>= full-rewrite %d)", flushed, total)
	}
	if res.Report.Counter(metrics.CounterStateSegments) == 0 {
		t.Fatal("no state-store segments reported after a checkpointed refresh")
	}
}

// TestOpenResumesReplicatedState exercises the Open path for
// ReplicateState specs (the Kmeans shape): the replicated global state
// recovers from the durable global store and a resumed refresh matches
// an uninterrupted one byte for byte.
func TestOpenResumesReplicatedState(t *testing.T) {
	spec := Spec{
		Name: "resume-km",
		Map: func(sk, sv, dk, dv string, emit iter.Emit) error {
			x, err := strconv.ParseFloat(sv, 64)
			if err != nil {
				return err
			}
			best, bestD := 0, math.Inf(1)
			for i, c := range strings.Split(dv, ",") {
				cf, _ := strconv.ParseFloat(c, 64)
				if d := math.Abs(x - cf); d < bestD {
					best, bestD = i, d
				}
			}
			emit(strconv.Itoa(best), sv)
			return nil
		},
		Reduce: func(k2 string, values []string, state iter.StateGetter, emit iter.Emit) error {
			var sum float64
			for _, v := range values {
				f, _ := strconv.ParseFloat(v, 64)
				sum += f
			}
			emit(k2, strconv.FormatFloat(sum/float64(len(values)), 'g', 17, 64))
			return nil
		},
		Difference: func(prev, cur string) float64 {
			pa, pb := strings.Split(prev, ","), strings.Split(cur, ",")
			max := 0.0
			for i := range pa {
				if i >= len(pb) {
					break
				}
				a, _ := strconv.ParseFloat(pa[i], 64)
				b, _ := strconv.ParseFloat(pb[i], 64)
				if d := math.Abs(a - b); d > max {
					max = d
				}
			}
			return max
		},
		ReplicateState: true,
		AssembleState: func(prev map[string]string, outs []kv.Pair) map[string]string {
			cs := strings.Split(prev["c"], ",")
			for _, o := range outs {
				i, _ := strconv.Atoi(o.Key)
				if i >= 0 && i < len(cs) {
					cs[i] = o.Value
				}
			}
			return map[string]string{"c": strings.Join(cs, ",")}
		},
	}
	var points []kv.Pair
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 100; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 100
		}
		points = append(points, kv.Pair{
			Key:   fmt.Sprintf("p%04d", i),
			Value: strconv.FormatFloat(base+rng.Float64()*5, 'g', 17, 64),
		})
	}
	var d1, d2 []kv.Delta
	for i := 0; i < 10; i++ {
		d1 = append(d1, kv.Delta{Key: fmt.Sprintf("x%04d", i),
			Value: strconv.FormatFloat(rng.Float64()*5, 'g', 17, 64), Op: kv.OpInsert})
		d2 = append(d2, kv.Delta{Key: fmt.Sprintf("y%04d", i),
			Value: strconv.FormatFloat(100+rng.Float64()*5, 'g', 17, 64), Op: kv.OpInsert})
	}
	cfg := Config{
		NumPartitions: 2, MaxIterations: 60, Epsilon: 1e-9,
		InitialState: map[string]string{"c": "10,60"},
	}
	feed := func(eng *mr.Engine) {
		t.Helper()
		if err := eng.FS().WriteAllPairs("pts", points); err != nil {
			t.Fatal(err)
		}
		if err := eng.FS().WriteAllDeltas("d1", d1); err != nil {
			t.Fatal(err)
		}
		if err := eng.FS().WriteAllDeltas("d2", d2); err != nil {
			t.Fatal(err)
		}
	}

	baseEng := engineAt(t, t.TempDir(), 2)
	feed(baseEng)
	base, err := NewRunner(baseEng, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.RunInitial("pts"); err != nil {
		t.Fatal(err)
	}
	if _, err := base.RunIncremental("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := base.RunIncremental("d2"); err != nil {
		t.Fatal(err)
	}
	want := base.State()
	base.Close()

	root := t.TempDir()
	eng1 := engineAt(t, root, 2)
	feed(eng1)
	r1, err := NewRunner(eng1, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RunInitial("pts"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RunIncremental("d1"); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	eng2 := engineAt(t, root, 2)
	feed(eng2)
	r2, err := Open(eng2, spec, cfg)
	if err != nil {
		t.Fatalf("Open replicated-state computation: %v", err)
	}
	defer r2.Close()
	if _, err := r2.RunIncremental("d2"); err != nil {
		t.Fatal(err)
	}
	assertStatesIdentical(t, r2.State(), want, "replicated resume vs uninterrupted")
}

package incr

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
)

// engineAt builds an engine rooted at a fixed directory, so a test can
// simulate a process restart by constructing a second engine over the
// same scratch root (the DFS namespace is per-process, as in the real
// system a fresh job would re-ingest its inputs; the preserved MRBG and
// result stores live under the cluster scratch dirs and survive).
func engineAt(t *testing.T, root string, nodes int) *mr.Engine {
	t.Helper()
	fs, err := dfs.New(dfs.Config{Root: filepath.Join(root, "dfs"), BlockSize: 256, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(fs, cl)
}

// graphRounds generates a deterministic initial graph plus delta rounds
// (modify / delete / insert), returning the delta of each round and the
// full dataset after each round.
func graphRounds(seed int64, nVertices, rounds int) (initial []kv.Pair, deltas [][]kv.Delta, snapshots []map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	mkValue := func() string {
		n := rng.Intn(3) + 1
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += ";"
			}
			s += fmt.Sprintf("%d:%.2f", rng.Intn(nVertices), rng.Float64())
		}
		return s
	}
	current := map[string]string{}
	for i := 0; i < nVertices; i++ {
		current[strconv.Itoa(i)] = mkValue()
	}
	for k, v := range current {
		initial = append(initial, kv.Pair{Key: k, Value: v})
	}
	kv.SortPairs(initial)
	for round := 0; round < rounds; round++ {
		var delta []kv.Delta
		keys := make([]string, 0, len(current))
		for k := range current {
			keys = append(keys, k)
		}
		// Deterministic iteration order for reproducible deltas.
		kvSortStrings(keys)
		for _, k := range keys {
			switch rng.Intn(8) {
			case 0:
				delta = append(delta, kv.Delta{Key: k, Value: current[k], Op: kv.OpDelete})
				delete(current, k)
			case 1, 2:
				nv := mkValue()
				delta = append(delta, kv.Delta{Key: k, Value: current[k], Op: kv.OpDelete})
				delta = append(delta, kv.Delta{Key: k, Value: nv, Op: kv.OpInsert})
				current[k] = nv
			}
		}
		nk := fmt.Sprintf("n%d", nVertices+round)
		nv := mkValue()
		delta = append(delta, kv.Delta{Key: nk, Value: nv, Op: kv.OpInsert})
		current[nk] = nv
		deltas = append(deltas, delta)
		snap := make(map[string]string, len(current))
		for k, v := range current {
			snap[k] = v
		}
		snapshots = append(snapshots, snap)
	}
	return initial, deltas, snapshots
}

func kvSortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// TestDeltaRefreshByteIdenticalAcrossBudgets drives the same delta
// sequence through runners with spilling disabled, forced on every
// record, and at a moderate budget, across partition counts, and
// asserts the refreshed result sets — and the DFS part files — are
// byte-identical everywhere and match a full recompute.
func TestDeltaRefreshByteIdenticalAcrossBudgets(t *testing.T) {
	const nVertices = 40
	const rounds = 3
	initial, deltas, snapshots := graphRounds(7, nVertices, rounds)

	type config struct {
		parts  int
		budget int64
	}
	configs := []config{
		{parts: 3, budget: 0}, // all in memory
		{parts: 3, budget: 1}, // spill on every emit
		{parts: 3, budget: 4 << 10},
		{parts: 1, budget: 1},
		{parts: 2, budget: 256},
	}

	// want[i] holds round i's Outputs() from the first config; every
	// other config must reproduce it exactly.
	var want [][]kv.Pair
	for ci, cfg := range configs {
		eng := newEngine(t, 2)
		if err := eng.FS().WriteAllPairs("g0", initial); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(eng, Job{
			Name: "equiv", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer,
			NumReducers: cfg.parts, ShuffleMemoryBudget: cfg.budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunInitial("g0", "o0"); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			dPath := fmt.Sprintf("d%d", round)
			if err := eng.FS().WriteAllDeltas(dPath, deltas[round]); err != nil {
				t.Fatal(err)
			}
			rep, err := r.RunDelta(dPath, fmt.Sprintf("o%d", round+1))
			if err != nil {
				t.Fatalf("config %+v round %d: %v", cfg, round, err)
			}
			spills := rep.Counter(metrics.CounterSpillRuns)
			if cfg.budget == 1 && rep.Counter("delta.edges") > 0 && spills == 0 {
				t.Fatalf("config %+v round %d: budget 1 but no spills", cfg, round)
			}
			if cfg.budget == 0 && spills != 0 {
				t.Fatalf("config %+v round %d: unbounded budget spilled %d runs", cfg, round, spills)
			}
			got := outs(t, r)
			if ci == 0 {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[round]) {
				t.Fatalf("config %+v round %d: outputs differ from baseline", cfg, round)
			}
			// DFS part files carry the same refreshed result set.
			ps, err := eng.ReadOutput(fmt.Sprintf("o%d", round+1), cfg.parts)
			if err != nil {
				t.Fatal(err)
			}
			kv.SortPairs(ps)
			if !reflect.DeepEqual(ps, got) {
				t.Fatalf("config %+v round %d: DFS outputs differ from Outputs()", cfg, round)
			}
		}
		// Final state matches a from-scratch recompute of the final
		// dataset.
		var full []kv.Pair
		for k, v := range snapshots[rounds-1] {
			full = append(full, kv.Pair{Key: k, Value: v})
		}
		kv.SortPairs(full)
		if err := eng.FS().WriteAllPairs("gfinal", full); err != nil {
			t.Fatal(err)
		}
		wantMap := recompute(t, eng, "gfinal", cfg.parts)
		if got := outputsAsMap(outs(t, r)); !reflect.DeepEqual(got, wantMap) {
			t.Fatalf("config %+v: final outputs = %v, want %v", cfg, got, wantMap)
		}
		for _, s := range r.Stores() {
			if err := s.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
	}
}

// TestRunInitialStateIndependentOfBlockSize runs the initial job over one
// input at two DFS block sizes — several map tasks versus one — and
// compares the preserved state byte for byte: the MRBG-Store data files
// and the result segments must not depend on how the input was split.
func TestRunInitialStateIndependentOfBlockSize(t *testing.T) {
	initial, _, _ := graphRounds(11, 600, 0)
	preserved := func(blockSize int64) (map[string][]byte, int64) {
		root := t.TempDir()
		fs, err := dfs.New(dfs.Config{Root: filepath.Join(root, "dfs"), BlockSize: blockSize, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{Nodes: 2, ScratchRoot: filepath.Join(root, "scratch")})
		if err != nil {
			t.Fatal(err)
		}
		eng := mr.NewEngine(fs, cl)
		if err := eng.FS().WriteAllPairs("g0", initial); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(eng, Job{Name: "blocks", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunInitial("g0", "o0")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		scratch := filepath.Join(root, "scratch")
		err = filepath.WalkDir(scratch, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || (filepath.Ext(path) != ".dat" && filepath.Ext(path) != ".seg") {
				return err
			}
			rel, _ := filepath.Rel(scratch, path)
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files, rep.Counter(metrics.CounterMapTasks)
	}
	small, smallTasks := preserved(4 << 10)
	large, largeTasks := preserved(1 << 20)
	if smallTasks < 2 || largeTasks != 1 {
		t.Fatalf("map tasks = %d at 4 KiB blocks, %d at 1 MiB; want several and one", smallTasks, largeTasks)
	}
	if len(small) < 6 { // 3 partitions x (one .dat + one .seg)
		t.Fatalf("found only %d preserved files", len(small))
	}
	if !reflect.DeepEqual(small, large) {
		for name := range small {
			if !reflect.DeepEqual(small[name], large[name]) {
				t.Errorf("%s differs between %d map tasks and 1", name, smallTasks)
			}
		}
		t.Fatalf("preserved file sets differ: %d files vs %d", len(small), len(large))
	}
}

// TestRunDeltaRewritesOnlyDirtyPartitions asserts the refresh no longer
// materializes the full result set: a one-record delta re-serializes
// only the partitions its affected K2s live in, republishing the rest
// as block-level clones, and a no-op delta rewrites nothing.
func TestRunDeltaRewritesOnlyDirtyPartitions(t *testing.T) {
	const parts = 4
	eng := newEngine(t, 2)
	var ps []kv.Pair
	for i := 0; i < 200; i++ {
		ps = append(ps, kv.Pair{Key: strconv.Itoa(i), Value: fmt.Sprintf("%d:1.0", (i+1)%200)})
	}
	if err := eng.FS().WriteAllPairs("g", ps); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{
		Name: "dirty", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}

	// One record modified: at most two affected K2s, so at most two
	// dirty partitions out of four.
	delta := []kv.Delta{
		{Key: "5", Value: "6:1.0", Op: kv.OpDelete},
		{Key: "5", Value: "7:2.0", Op: kv.OpInsert},
	}
	if err := eng.FS().WriteAllDeltas("d", delta); err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunDelta("d", "o1")
	if err != nil {
		t.Fatal(err)
	}
	dirty := rep.Counter(metrics.CounterResultDirtyPartitions)
	if dirty < 1 || dirty >= parts {
		t.Fatalf("dirty partitions = %d, want in [1, %d)", dirty, parts)
	}
	rewritten := rep.Counter(metrics.CounterResultBytesRewritten)
	if rewritten <= 0 {
		t.Fatal("no bytes rewritten despite a dirty partition")
	}
	var total int64
	for p := 0; p < parts; p++ {
		fi, err := eng.FS().Stat(mr.PartPath("o1", p))
		if err != nil {
			t.Fatalf("partition %d missing from refreshed output: %v", p, err)
		}
		total += fi.Bytes
	}
	if rewritten >= total {
		t.Fatalf("rewrote %d of %d output bytes; clean partitions were re-serialized", rewritten, total)
	}
	if rep.Counter(metrics.CounterResultSegments) <= 0 {
		t.Fatal("no result segments reported")
	}

	// The cloned partitions still carry correct, complete content.
	full, err := eng.ReadOutput("o1", parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outputsAsMap(full), outputsAsMap(outs(t, r))) {
		t.Fatal("refreshed DFS output differs from the result stores")
	}

	// An empty delta dirties nothing and rewrites nothing.
	if err := eng.FS().WriteAllDeltas("d-empty", nil); err != nil {
		t.Fatal(err)
	}
	rep, err = r.RunDelta("d-empty", "o2")
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Counter(metrics.CounterResultDirtyPartitions); n != 0 {
		t.Fatalf("empty delta dirtied %d partitions", n)
	}
	if n := rep.Counter(metrics.CounterResultBytesRewritten); n != 0 {
		t.Fatalf("empty delta rewrote %d bytes", n)
	}
	full2, err := eng.ReadOutput("o2", parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full2, full) {
		t.Fatal("cloned no-op output differs from previous output")
	}
}

// TestOpenResumesAfterRestart kills the runner (Close + a brand-new
// engine over the same scratch root, with a fresh DFS namespace) and
// asserts Open reattaches to the preserved MRBG and result stores with
// an identical result set, and that further deltas refresh correctly.
func TestOpenResumesAfterRestart(t *testing.T) {
	root := t.TempDir()
	const parts = 3
	initial, deltas, snapshots := graphRounds(21, 30, 2)

	job := Job{Name: "resume", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: parts}

	eng := engineAt(t, root, 2)
	if err := eng.FS().WriteAllPairs("g0", initial); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g0", "o0"); err != nil {
		t.Fatal(err)
	}
	if err := eng.FS().WriteAllDeltas("d0", deltas[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunDelta("d0", "o1"); err != nil {
		t.Fatal(err)
	}
	preRestart := outs(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new engine over the same roots. The DFS namespace is
	// fresh; the preserved stores under the scratch dirs survive.
	eng2 := engineAt(t, root, 2)
	r2, err := Open(eng2, job)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := outs(t, r2); !reflect.DeepEqual(got, preRestart) {
		t.Fatalf("resumed outputs differ:\n got %v\nwant %v", got, preRestart)
	}

	// A RunInitial on the resumed state must be refused.
	if _, err := r2.RunInitial("g0", "oX"); err == nil {
		t.Fatal("RunInitial succeeded on a resumed runner")
	}

	// The resumed runner keeps refreshing correctly.
	if err := eng2.FS().WriteAllDeltas("d1", deltas[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.RunDelta("d1", "o2"); err != nil {
		t.Fatal(err)
	}
	var full []kv.Pair
	for k, v := range snapshots[1] {
		full = append(full, kv.Pair{Key: k, Value: v})
	}
	kv.SortPairs(full)
	if err := eng2.FS().WriteAllPairs("gfinal", full); err != nil {
		t.Fatal(err)
	}
	want := recompute(t, eng2, "gfinal", parts)
	if got := outputsAsMap(outs(t, r2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restart refresh = %v, want %v", got, want)
	}
	// The refreshed DFS output is complete even though the pre-restart
	// part files are gone from the fresh namespace (clean partitions
	// fall back to a full write).
	ps, err := eng2.ReadOutput("o2", parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outputsAsMap(ps), want) {
		t.Fatal("post-restart DFS output incomplete")
	}
	for _, s := range r2.Stores() {
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenAccumulatorResumes covers resume for accumulator jobs, which
// preserve only the result stores (no MRBGraph).
func TestOpenAccumulatorResumes(t *testing.T) {
	root := t.TempDir()
	job := Job{
		Name: "acc-resume",
		Mapper: mr.MapperFunc(func(k, v string, emit mr.Emit) error {
			emit(v, "1")
			return nil
		}),
		Reducer: mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error {
			emit(k, strconv.Itoa(len(vs)))
			return nil
		}),
		Accumulate: func(old, new string) string {
			a, _ := strconv.Atoi(old)
			b, _ := strconv.Atoi(new)
			return strconv.Itoa(a + b)
		},
		NumReducers: 2,
	}
	eng := engineAt(t, root, 2)
	if err := eng.FS().WriteAllPairs("in", []kv.Pair{
		{Key: "1", Value: "x"}, {Key: "2", Value: "y"}, {Key: "3", Value: "x"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("in", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	r2, err := Open(eng2, job)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := eng2.FS().WriteAllDeltas("d", []kv.Delta{
		{Key: "4", Value: "x", Op: kv.OpInsert},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.RunDelta("d", "o1"); err != nil {
		t.Fatal(err)
	}
	got := outputsAsMap(outs(t, r2))
	if got["x"] != "3" || got["y"] != "1" {
		t.Fatalf("resumed accumulator counts = %v, want x:3 y:1", got)
	}
}

// TestOpenWithoutPreservedStateFails asserts Open refuses a job that
// never ran (or ran under a different identity).
func TestOpenWithoutPreservedStateFails(t *testing.T) {
	eng := newEngine(t, 2)
	job := Job{Name: "ghost", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2}
	if _, err := Open(eng, job); err == nil {
		t.Fatal("Open succeeded with no preserved state")
	}
}

// TestOpenPartitionCountMismatchFails asserts resuming with fewer
// reducers than the job was preserved with is refused rather than
// silently dropping result groups.
func TestOpenPartitionCountMismatchFails(t *testing.T) {
	root := t.TempDir()
	eng := engineAt(t, root, 2)
	job := Job{Name: "pmis", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 4}
	if err := eng.FS().WriteAllPairs("g", []kv.Pair{{Key: "0", Value: "1:1.0"}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	job.NumReducers = 2
	if _, err := Open(eng2, job); err == nil {
		t.Fatal("Open succeeded with a smaller partition count")
	}
}

// TestOpenTopologyShrinkFails shrinks the cluster AND the reducer count
// together, so every partition dir the smaller topology derives exists
// and is initialized — only the persisted job meta can catch that the
// preserved state had more partitions.
func TestOpenTopologyShrinkFails(t *testing.T) {
	root := t.TempDir()
	eng := engineAt(t, root, 4)
	job := Job{Name: "shrink", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 4}
	var ps []kv.Pair
	for i := 0; i < 40; i++ {
		ps = append(ps, kv.Pair{Key: strconv.Itoa(i), Value: fmt.Sprintf("%d:1.0", (i+1)%40)})
	}
	if err := eng.FS().WriteAllPairs("g", ps); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	job.NumReducers = 2
	if _, err := Open(eng2, job); err == nil {
		t.Fatal("Open succeeded after a combined topology+partition shrink; preserved groups would be dropped")
	}
}

// TestSameRecordInsertThenDeleteNetsToDeletion asserts delta-file order
// survives the shuffle for records touching the same (K2, MK): an
// insert followed by a delete of the identical record is a net no-op,
// and a delete followed by a reinsert nets to the insertion — at a
// budget that forces spilling, where value-order alone would decide.
func TestSameRecordInsertThenDeleteNetsToDeletion(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		eng := newEngine(t, 2)
		if err := eng.FS().WriteAllPairs("g", []kv.Pair{
			{Key: "0", Value: "1:1.0"},
			{Key: "9", Value: "2:0.5"},
		}); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(eng, Job{
			Name: "net", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer,
			NumReducers: 2, ShuffleMemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunInitial("g", "o0"); err != nil {
			t.Fatal(err)
		}
		// "3" is inserted then deleted (net nothing); "0" is deleted
		// then reinserted identically (net unchanged).
		delta := []kv.Delta{
			{Key: "3", Value: "4:2.0", Op: kv.OpInsert},
			{Key: "3", Value: "4:2.0", Op: kv.OpDelete},
			{Key: "0", Value: "1:1.0", Op: kv.OpDelete},
			{Key: "0", Value: "1:1.0", Op: kv.OpInsert},
		}
		if err := eng.FS().WriteAllDeltas("d", delta); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunDelta("d", "o1"); err != nil {
			t.Fatal(err)
		}
		got := outputsAsMap(outs(t, r))
		if _, ok := got["4"]; ok {
			t.Fatalf("budget %d: insert-then-delete resurrected vertex 4: %v", budget, got)
		}
		if got["1"] != "1" {
			t.Fatalf("budget %d: delete-then-reinsert lost vertex 1's in-edge: %v", budget, got)
		}
		r.Close()
	}
}

// TestRunInitialRecoversFromCrashedInitial simulates an initial run
// that died after checkpointing some result stores but before the job
// meta committed: Open must refuse it, and a fresh RunInitial must
// discard the partial state and succeed.
func TestRunInitialRecoversFromCrashedInitial(t *testing.T) {
	root := t.TempDir()
	job := Job{Name: "crashed", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2}
	eng := engineAt(t, root, 2)
	if err := eng.FS().WriteAllPairs("g", []kv.Pair{
		{Key: "0", Value: "1:1.0"},
		{Key: "1", Value: "2:2.0"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Simulate the crash window: completion marker gone, stores remain.
	if err := os.Remove(r.jobMetaPath()); err != nil {
		t.Fatal(err)
	}

	// The corrected input no longer contains vertex 1's record, so the
	// aborted attempt's preserved chunks (K2s "1" and "2") are stale.
	eng2 := engineAt(t, root, 2)
	if err := eng2.FS().WriteAllPairs("g2", []kv.Pair{
		{Key: "0", Value: "3:1.5"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(eng2, job); err == nil {
		t.Fatal("Open succeeded without the completion marker")
	}
	r2, err := NewRunner(eng2, job)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.RunInitial("g2", "o0"); err != nil {
		t.Fatalf("RunInitial after crashed initial: %v", err)
	}
	want := recompute(t, eng2, "g2", 2)
	if got := outputsAsMap(outs(t, r2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered initial = %v, want %v", got, want)
	}
	// A delta touching a K2 that was live only in the aborted attempt
	// must not join against its phantom preserved edges.
	if err := eng2.FS().WriteAllDeltas("d", []kv.Delta{
		{Key: "5", Value: "2:1.0", Op: kv.OpInsert},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.RunDelta("d", "o1"); err != nil {
		t.Fatal(err)
	}
	got := outputsAsMap(outs(t, r2))
	if got["2"] != "1" {
		t.Fatalf("vertex 2 sum = %q after refresh, want 1 (phantom edges from the aborted initial?)", got["2"])
	}
}

// TestOpenRefusesHalfAppliedRefresh simulates a crash between a
// partition's MRBGraph checkpoint and its result-store checkpoint (the
// surviving refresh.intent marker) and asserts Open refuses to resume
// the inconsistent pair.
func TestOpenRefusesHalfAppliedRefresh(t *testing.T) {
	root := t.TempDir()
	job := Job{Name: "torn", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2}
	eng := engineAt(t, root, 2)
	if err := eng.FS().WriteAllPairs("g", []kv.Pair{{Key: "0", Value: "1:1.0"}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Plant the marker a dying reduce task would have left behind.
	if err := os.WriteFile(r.refreshIntentPath(1), []byte("refresh\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng2 := engineAt(t, root, 2)
	if _, err := Open(eng2, job); err == nil {
		t.Fatal("Open resumed a partition with a half-applied refresh")
	}
}

// TestOpenModeMismatchFails asserts a job preserved fine-grain cannot
// be resumed as an accumulator job (or vice versa): the two modes
// interpret the result-store groups differently.
func TestOpenModeMismatchFails(t *testing.T) {
	root := t.TempDir()
	job := Job{Name: "mode", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2}
	eng := engineAt(t, root, 2)
	if err := eng.FS().WriteAllPairs("g", []kv.Pair{{Key: "0", Value: "1:1.0"}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	eng2 := engineAt(t, root, 2)
	job.Accumulate = func(old, new string) string { return new }
	if _, err := Open(eng2, job); err == nil {
		t.Fatal("Open resumed a fine-grain job in accumulator mode")
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mr"
)

func newEngine(t *testing.T, nodes int) *mr.Engine {
	t.Helper()
	root := t.TempDir()
	fs, err := dfs.New(dfs.Config{Root: root + "/dfs", BlockSize: 512, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: root + "/scratch"})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(fs, cl)
}

const damping = 0.8

func pageRankSpec(name string) Spec {
	return Spec{
		Name:    name,
		Project: func(sk string) string { return sk },
		Map: func(sk, sv, dk, dv string, emit iter.Emit) error {
			rank, err := strconv.ParseFloat(dv, 64)
			if err != nil {
				return fmt.Errorf("bad rank %q: %v", dv, err)
			}
			emit(sk, "0")
			outs := strings.Fields(sv)
			if len(outs) == 0 {
				return nil
			}
			share := strconv.FormatFloat(rank/float64(len(outs)), 'g', 17, 64)
			for _, j := range outs {
				emit(j, share)
			}
			return nil
		},
		Reduce: func(k2 string, values []string, state iter.StateGetter, emit iter.Emit) error {
			var sum float64
			for _, v := range values {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return err
				}
				sum += f
			}
			emit(k2, strconv.FormatFloat(damping*sum+(1-damping), 'g', 17, 64))
			return nil
		},
		InitState: func(dk string) string { return "1" },
		Difference: func(prev, cur string) float64 {
			a, _ := strconv.ParseFloat(prev, 64)
			b, _ := strconv.ParseFloat(cur, 64)
			return math.Abs(a - b)
		},
	}
}

// randomGraph builds a connected-ish random digraph.
func randomGraph(rng *rand.Rand, n, maxOut int) map[string][]string {
	adj := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("v%03d", i)
		k := rng.Intn(maxOut) + 1
		seen := map[string]bool{}
		var outs []string
		for len(outs) < k {
			j := fmt.Sprintf("v%03d", rng.Intn(n))
			if j == v || seen[j] {
				continue
			}
			seen[j] = true
			outs = append(outs, j)
		}
		adj[v] = outs
	}
	return adj
}

func graphPairs(adj map[string][]string) []kv.Pair {
	var ps []kv.Pair
	for v, outs := range adj {
		ps = append(ps, kv.Pair{Key: v, Value: strings.Join(outs, " ")})
	}
	kv.SortPairs(ps)
	return ps
}

func writeGraph(t *testing.T, eng *mr.Engine, path string, adj map[string][]string) {
	t.Helper()
	if err := eng.FS().WriteAllPairs(path, graphPairs(adj)); err != nil {
		t.Fatal(err)
	}
}

// converge runs a reference iterMR computation to convergence on a
// graph — the ground truth an incremental run must reproduce.
func converge(t *testing.T, eng *mr.Engine, name, path string, n int) map[string]string {
	t.Helper()
	r, err := iter.NewRunner(eng, pageRankSpec(name), iter.Config{
		NumPartitions: n, MaxIterations: 200, Epsilon: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure(path); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("reference run did not converge")
	}
	return r.State()
}

func assertStatesClose(t *testing.T, got, want map[string]string, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d state keys, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing state key %q", label, k)
		}
		gf, _ := strconv.ParseFloat(g, 64)
		wf, _ := strconv.ParseFloat(w, 64)
		if math.Abs(gf-wf) > tol {
			t.Errorf("%s: state[%s] = %v, want %v", label, k, gf, wf)
		}
	}
}

// mutateGraph applies a fractional change, returning the delta records.
func mutateGraph(rng *rand.Rand, adj map[string][]string, frac float64) []kv.Delta {
	var deltas []kv.Delta
	keys := make([]string, 0, len(adj))
	for v := range adj {
		keys = append(keys, v)
	}
	kvSortStrings(keys)
	nChange := int(float64(len(keys))*frac) + 1
	for i := 0; i < nChange; i++ {
		v := keys[rng.Intn(len(keys))]
		outs, ok := adj[v]
		if !ok {
			continue
		}
		old := strings.Join(outs, " ")
		// Rewire one out-edge.
		tgt := keys[rng.Intn(len(keys))]
		newOuts := append([]string{}, outs...)
		if len(newOuts) > 0 {
			newOuts[rng.Intn(len(newOuts))] = tgt
		} else {
			newOuts = []string{tgt}
		}
		seen := map[string]bool{}
		var dedup []string
		for _, o := range newOuts {
			if o != v && !seen[o] {
				seen[o] = true
				dedup = append(dedup, o)
			}
		}
		if len(dedup) == 0 {
			continue
		}
		adj[v] = dedup
		deltas = append(deltas, kv.Delta{Key: v, Value: old, Op: kv.OpDelete})
		deltas = append(deltas, kv.Delta{Key: v, Value: strings.Join(dedup, " "), Op: kv.OpInsert})
	}
	return deltas
}

func kvSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestInitialRunMatchesIterMR(t *testing.T) {
	eng := newEngine(t, 3)
	rng := rand.New(rand.NewSource(1))
	adj := randomGraph(rng, 60, 4)
	writeGraph(t, eng, "g", adj)

	r, err := NewRunner(eng, pageRankSpec("pr-init"), Config{
		NumPartitions: 3, MaxIterations: 200, Epsilon: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.RunInitial("g")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("initial run did not converge in %d iterations", res.Iterations)
	}
	want := converge(t, eng, "pr-ref", "g", 3)
	assertStatesClose(t, r.State(), want, 1e-8, "initial")
	// MRBGraph preserved for every partition.
	total := 0
	for _, s := range r.Stores() {
		total += s.Len()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(adj) {
		t.Fatalf("preserved %d chunks, want %d (one per vertex)", total, len(adj))
	}
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	eng := newEngine(t, 3)
	rng := rand.New(rand.NewSource(2))
	adj := randomGraph(rng, 50, 3)
	writeGraph(t, eng, "g0", adj)

	r, err := NewRunner(eng, pageRankSpec("pr-incr"), Config{
		NumPartitions: 3, MaxIterations: 300, Epsilon: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		deltas := mutateGraph(rng, adj, 0.1)
		dPath := fmt.Sprintf("delta-%d", round)
		if err := eng.FS().WriteAllDeltas(dPath, deltas); err != nil {
			t.Fatal(err)
		}
		gPath := fmt.Sprintf("g%d", round)
		writeGraph(t, eng, gPath, adj)

		res, err := r.RunIncremental(dPath)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Converged {
			t.Fatalf("round %d did not converge (%d iterations)", round, res.Iterations)
		}
		want := converge(t, eng, fmt.Sprintf("pr-ref-%d", round), gPath, 3)
		assertStatesClose(t, r.State(), want, 1e-6, fmt.Sprintf("round %d", round))
	}
	for _, s := range r.Stores() {
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIncrementalTouchesFewerRecordsThanFull(t *testing.T) {
	eng := newEngine(t, 2)
	rng := rand.New(rand.NewSource(3))
	adj := randomGraph(rng, 200, 3)
	writeGraph(t, eng, "g0", adj)

	// Epsilon large enough that a single-vertex change damps out after
	// a few hops instead of propagating graph-wide (which would —
	// correctly — trip the P_delta fallback).
	r, err := NewRunner(eng, pageRankSpec("pr-select"), Config{
		NumPartitions: 2, MaxIterations: 100, Epsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	// Change a single vertex.
	deltas := mutateGraph(rng, adj, 0.001)
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunIncremental("d")
	if err != nil {
		t.Fatal(err)
	}
	mapped := res.Report.Counter("map.records.in")
	if mapped >= int64(len(adj)) {
		t.Fatalf("incremental run re-mapped %d records out of %d; expected selective processing", mapped, len(adj))
	}
	if res.MRBGDisabledAt != 0 {
		t.Fatalf("P_delta fallback triggered unexpectedly at iteration %d", res.MRBGDisabledAt)
	}
}

func TestVertexDeletionRemovesState(t *testing.T) {
	eng := newEngine(t, 2)
	adj := map[string][]string{
		"a": {"b"},
		"b": {"c"},
		"c": {"a"},
		"z": {"a"}, // will be deleted
	}
	writeGraph(t, eng, "g0", adj)
	r, err := NewRunner(eng, pageRankSpec("pr-del"), Config{
		NumPartitions: 2, MaxIterations: 200, Epsilon: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.State()["z"]; !ok {
		t.Fatal("vertex z missing before deletion")
	}
	deltas := []kv.Delta{{Key: "z", Value: "a", Op: kv.OpDelete}}
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunIncremental("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.State()["z"]; ok {
		t.Fatal("vertex z still has state after its record was deleted")
	}
	delete(adj, "z")
	writeGraph(t, eng, "g1", adj)
	want := converge(t, eng, "pr-del-ref", "g1", 2)
	assertStatesClose(t, r.State(), want, 1e-6, "after deletion")
	_ = res
}

func TestCPCFiltersAndBoundsError(t *testing.T) {
	eng := newEngine(t, 2)
	rng := rand.New(rand.NewSource(4))
	adj := randomGraph(rng, 120, 4)
	writeGraph(t, eng, "g0", adj)

	// One shared delta: both runs must process the same change.
	deltas := mutateGraph(rng, adj, 0.1)
	if err := eng.FS().WriteAllDeltas("d-shared", deltas); err != nil {
		t.Fatal(err)
	}

	run := func(name string, cpc bool, ft float64) (*Result, map[string]string, int64) {
		r, err := NewRunner(eng, pageRankSpec(name), Config{
			NumPartitions: 2, MaxIterations: 100, Epsilon: 1e-9,
			CPC: cpc, FilterThreshold: ft,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.RunInitial("g0"); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunIncremental("d-shared")
		if err != nil {
			t.Fatal(err)
		}
		var totalProp int64
		for _, s := range res.PerIter {
			totalProp += int64(s.Propagated)
		}
		return res, r.State(), totalProp
	}

	_, exact, propNone := run("pr-nocpc", false, 0)
	resCPC, approx, propCPC := run("pr-cpc", true, 0.01)

	if propCPC >= propNone {
		t.Fatalf("CPC propagated %d >= no-CPC %d", propCPC, propNone)
	}
	filtered := 0
	for _, s := range resCPC.PerIter {
		filtered += s.Filtered
	}
	if filtered == 0 {
		t.Fatal("CPC filtered nothing")
	}
	// CPC error is bounded: every key within a few filter thresholds.
	for k, e := range exact {
		a := approx[k]
		ef, _ := strconv.ParseFloat(e, 64)
		af, _ := strconv.ParseFloat(a, 64)
		if math.Abs(ef-af) > 0.2 {
			t.Errorf("CPC error on %s: %v vs %v", k, af, ef)
		}
	}
}

func TestPDeltaFallbackDisablesMRBG(t *testing.T) {
	eng := newEngine(t, 2)
	rng := rand.New(rand.NewSource(5))
	adj := randomGraph(rng, 40, 3)
	writeGraph(t, eng, "g0", adj)

	r, err := NewRunner(eng, pageRankSpec("pr-pdelta"), Config{
		NumPartitions: 2, MaxIterations: 200, Epsilon: 1e-9,
		PDeltaThreshold: 0.3, // easy to exceed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	// Change most of the graph: P_delta blows through the threshold.
	deltas := mutateGraph(rng, adj, 0.9)
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunIncremental("d")
	if err != nil {
		t.Fatal(err)
	}
	if res.MRBGDisabledAt == 0 {
		t.Fatal("P_delta fallback never triggered despite 90% change")
	}
	if !res.Converged {
		t.Fatal("fallback run did not converge")
	}
	writeGraph(t, eng, "g1", adj)
	want := converge(t, eng, "pr-pdelta-ref", "g1", 2)
	assertStatesClose(t, r.State(), want, 1e-6, "after fallback")
	if !r.MRBGEnabled() {
		t.Fatal("MRBG not re-enabled after post-fallback preserve pass")
	}
	// The store must be usable for the next incremental job.
	deltas2 := mutateGraph(rng, adj, 0.05)
	if err := eng.FS().WriteAllDeltas("d2", deltas2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunIncremental("d2"); err != nil {
		t.Fatal(err)
	}
	writeGraph(t, eng, "g2", adj)
	want2 := converge(t, eng, "pr-pdelta-ref2", "g2", 2)
	assertStatesClose(t, r.State(), want2, 1e-6, "incremental after fallback")
}

func TestCheckpointAndRestore(t *testing.T) {
	eng := newEngine(t, 2)
	rng := rand.New(rand.NewSource(6))
	adj := randomGraph(rng, 30, 3)
	writeGraph(t, eng, "g0", adj)

	r, err := NewRunner(eng, pageRankSpec("pr-ckpt"), Config{
		NumPartitions: 2, MaxIterations: 100, Epsilon: 1e-9, Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}
	saved := r.State()

	// Corrupt in-memory state, then restore from the checkpoint.
	r.mu.Lock()
	for p := range r.state {
		for k := range r.state[p] {
			r.state[p][k] = "999"
		}
	}
	r.mu.Unlock()
	if err := r.RestoreCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.State()) != fmt.Sprint(saved) {
		t.Fatal("restored state differs from checkpointed state")
	}
}

func TestRestoreWithoutCheckpointConfigured(t *testing.T) {
	eng := newEngine(t, 1)
	r, err := NewRunner(eng, pageRankSpec("pr-nockpt"), Config{NumPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RestoreCheckpoint(); err == nil {
		t.Fatal("RestoreCheckpoint succeeded without checkpointing enabled")
	}
}

func TestFaultToleranceWithInjectedFailures(t *testing.T) {
	eng := newEngine(t, 2)
	rng := rand.New(rand.NewSource(7))
	adj := randomGraph(rng, 40, 3)
	writeGraph(t, eng, "g0", adj)

	r, err := NewRunner(eng, pageRankSpec("pr-ft"), Config{
		NumPartitions: 2, MaxIterations: 100, Epsilon: 1e-9, Checkpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0"); err != nil {
		t.Fatal(err)
	}

	deltas := mutateGraph(rng, adj, 0.1)
	if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
		t.Fatal(err)
	}
	// Fail the first attempt of a reduce task in iteration 1 and a map
	// task in iteration 2 (task names follow core's naming scheme).
	eng.Cluster().InjectFailure(cluster.Failure{
		Task: "pr-ft/j2-it001/reduce-0000", Attempt: 1, Delay: 2 * time.Millisecond,
	})
	eng.Cluster().InjectFailure(cluster.Failure{
		Task: "pr-ft/j2-it002/map-0000", Attempt: 1, Delay: 2 * time.Millisecond,
	})
	res, err := r.RunIncremental("d")
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, e := range res.Events {
		if e.Failed {
			failures++
			if !e.Injected {
				t.Errorf("unexpected real failure: %+v", e)
			}
		}
	}
	if failures != 2 {
		t.Fatalf("timeline shows %d failures, want 2", failures)
	}
	// Results still correct after recovery.
	writeGraph(t, eng, "g1", adj)
	want := converge(t, eng, "pr-ft-ref", "g1", 2)
	assertStatesClose(t, r.State(), want, 1e-6, "after failures")
}

func TestLifecycleErrors(t *testing.T) {
	eng := newEngine(t, 1)
	r, err := NewRunner(eng, pageRankSpec("pr-life"), Config{NumPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunIncremental("d"); err == nil {
		t.Fatal("RunIncremental before RunInitial succeeded")
	}
	writeGraph(t, eng, "g", map[string][]string{"a": {"b"}, "b": {"a"}})
	if _, err := r.RunInitial("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("g"); err == nil {
		t.Fatal("second RunInitial succeeded")
	}
	if _, err := r.RunIncremental("missing-delta"); err == nil {
		t.Fatal("RunIncremental with missing delta succeeded")
	}
}

func TestReduceContractViolations(t *testing.T) {
	eng := newEngine(t, 2)
	writeGraph(t, eng, "g", map[string][]string{"a": {"b"}, "b": {"a"}})

	spec := pageRankSpec("pr-bad")
	spec.Reduce = func(k2 string, values []string, state iter.StateGetter, emit iter.Emit) error {
		emit(k2, "1")
		emit(k2, "2") // second emission violates the incremental contract
		return nil
	}
	r, err := NewRunner(eng, spec, Config{NumPartitions: 2, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g"); err != nil {
		t.Fatal(err)
	}
	if err := eng.FS().WriteAllDeltas("d", []kv.Delta{
		{Key: "a", Value: "b", Op: kv.OpDelete},
		{Key: "a", Value: "b", Op: kv.OpInsert},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunIncremental("d"); err == nil {
		t.Fatal("double state emission in incremental reduce succeeded")
	}
}

func TestStructureDeltaValidation(t *testing.T) {
	eng := newEngine(t, 1)
	writeGraph(t, eng, "g", map[string][]string{"a": {"b"}})
	r, err := NewRunner(eng, pageRankSpec("pr-badDelta"), Config{NumPartitions: 1, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g"); err != nil {
		t.Fatal(err)
	}
	// Deleting a record that does not exist must fail loudly.
	if err := eng.FS().WriteAllDeltas("d", []kv.Delta{
		{Key: "ghost", Value: "nope", Op: kv.OpDelete},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunIncremental("d"); err == nil {
		t.Fatal("deletion of nonexistent structure record succeeded")
	}
}

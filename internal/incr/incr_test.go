package incr

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mr"
)

func newEngine(t *testing.T, nodes int) *mr.Engine {
	t.Helper()
	root := t.TempDir()
	fs, err := dfs.New(dfs.Config{Root: root + "/dfs", BlockSize: 256, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: root + "/scratch"})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(fs, cl)
}

// The paper's Fig. 3 example: input records are adjacency lists
// "j1:w1;j2:w2", Map emits (j, w) per out-edge, Reduce sums in-edge
// weights per vertex.
var edgeWeightMapper = mr.MapperFunc(func(key, value string, emit mr.Emit) error {
	if value == "" {
		return nil
	}
	for _, part := range strings.Split(value, ";") {
		j, w, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bad edge %q", part)
		}
		emit(j, w)
	}
	return nil
})

var sumWeightsReducer = mr.ReducerFunc(func(key string, values []string, emit mr.Emit) error {
	var sum float64
	for _, v := range values {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		sum += f
	}
	emit(key, strconv.FormatFloat(sum, 'g', 12, 64))
	return nil
})

// recompute runs the same computation from scratch with the plain MR
// engine — the ground truth incremental processing must match.
func recompute(t *testing.T, eng *mr.Engine, input string, n int) map[string]string {
	t.Helper()
	out := fmt.Sprintf("recompute-%s-%d", input, rand.Int())
	if _, err := eng.Run(mr.Job{
		Name: "recompute", Input: input, Output: out,
		Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: n,
	}); err != nil {
		t.Fatal(err)
	}
	ps, err := eng.ReadOutput(out, n)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, p := range ps {
		m[p.Key] = p.Value
	}
	return m
}

// outs reads the runner's current result set, failing the test on
// store errors.
func outs(t *testing.T, r *Runner) []kv.Pair {
	t.Helper()
	ps, err := r.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func outputsAsMap(ps []kv.Pair) map[string]string {
	m := map[string]string{}
	for _, p := range ps {
		m[p.Key] = p.Value
	}
	return m
}

func TestPaperFig3Scenario(t *testing.T) {
	eng := newEngine(t, 2)
	// Initial graph from Fig. 3 (a).
	initial := []kv.Pair{
		{Key: "0", Value: "1:0.3;2:0.3"},
		{Key: "1", Value: "2:0.4"},
		{Key: "2", Value: "0:0.5"},
	}
	if err := eng.FS().WriteAllPairs("graph-v1", initial); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{
		Name: "inedge", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("graph-v1", "out-v1"); err != nil {
		t.Fatal(err)
	}
	want := recompute(t, eng, "graph-v1", 2)
	if got := outputsAsMap(outs(t, r)); !reflect.DeepEqual(got, want) {
		t.Fatalf("initial outputs = %v, want %v", got, want)
	}

	// Fig. 3 (b): delete vertex 1, insert vertex 3, modify vertex 0.
	delta := []kv.Delta{
		{Key: "1", Value: "2:0.4", Op: kv.OpDelete},
		{Key: "3", Value: "0:0.1", Op: kv.OpInsert},
		{Key: "0", Value: "1:0.3;2:0.3", Op: kv.OpDelete},
		{Key: "0", Value: "2:0.6", Op: kv.OpInsert},
	}
	if err := eng.FS().WriteAllDeltas("graph-delta", delta); err != nil {
		t.Fatal(err)
	}
	updated := []kv.Pair{
		{Key: "0", Value: "2:0.6"},
		{Key: "2", Value: "0:0.5"},
		{Key: "3", Value: "0:0.1"},
	}
	if err := eng.FS().WriteAllPairs("graph-v2", updated); err != nil {
		t.Fatal(err)
	}

	rep, err := r.RunDelta("graph-delta", "out-v2")
	if err != nil {
		t.Fatal(err)
	}
	want2 := recompute(t, eng, "graph-v2", 2)
	if got := outputsAsMap(outs(t, r)); !reflect.DeepEqual(got, want2) {
		t.Fatalf("incremental outputs = %v, want %v", got, want2)
	}
	// Vertex 1 lost its only in-edge (from nobody) — actually vertex 1
	// as a reduce key must disappear: only record "0" pointed at 1.
	if _, ok := outputsAsMap(outs(t, r))["1"]; ok {
		t.Fatal("vertex 1 still has an in-edge sum after its last in-edge was deleted")
	}
	// The DFS output matches the in-memory view.
	ps, err := eng.ReadOutput("out-v2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outputsAsMap(ps), want2) {
		t.Fatalf("DFS outputs = %v, want %v", outputsAsMap(ps), want2)
	}
	if rep.Counter("delta.edges") == 0 {
		t.Fatal("no delta edges recorded")
	}
}

func TestIncrementalMatchesRecomputeRandomized(t *testing.T) {
	eng := newEngine(t, 3)
	rng := rand.New(rand.NewSource(11))
	const nVertices = 40

	mkValue := func() string {
		n := rng.Intn(4) + 1
		seen := map[int]bool{}
		var parts []string
		for len(parts) < n {
			j := rng.Intn(nVertices)
			if seen[j] {
				continue
			}
			seen[j] = true
			parts = append(parts, fmt.Sprintf("%d:%.2f", j, rng.Float64()))
		}
		return strings.Join(parts, ";")
	}

	current := map[string]string{}
	for i := 0; i < nVertices; i++ {
		current[strconv.Itoa(i)] = mkValue()
	}
	writeCurrent := func(path string) {
		var ps []kv.Pair
		for k, v := range current {
			ps = append(ps, kv.Pair{Key: k, Value: v})
		}
		kv.SortPairs(ps)
		if err := eng.FS().WriteAllPairs(path, ps); err != nil {
			t.Fatal(err)
		}
	}
	writeCurrent("g0")

	r, err := NewRunner(eng, Job{
		Name: "rand", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g0", "o0"); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 5; round++ {
		var delta []kv.Delta
		// Modify ~20% of vertices; delete a couple; insert new ones.
		for k, v := range current {
			switch rng.Intn(10) {
			case 0:
				delta = append(delta, kv.Delta{Key: k, Value: v, Op: kv.OpDelete})
				delete(current, k)
			case 1, 2:
				nv := mkValue()
				delta = append(delta, kv.Delta{Key: k, Value: v, Op: kv.OpDelete})
				delta = append(delta, kv.Delta{Key: k, Value: nv, Op: kv.OpInsert})
				current[k] = nv
			}
		}
		nk := strconv.Itoa(nVertices + round)
		nv := mkValue()
		delta = append(delta, kv.Delta{Key: nk, Value: nv, Op: kv.OpInsert})
		current[nk] = nv

		dPath := fmt.Sprintf("d%d", round)
		if err := eng.FS().WriteAllDeltas(dPath, delta); err != nil {
			t.Fatal(err)
		}
		gPath := fmt.Sprintf("g%d", round)
		writeCurrent(gPath)

		if _, err := r.RunDelta(dPath, fmt.Sprintf("o%d", round)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := recompute(t, eng, gPath, 3)
		got := outputsAsMap(outs(t, r))
		if len(got) != len(want) {
			t.Fatalf("round %d: %d keys, want %d", round, len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			gf, _ := strconv.ParseFloat(g, 64)
			wf, _ := strconv.ParseFloat(w, 64)
			if diff := gf - wf; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("round %d key %s: %s, want %s", round, k, g, w)
			}
		}
	}
	// Store invariants hold after many merge rounds.
	for _, s := range r.Stores() {
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnlyAffectedInstancesReReduced(t *testing.T) {
	eng := newEngine(t, 2)
	var ps []kv.Pair
	for i := 0; i < 100; i++ {
		ps = append(ps, kv.Pair{Key: strconv.Itoa(i), Value: fmt.Sprintf("%d:1.0", (i+1)%100)})
	}
	if err := eng.FS().WriteAllPairs("g", ps); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{
		Name: "affected", Mapper: edgeWeightMapper, Reducer: sumWeightsReducer, NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("g", "o0"); err != nil {
		t.Fatal(err)
	}
	// One record modified: only one reduce key (its target vertex — and
	// the new target) can be affected.
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
	if n := rep.Counter("reduce.instances"); n > 2 {
		t.Fatalf("re-reduced %d instances, want <= 2 (vertices 6 and 7)", n)
	}
	want := outputsAsMap(outs(t, r))
	if want["7"] != "3" && !strings.HasPrefix(want["7"], "3") {
		t.Fatalf("vertex 7 sum = %q, want 3 (1.0 existing + 2.0 new)", want["7"])
	}
}

func TestFineGrainWordCountWithDuplicateEmissions(t *testing.T) {
	// One record emits the same K2 several times; the occurrence-aware
	// MK must keep edges distinct and deletions exact.
	eng := newEngine(t, 2)
	wcMap := mr.MapperFunc(func(k, v string, emit mr.Emit) error {
		for _, w := range strings.Fields(v) {
			emit(w, "1")
		}
		return nil
	})
	wcReduce := mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error {
		emit(k, strconv.Itoa(len(vs)))
		return nil
	})
	if err := eng.FS().WriteAllPairs("docs", []kv.Pair{
		{Key: "d1", Value: "go go go stop"},
		{Key: "d2", Value: "stop go"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{Name: "wc", Mapper: wcMap, Reducer: wcReduce, NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("docs", "o0"); err != nil {
		t.Fatal(err)
	}
	got := outputsAsMap(outs(t, r))
	if got["go"] != "4" || got["stop"] != "2" {
		t.Fatalf("initial counts = %v", got)
	}
	// Delete d1 (three "go"s and one "stop" disappear), insert d3.
	delta := []kv.Delta{
		{Key: "d1", Value: "go go go stop", Op: kv.OpDelete},
		{Key: "d3", Value: "go", Op: kv.OpInsert},
	}
	if err := eng.FS().WriteAllDeltas("d", delta); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunDelta("d", "o1"); err != nil {
		t.Fatal(err)
	}
	got = outputsAsMap(outs(t, r))
	if got["go"] != "2" || got["stop"] != "1" {
		t.Fatalf("refreshed counts = %v, want go:2 stop:1", got)
	}
}

func TestAccumulatorMode(t *testing.T) {
	eng := newEngine(t, 2)
	wcMap := mr.MapperFunc(func(k, v string, emit mr.Emit) error {
		for _, w := range strings.Fields(v) {
			emit(w, "1")
		}
		return nil
	})
	wcReduce := mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error {
		emit(k, strconv.Itoa(len(vs)))
		return nil
	})
	sumAcc := func(old, new string) string {
		a, _ := strconv.Atoi(old)
		b, _ := strconv.Atoi(new)
		return strconv.Itoa(a + b)
	}
	if err := eng.FS().WriteAllPairs("docs", []kv.Pair{
		{Key: "d1", Value: "alpha beta alpha"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{
		Name: "wc-acc", Mapper: wcMap, Reducer: wcReduce, NumReducers: 2, Accumulate: sumAcc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Stores()) != 0 {
		t.Fatal("accumulator job created MRBG stores")
	}
	if _, err := r.RunInitial("docs", "o0"); err != nil {
		t.Fatal(err)
	}
	delta := []kv.Delta{
		{Key: "d2", Value: "alpha gamma", Op: kv.OpInsert},
	}
	if err := eng.FS().WriteAllDeltas("d", delta); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunDelta("d", "o1"); err != nil {
		t.Fatal(err)
	}
	got := outputsAsMap(outs(t, r))
	want := map[string]string{"alpha": "3", "beta": "1", "gamma": "1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulated = %v, want %v", got, want)
	}
}

// TestAccumulatorEmptyGroupTreatedAsAbsent is the regression for the
// old[0] panic: Store.Get reports ok for a group materialized with
// zero pairs (a reduce that emitted nothing), and the accumulate path
// indexed old[0] unconditionally. An empty preserved group must fold
// like an absent one.
func TestAccumulatorEmptyGroupTreatedAsAbsent(t *testing.T) {
	eng := newEngine(t, 2)
	wcMap := mr.MapperFunc(func(k, v string, emit mr.Emit) error {
		for _, w := range strings.Fields(v) {
			emit(w, "1")
		}
		return nil
	})
	wcReduce := mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error {
		emit(k, strconv.Itoa(len(vs)))
		return nil
	})
	sumAcc := func(old, new string) string {
		a, _ := strconv.Atoi(old)
		b, _ := strconv.Atoi(new)
		return strconv.Itoa(a + b)
	}
	if err := eng.FS().WriteAllPairs("docs", []kv.Pair{{Key: "d1", Value: "alpha beta"}}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, Job{
		Name: "wc-acc-empty", Mapper: wcMap, Reducer: wcReduce, NumReducers: 2, Accumulate: sumAcc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("docs", "o0"); err != nil {
		t.Fatal(err)
	}
	// Materialize "gamma" as an EMPTY group in its owning partition's
	// result store, durably.
	p := kv.Partition("gamma", 2)
	res := r.Results()[p]
	res.Set("gamma", nil)
	if err := res.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if old, ok, err := res.Get("gamma"); err != nil || !ok || len(old) != 0 {
		t.Fatalf("precondition: Get(gamma) = %v %v %v, want ok with zero pairs", old, ok, err)
	}
	// The refresh accumulates into "gamma": before the fix this panicked
	// on old[0]; now the empty group folds like an absent one.
	delta := []kv.Delta{{Key: "d2", Value: "gamma gamma", Op: kv.OpInsert}}
	if err := eng.FS().WriteAllDeltas("d", delta); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunDelta("d", "o1"); err != nil {
		t.Fatal(err)
	}
	got := outputsAsMap(outs(t, r))
	if got["gamma"] != "2" {
		t.Fatalf("gamma = %q, want 2 (empty group folded as absent)", got["gamma"])
	}
}

func TestAccumulatorRejectsDeletions(t *testing.T) {
	eng := newEngine(t, 1)
	r, err := NewRunner(eng, Job{
		Name:    "acc-del",
		Mapper:  mr.MapperFunc(func(k, v string, emit mr.Emit) error { emit(k, v); return nil }),
		Reducer: mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error { emit(k, vs[0]); return nil }),
		Accumulate: func(old, new string) string {
			return new
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := eng.FS().WriteAllPairs("in", []kv.Pair{{Key: "a", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("in", "o0"); err != nil {
		t.Fatal(err)
	}
	if err := eng.FS().WriteAllDeltas("d", []kv.Delta{{Key: "a", Value: "1", Op: kv.OpDelete}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunDelta("d", "o1"); err == nil {
		t.Fatal("accumulator job accepted a deletion")
	}
	// The refresh died in its map phase, before any fold: it must not
	// leave the intent marker that makes Open refuse the state.
	if _, err := os.Stat(r.refreshIntentPath(0)); !os.IsNotExist(err) {
		t.Fatalf("rejected refresh left an intent marker behind (err=%v)", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	eng := newEngine(t, 1)
	mkJob := func() Job {
		return Job{
			Name:    "life",
			Mapper:  edgeWeightMapper,
			Reducer: sumWeightsReducer,
		}
	}
	if _, err := NewRunner(eng, Job{}); err == nil {
		t.Fatal("NewRunner without name/mapper succeeded")
	}
	r, err := NewRunner(eng, mkJob())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunDelta("d", "o"); err == nil {
		t.Fatal("RunDelta before RunInitial succeeded")
	}
	if err := eng.FS().WriteAllPairs("in", []kv.Pair{{Key: "0", Value: "1:1.0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("in", "o0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("in", "o1"); err == nil {
		t.Fatal("second RunInitial succeeded")
	}
}

package core

// Engine-equivalence tests for the shared streaming shuffle runtime
// (internal/shuffle): the iter and core engines must produce
// byte-identical final state at any partition count and any shuffle
// memory budget — including budgets small enough to force spilling —
// because the runtime's (key, value)-ordered merge makes reduce groups
// independent of run boundaries.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

// spillRuns sums the spill counter over per-iteration stats.
func spillRuns(stats []IterStats) int64 {
	var n int64
	for _, s := range stats {
		n += s.Stages.Counters[metrics.CounterSpillRuns]
	}
	return n
}

func iterSpillRuns(stats []iter.IterationStats) int64 {
	var n int64
	for _, s := range stats {
		n += s.Stages.Counters[metrics.CounterSpillRuns]
	}
	return n
}

func assertStatesIdentical(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d state keys, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		if gv, ok := got[k]; !ok || gv != wv {
			t.Fatalf("%s: state[%q] = %q, want %q (engines must agree byte-for-byte)", label, k, gv, wv)
		}
	}
}

// TestIterCoreEquivalenceAcrossPartitionsAndBudgets is the acceptance
// test of the shuffle refactor: both engines run the same PageRank on
// the shared runtime, across partition counts, with spilling disabled
// (large/no budget) and with a budget small enough to force spills, and
// every configuration must converge to the identical final state.
func TestIterCoreEquivalenceAcrossPartitionsAndBudgets(t *testing.T) {
	adj := randomGraph(rand.New(rand.NewSource(7)), 60, 4)

	type run struct {
		parts  int
		budget int64
	}
	runs := []run{
		{parts: 1, budget: 0},       // single partition, in memory
		{parts: 3, budget: 0},       // multi-partition, in memory
		{parts: 3, budget: 1 << 20}, // budget present but roomy: no spills
		{parts: 3, budget: 256},     // tiny: every map task spills repeatedly
		{parts: 4, budget: 256},
	}

	var want map[string]string
	for _, rn := range runs {
		label := fmt.Sprintf("parts=%d/budget=%d", rn.parts, rn.budget)

		// iterMR on the shared runtime.
		eng := newEngine(t, 3)
		writeGraph(t, eng, "g", adj)
		ir, err := iter.NewRunner(eng, pageRankSpec("equiv-iter"), iter.Config{
			NumPartitions: rn.parts, MaxIterations: 100, Epsilon: 1e-10,
			ShuffleMemoryBudget: rn.budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.LoadStructure("g"); err != nil {
			t.Fatal(err)
		}
		ires, err := ir.Run()
		if err != nil {
			t.Fatalf("%s: iter: %v", label, err)
		}
		if !ires.Converged {
			t.Fatalf("%s: iter did not converge", label)
		}

		// core's full-pass loop on the shared runtime.
		ceng := newEngine(t, 3)
		writeGraph(t, ceng, "g", adj)
		cr, err := NewRunner(ceng, pageRankSpec("equiv-core"), Config{
			NumPartitions: rn.parts, MaxIterations: 100, Epsilon: 1e-10,
			ShuffleMemoryBudget: rn.budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cr.Close()
		cres, err := cr.RunInitial("g")
		if err != nil {
			t.Fatalf("%s: core: %v", label, err)
		}
		if !cres.Converged {
			t.Fatalf("%s: core did not converge", label)
		}

		assertStatesIdentical(t, cr.State(), ir.State(), label+": core vs iter")
		if want == nil {
			want = ir.State()
		} else {
			// Every configuration agrees with every other one.
			assertStatesIdentical(t, ir.State(), want, label+": vs first configuration")
		}
		if ires.Iterations != cres.Iterations {
			t.Fatalf("%s: iter took %d iterations, core %d", label, ires.Iterations, cres.Iterations)
		}

		iSpills, cSpills := iterSpillRuns(ires.PerIter), spillRuns(cres.PerIter)
		if rn.budget == 256 {
			if iSpills == 0 {
				t.Fatalf("%s: iter spilled no runs under a tiny budget", label)
			}
			if cSpills == 0 {
				t.Fatalf("%s: core spilled no runs under a tiny budget", label)
			}
		} else {
			if iSpills != 0 || cSpills != 0 {
				t.Fatalf("%s: unexpected spills (iter=%d core=%d)", label, iSpills, cSpills)
			}
		}
	}
}

// TestReplicateStateEquivalenceWithSpilling runs the all-to-one path
// (Kmeans-shaped: replicated state, AssembleState) on both engines with
// and without forced spilling.
func TestReplicateStateEquivalenceWithSpilling(t *testing.T) {
	spec := Spec{
		Name: "equiv-km",
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
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 100
		}
		points = append(points, kv.Pair{
			Key:   fmt.Sprintf("p%04d", i),
			Value: strconv.FormatFloat(base+rng.Float64()*5, 'g', 17, 64),
		})
	}
	init := map[string]string{"c": "10,60"}

	var want map[string]string
	for _, budget := range []int64{0, 128} {
		label := fmt.Sprintf("budget=%d", budget)
		eng := newEngine(t, 2)
		if err := eng.FS().WriteAllPairs("pts", points); err != nil {
			t.Fatal(err)
		}
		ir, err := iter.NewRunner(eng, spec, iter.Config{
			NumPartitions: 2, MaxIterations: 40, Epsilon: 1e-9,
			InitialState: init, ShuffleMemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.LoadStructure("pts"); err != nil {
			t.Fatal(err)
		}
		ires, err := ir.Run()
		if err != nil {
			t.Fatalf("%s: iter: %v", label, err)
		}
		if !ires.Converged {
			t.Fatalf("%s: iter did not converge", label)
		}

		ceng := newEngine(t, 2)
		if err := ceng.FS().WriteAllPairs("pts", points); err != nil {
			t.Fatal(err)
		}
		cr, err := NewRunner(ceng, spec, Config{
			NumPartitions: 2, MaxIterations: 40, Epsilon: 1e-9,
			InitialState: init, ShuffleMemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cr.Close()
		if _, err := cr.RunInitial("pts"); err != nil {
			t.Fatalf("%s: core: %v", label, err)
		}

		assertStatesIdentical(t, cr.State(), ir.State(), label+": core vs iter")
		if want == nil {
			want = ir.State()
		} else {
			assertStatesIdentical(t, ir.State(), want, label+": vs in-memory run")
		}
		if budget > 0 && iterSpillRuns(ires.PerIter) == 0 {
			t.Fatalf("%s: no spills under a tiny budget", label)
		}
	}
}

// TestIncrementalRefreshUnaffectedByBudget runs the full i2MapReduce
// lifecycle (initial + incremental delta) at both budgets and checks
// the refreshed states agree: the budget must change memory behaviour,
// never results.
func TestIncrementalRefreshUnaffectedByBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	adj := randomGraph(rng, 50, 4)

	var want map[string]string
	var wantChunks []string
	for _, budget := range []int64{0, 256} {
		label := fmt.Sprintf("budget=%d", budget)
		eng := newEngine(t, 3)
		writeGraph(t, eng, "g0", adj)
		var deltas []kv.Delta
		// Rewire a few vertices: delete the old record, insert a new one.
		for i := 0; i < 5; i++ {
			v := fmt.Sprintf("v%03d", i*7)
			old := strings.Join(adj[v], " ")
			deltas = append(deltas, kv.Delta{Key: v, Value: old, Op: kv.OpDelete})
			deltas = append(deltas, kv.Delta{Key: v, Value: fmt.Sprintf("v%03d", (i*7+1)%50), Op: kv.OpInsert})
		}
		if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(eng, pageRankSpec("equiv-inc"), Config{
			NumPartitions: 3, MaxIterations: 100, Epsilon: 1e-10,
			ShuffleMemoryBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.RunInitial("g0"); err != nil {
			t.Fatalf("%s: initial: %v", label, err)
		}
		res, err := r.RunIncremental("d")
		if err != nil {
			t.Fatalf("%s: incremental: %v", label, err)
		}
		// The budget bounds the incremental iterations too: their delta
		// MRBGraph spills like any other intermediate data.
		if runs := res.Report.Counter(metrics.CounterSpillRuns); (runs > 0) != (budget > 0) {
			t.Errorf("%s: incremental refresh reports %d spill runs", label, runs)
		}
		if want == nil {
			want, wantChunks = r.State(), storeChunks(t, r)
		} else {
			assertStatesIdentical(t, r.State(), want, label)
			if got := storeChunks(t, r); fmt.Sprint(got) != fmt.Sprint(wantChunks) {
				t.Errorf("%s: preserved MRBGraph differs from the in-memory run's", label)
			}
		}
	}
}

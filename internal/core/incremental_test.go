package core

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
)

// storeChunks renders every preserved chunk of every partition, in
// order: two runners hold the same MRBGraph iff these are equal.
func storeChunks(t *testing.T, r *Runner) []string {
	t.Helper()
	var out []string
	for p, st := range r.Stores() {
		err := st.AllChunks(func(c mrbg.Chunk) error {
			out = append(out, fmt.Sprintf("p%d %s %v", p, c.Key, c.Edges))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRetriedIncrementalReducePropagates fails the refresh's k-th Reduce
// call once, for a sweep of k, and requires the retried refresh to be
// indistinguishable from the fault-free one: same iteration count, same
// propagation in every iteration, same final state. A reduce attempt
// that applied its baseline updates as it went would, on retry, see no
// change for the keys it had already handled and stop propagating them.
// The tiny-budget rows split the partition's merge into committed
// batches, so the retry also re-merges batches that already committed —
// including the one that removed vertex "aaa", whose removal must hold.
func TestRetriedIncrementalReducePropagates(t *testing.T) {
	type outcome struct {
		iterations         int
		propagated, remove []int
		state              map[string]string
	}
	run := func(t *testing.T, budget int64, failAt int64) outcome {
		rng := rand.New(rand.NewSource(1))
		adj := randomGraph(rng, 50, 3)
		adj["aaa"] = []string{"v000"} // no in-edges, sorts first: deleted below
		eng := newEngine(t, 1)
		writeGraph(t, eng, "g0", adj)
		delete(adj, "aaa")
		deltas := append([]kv.Delta{{Key: "aaa", Value: "v000", Op: kv.OpDelete}}, mutateGraph(rng, adj, 0.1)...)
		if err := eng.FS().WriteAllDeltas("d", deltas); err != nil {
			t.Fatal(err)
		}

		var armed atomic.Bool
		var calls atomic.Int64
		spec := pageRankSpec("pr-retry")
		reduce := spec.Reduce
		spec.Reduce = func(k2 string, values []string, state iter.StateGetter, emit iter.Emit) error {
			if armed.Load() && calls.Add(1) == failAt {
				return errors.New("injected reduce failure")
			}
			return reduce(k2, values, state, emit)
		}
		r, err := NewRunner(eng, spec, Config{
			NumPartitions: 1, MaxIterations: 300, Epsilon: 1e-10, ShuffleMemoryBudget: budget,
			PDeltaThreshold: 1, // never fall back: every iteration stays incremental
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.RunInitial("g0"); err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		res, err := r.RunIncremental("d")
		if err != nil {
			t.Fatal(err)
		}
		if failAt > 0 && calls.Load() < failAt {
			t.Fatalf("refresh made only %d Reduce calls; failure %d never fired", calls.Load(), failAt)
		}
		o := outcome{iterations: res.Iterations, state: r.State()}
		for _, s := range res.PerIter {
			o.propagated = append(o.propagated, s.Propagated)
			o.remove = append(o.remove, s.Removed)
		}
		return o
	}

	for _, budget := range []int64{0, 256} {
		want := run(t, budget, 0)
		if want.iterations < 10 || want.remove[0] != 1 {
			t.Fatalf("budget=%d: fault-free refresh ran %d iterations, removed %v; the scenario lost its point", budget, want.iterations, want.remove)
		}
		if _, ok := want.state["aaa"]; ok {
			t.Fatalf("budget=%d: deleted vertex kept its state", budget)
		}
		for _, failAt := range []int64{1, 5, 20, 60} {
			label := fmt.Sprintf("budget=%d failAt=%d", budget, failAt)
			got := run(t, budget, failAt)
			if got.iterations != want.iterations {
				t.Errorf("%s: %d iterations, fault-free %d", label, got.iterations, want.iterations)
			}
			if fmt.Sprint(got.propagated) != fmt.Sprint(want.propagated) {
				t.Errorf("%s: propagated per iteration %v, fault-free %v", label, got.propagated, want.propagated)
			}
			if fmt.Sprint(got.remove) != fmt.Sprint(want.remove) {
				t.Errorf("%s: removed per iteration %v, fault-free %v", label, got.remove, want.remove)
			}
			assertStatesIdentical(t, got.state, want.state, label)
		}
	}
}

// TestSameRecordDeltaNetsInFileOrder pins the apply order of delta
// records that touch the same (K2, MK): a '-' followed by a '+' of the
// identical record nets to the insertion (the MRBGraph and the state
// stay as they were), and a '+' followed by a '-' nets to the deletion (the
// record never existed) — with everything in memory, and with a budget
// so small that the two records' edges land in different spill runs.
func TestSameRecordDeltaNetsInFileOrder(t *testing.T) {
	adj := randomGraph(rand.New(rand.NewSource(5)), 30, 3)
	existing := kv.Delta{Key: "v007", Value: strings.Join(adj["v007"], " ")}
	fresh := kv.Delta{Key: "x", Value: "v001"}
	op := func(d kv.Delta, o kv.Op) kv.Delta { d.Op = o; return d }

	for _, budget := range []int64{0, 48} {
		for _, tc := range []struct {
			name   string
			deltas []kv.Delta
		}{
			{"delete-then-insert", []kv.Delta{op(existing, kv.OpDelete), op(existing, kv.OpInsert)}},
			{"insert-then-delete", []kv.Delta{op(fresh, kv.OpInsert), op(fresh, kv.OpDelete)}},
		} {
			label := fmt.Sprintf("budget=%d %s", budget, tc.name)
			eng := newEngine(t, 2)
			writeGraph(t, eng, "g0", adj)
			if err := eng.FS().WriteAllDeltas("d", tc.deltas); err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(eng, pageRankSpec("pr-order"), Config{
				NumPartitions: 2, MaxIterations: 200, Epsilon: 1e-10, ShuffleMemoryBudget: budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.RunInitial("g0"); err != nil {
				t.Fatal(err)
			}
			state, chunks := r.State(), storeChunks(t, r)
			res, err := r.RunIncremental("d")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if budget > 0 && res.Report.Counter(metrics.CounterSpillRuns) == 0 {
				t.Errorf("%s: the refresh spilled nothing; the order was not tested across runs", label)
			}
			if res.Iterations != 1 || res.PerIter[0].Propagated != 0 || res.PerIter[0].Removed != 0 {
				t.Errorf("%s: a delta that nets to nothing ran %d iterations: %+v", label, res.Iterations, res.PerIter[0])
			}
			// Re-reduced keys sum their values in MK order, so they may
			// move in the last digits; nothing may move by more.
			assertStatesClose(t, r.State(), state, 1e-9, label)
			if got := storeChunks(t, r); fmt.Sprint(got) != fmt.Sprint(chunks) {
				t.Errorf("%s: the preserved MRBGraph changed:\n got %v\nwant %v", label, got, chunks)
			}
		}
	}
}

// TestPassesLeaveNoShuffleScratch checks what every pass owes the next
// one: under a budget that makes every kind of pass spill — full
// iterations, the preserve pass, incremental iterations, the
// full-refresh merge — no file survives under any node's core-shuffle/
// once the job returns, whether it succeeded or its Reduce failed every
// attempt.
func TestPassesLeaveNoShuffleScratch(t *testing.T) {
	root := t.TempDir()
	eng := engineAt(t, root, 3)
	rng := rand.New(rand.NewSource(9))
	adj := randomGraph(rng, 50, 4)
	writeGraph(t, eng, "g0", adj)
	for i := 1; i <= 3; i++ {
		if err := eng.FS().WriteAllDeltas(fmt.Sprintf("d%d", i), mutateGraph(rng, adj, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	assertNoScratch := func(label string) {
		t.Helper()
		nodes, err := filepath.Glob(filepath.Join(root, "scratch", "node-*", "core-shuffle"))
		if err != nil || len(nodes) == 0 {
			t.Fatalf("%s: no core-shuffle directory was ever created (%v); nothing spilled", label, err)
		}
		for _, dir := range nodes {
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					t.Errorf("%s: left %s", label, path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	var failing atomic.Bool
	spec := pageRankSpec("pr-scratch")
	reduce := spec.Reduce
	spec.Reduce = func(k2 string, values []string, state iter.StateGetter, emit iter.Emit) error {
		if failing.Load() {
			return errors.New("injected reduce failure")
		}
		return reduce(k2, values, state, emit)
	}
	r, err := NewRunner(eng, spec, Config{
		NumPartitions: 3, MaxIterations: 200, Epsilon: 1e-10, ShuffleMemoryBudget: 256,
		PDeltaThreshold: 1, // never fall back: RunIncremental stays incremental
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, job := range []struct {
		label string
		run   func() (*Result, error)
	}{
		{"RunInitial", func() (*Result, error) { return r.RunInitial("g0") }},
		{"RunIncremental", func() (*Result, error) { return r.RunIncremental("d1") }},
		{"RunIncrementalFull", func() (*Result, error) { return r.RunIncrementalFull("d2") }},
	} {
		res, err := job.run()
		if err != nil {
			t.Fatalf("%s: %v", job.label, err)
		}
		if res.Report.Counter(metrics.CounterSpillRuns) == 0 {
			t.Errorf("%s: spilled nothing under a 256 B budget", job.label)
		}
		if res.MRBGDisabledAt != 0 {
			t.Errorf("%s: fell back to full passes; the incremental passes went untested", job.label)
		}
		assertNoScratch(job.label)
	}
	failing.Store(true)
	if _, err := r.RunIncremental("d3"); err == nil {
		t.Fatal("a refresh whose Reduce always fails succeeded")
	}
	assertNoScratch("failed RunIncremental")
}

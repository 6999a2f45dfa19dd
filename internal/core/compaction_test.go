package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
)

// The MRBG-Store's compaction trigger (mrbg/compact.go).
const (
	compactRatio = 8
	compactFloor = 64 << 10
)

// churnGraph rewires a few vertices, now and then deletes one (its
// chunk empties out once nothing links to it) and adds one.
func churnGraph(rng *rand.Rand, adj map[string][]string, next *int) []kv.Delta {
	deltas := mutateGraph(rng, adj, 0.02)
	keys := make([]string, 0, len(adj))
	for v := range adj {
		keys = append(keys, v)
	}
	kvSortStrings(keys)
	if rng.Intn(3) == 0 {
		v := keys[rng.Intn(len(keys))]
		deltas = append(deltas, kv.Delta{Key: v, Value: strings.Join(adj[v], " "), Op: kv.OpDelete})
		delete(adj, v)
	}
	if rng.Intn(3) == 0 {
		v := fmt.Sprintf("n%03d", *next)
		*next++
		adj[v] = []string{keys[rng.Intn(len(keys))]}
		deltas = append(deltas, kv.Delta{Key: v, Value: adj[v][0], Op: kv.OpInsert})
	}
	return deltas
}

// TestRefreshesKeepSpaceBounded is the iterative engine's space bound:
// 200 small PageRank refreshes, checkpointed every iteration, and after
// each one every MRBG shard file is within 9x its live bytes (plus the
// floor below which nothing compacts) and every index log within 3x its
// folded size. No compaction runs between the iterations of a refresh.
// State and preserved MRBGraph stay identical to a runner that never
// compacts, across a kill-and-reopen, and end at the fixed point a
// computation from scratch reaches.
func TestRefreshesKeepSpaceBounded(t *testing.T) {
	const refreshes = 200
	cfg := Config{
		NumPartitions: 2, MaxIterations: 60, Epsilon: 1e-6, CPC: true, FilterThreshold: 1e-2,
		Checkpoint: true, StoreOpts: mrbg.Options{Shards: 2},
	}
	rng := rand.New(rand.NewSource(17))
	adj := randomGraph(rng, 100, 4)
	root := t.TempDir()
	eng, ref := engineAt(t, root, 2), newEngine(t, 2)
	writeGraph(t, eng, "g0", adj)
	writeGraph(t, ref, "g0", adj)

	// The spec's Map sees every iteration of a refresh start: it reads
	// the compaction count there (no store lock is held during a map
	// wave), so a compaction between two iterations would show.
	var runner *Runner
	var atRefreshStart, duringRefresh atomic.Int64
	spec := pageRankSpec("pr")
	plainMap := spec.Map
	spec.Map = func(sk, sv, dk, dv string, emit iter.Emit) error {
		if r := runner; r != nil {
			if n := mrbg.Totals(r.Stores()).Compactions; n != atRefreshStart.Load() {
				duringRefresh.Store(n)
			}
		}
		return plainMap(sk, sv, dk, dv, emit)
	}

	// The reference skips the per-iteration checkpoints too: they change
	// what is durable when, never the state or the chunks.
	plain := cfg
	plain.Checkpoint = false
	never, err := NewRunner(ref, pageRankSpec("pr"), plain)
	if err != nil {
		t.Fatal(err)
	}
	never.noCompact = true
	defer never.Close()
	first, err := NewRunner(eng, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Runner{first, never} {
		if _, err := r.RunInitial("g0"); err != nil {
			t.Fatal(err)
		}
	}
	runner = first
	defer func() { runner.Close() }()

	next := 0
	var compactions int64
	for i := 1; i <= refreshes; i++ {
		deltas := churnGraph(rng, adj, &next)
		path := fmt.Sprintf("delta-%d", i)
		atRefreshStart.Store(mrbg.Totals(runner.Stores()).Compactions)
		for _, r := range []*Runner{runner, never} {
			if err := r.eng.FS().WriteAllDeltas(path, deltas); err != nil {
				t.Fatal(err)
			}
			res, err := r.RunIncremental(path)
			if err != nil {
				t.Fatalf("refresh %d: %v", i, err)
			}
			if !res.Converged {
				t.Fatalf("refresh %d did not converge in %d iterations", i, res.Iterations)
			}
			if r == runner {
				compactions += res.Report.Counter(metrics.CounterMRBGCompactions)
			} else if n := res.Report.Counter(metrics.CounterMRBGCompactions); n != 0 {
				t.Fatalf("refresh %d: the reference runner compacted %d shards", i, n)
			}
		}
		if n := duringRefresh.Load(); n != 0 {
			t.Fatalf("refresh %d: compaction count moved to %d while iterations were running", i, n)
		}
		for p, st := range runner.Stores() {
			for sh, s := range st.ShardStats() {
				if s.FileBytes > (compactRatio+1)*s.LiveBytes+compactFloor {
					t.Fatalf("refresh %d, partition %d shard %d: file %d bytes, live %d", i, p, sh, s.FileBytes, s.LiveBytes)
				}
				if s.IndexLogBytes > 3*s.IndexFoldedBytes {
					t.Fatalf("refresh %d, partition %d shard %d: index log %d bytes, folded %d", i, p, sh, s.IndexLogBytes, s.IndexFoldedBytes)
				}
			}
		}
		if i%50 != 0 {
			continue
		}
		if i == 100 {
			// A kill between refreshes.
			if err := runner.Close(); err != nil {
				t.Fatal(err)
			}
			eng = engineAt(t, root, 2)
			reopened, err := Open(eng, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runner = reopened
		}
		assertStatesIdentical(t, runner.State(), never.State(), fmt.Sprintf("refresh %d vs never compacting", i))
		if got, want := storeChunks(t, runner), storeChunks(t, never); !reflect.DeepEqual(got, want) {
			t.Fatalf("refresh %d: preserved MRBGraph differs from the runner that never compacts", i)
		}
	}
	if compactions == 0 {
		t.Fatal("no refresh compacted anything: the bound was never exercised")
	}
	a, b := mrbg.Totals(runner.Stores()), mrbg.Totals(never.Stores())
	t.Logf("%d compactions; MRBG files %d bytes (live %d), %d bytes without compaction", compactions, a.FileBytes, a.LiveBytes, b.FileBytes)

	scratch := newEngine(t, 2)
	writeGraph(t, scratch, "g", adj)
	assertStatesClose(t, runner.State(), converge(t, scratch, "pr-ref", "g", 2), 0.05, "after 200 refreshes vs from scratch")
}

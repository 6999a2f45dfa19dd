package iter

import (
	"fmt"
	"math"
	"sort"
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

// pageRankSpec builds the paper's Algorithm 2 as an iter.Spec.
// Structure values are space-separated out-neighbour lists. Every map
// call emits a zero self-contribution so sink-free reduce groups exist
// for all vertices.
func pageRankSpec() Spec {
	return Spec{
		Name:    "pagerank-test",
		Project: func(sk string) string { return sk },
		Map: func(sk, sv, dk, dv string, emit Emit) error {
			rank, err := strconv.ParseFloat(dv, 64)
			if err != nil {
				return err
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
		Reduce: func(k2 string, values []string, state StateGetter, emit Emit) error {
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
		InitState:  func(dk string) string { return "1" },
		Difference: absDiff,
	}
}

func absDiff(prev, cur string) float64 {
	a, _ := strconv.ParseFloat(prev, 64)
	b, _ := strconv.ParseFloat(cur, 64)
	return math.Abs(a - b)
}

// offlinePageRank is the exact reference implementation.
func offlinePageRank(adj map[string][]string, iters int) map[string]float64 {
	rank := map[string]float64{}
	for v := range adj {
		rank[v] = 1
	}
	for it := 0; it < iters; it++ {
		next := map[string]float64{}
		for v := range adj {
			next[v] = 0
		}
		for v, outs := range adj {
			if len(outs) == 0 {
				continue
			}
			share := rank[v] / float64(len(outs))
			for _, j := range outs {
				next[j] += share
			}
		}
		for v := range adj {
			rank[v] = damping*next[v] + (1 - damping)
		}
	}
	return rank
}

func writeGraph(t *testing.T, eng *mr.Engine, path string, adj map[string][]string) {
	t.Helper()
	var ps []kv.Pair
	for v, outs := range adj {
		ps = append(ps, kv.Pair{Key: v, Value: strings.Join(outs, " ")})
	}
	kv.SortPairs(ps)
	if err := eng.FS().WriteAllPairs(path, ps); err != nil {
		t.Fatal(err)
	}
}

func testGraph() map[string][]string {
	// A small strongly-connected-ish graph with a few dangling refs.
	return map[string][]string{
		"a": {"b", "c"},
		"b": {"c"},
		"c": {"a"},
		"d": {"a", "c"},
		"e": {"a", "b", "d"},
		"f": {"e"},
		"g": {"f", "a"},
		"h": {"g"},
	}
}

func TestPageRankMatchesOfflineReference(t *testing.T) {
	eng := newEngine(t, 3)
	adj := testGraph()
	writeGraph(t, eng, "graph", adj)

	r, err := NewRunner(eng, pageRankSpec(), Config{NumPartitions: 3, MaxIterations: 30, Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("graph"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("converged after %d iterations; graph should need more", res.Iterations)
	}
	want := offlinePageRank(adj, res.Iterations)
	got := r.State()
	if len(got) != len(adj) {
		t.Fatalf("state has %d keys, want %d", len(got), len(adj))
	}
	for v, w := range want {
		g, _ := strconv.ParseFloat(got[v], 64)
		if math.Abs(g-w) > 1e-9 {
			t.Errorf("rank[%s] = %v, want %v", v, g, w)
		}
	}
}

func TestPageRankConvergesWithEpsilon(t *testing.T) {
	eng := newEngine(t, 2)
	writeGraph(t, eng, "graph", testGraph())
	r, err := NewRunner(eng, pageRankSpec(), Config{NumPartitions: 2, MaxIterations: 200, Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("graph"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	last := res.PerIter[len(res.PerIter)-1]
	if last.Changed != 0 {
		t.Fatalf("last iteration changed %d keys", last.Changed)
	}
	// Per-iteration stats recorded with stage timings.
	for i, s := range res.PerIter {
		if s.Duration <= 0 {
			t.Fatalf("iteration %d has no duration", i)
		}
	}
	if res.Report.Counter("iterations") != int64(res.Iterations) {
		t.Fatalf("iterations counter %d != %d", res.Report.Counter("iterations"), res.Iterations)
	}
}

func TestReduceEmittingForeignPartitionFails(t *testing.T) {
	eng := newEngine(t, 2)
	writeGraph(t, eng, "graph", map[string][]string{"a": {"b"}, "b": {"a"}})
	spec := pageRankSpec()
	spec.Reduce = func(k2 string, values []string, state StateGetter, emit Emit) error {
		emit("not-"+k2, "1") // wrong partition with high probability
		return nil
	}
	r, err := NewRunner(eng, spec, Config{NumPartitions: 2, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("graph"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("reduce emitting foreign state keys succeeded")
	}
}

// --- Kmeans (all-to-one, replicated state) ---

func kmeansSpec(k int) Spec {
	parseCentroids := func(s string) []float64 {
		parts := strings.Split(s, ",")
		cs := make([]float64, len(parts))
		for i, p := range parts {
			cs[i], _ = strconv.ParseFloat(p, 64)
		}
		return cs
	}
	return Spec{
		Name: "kmeans-test",
		Map: func(sk, sv, dk, dv string, emit Emit) error {
			x, err := strconv.ParseFloat(sv, 64)
			if err != nil {
				return err
			}
			cs := parseCentroids(dv)
			best, bestD := 0, math.Inf(1)
			for i, c := range cs {
				if d := math.Abs(x - c); d < bestD {
					best, bestD = i, d
				}
			}
			emit(strconv.Itoa(best), sv)
			return nil
		},
		Reduce: func(k2 string, values []string, state StateGetter, emit Emit) error {
			var sum float64
			for _, v := range values {
				f, _ := strconv.ParseFloat(v, 64)
				sum += f
			}
			emit(k2, strconv.FormatFloat(sum/float64(len(values)), 'g', 17, 64))
			return nil
		},
		Difference: func(prev, cur string) float64 {
			a, b := parseCentroids(prev), parseCentroids(cur)
			max := 0.0
			for i := range a {
				if i < len(b) {
					if d := math.Abs(a[i] - b[i]); d > max {
						max = d
					}
				}
			}
			return max
		},
		ReplicateState: true,
		AssembleState: func(prev map[string]string, outs []kv.Pair) map[string]string {
			cs := parseCentroids(prev["centroids"])
			for _, o := range outs {
				i, _ := strconv.Atoi(o.Key)
				v, _ := strconv.ParseFloat(o.Value, 64)
				if i >= 0 && i < len(cs) {
					cs[i] = v
				}
			}
			strs := make([]string, len(cs))
			for i, c := range cs {
				strs[i] = strconv.FormatFloat(c, 'g', 17, 64)
			}
			return map[string]string{"centroids": strings.Join(strs, ",")}
		},
	}
}

func TestKmeansReplicatedStateConverges(t *testing.T) {
	eng := newEngine(t, 2)
	var ps []kv.Pair
	// Two tight clusters around 0 and 100.
	for i := 0; i < 20; i++ {
		ps = append(ps, kv.Pair{Key: fmt.Sprintf("p%03d", i), Value: strconv.FormatFloat(float64(i%5), 'g', 10, 64)})
		ps = append(ps, kv.Pair{Key: fmt.Sprintf("q%03d", i), Value: strconv.FormatFloat(100+float64(i%5), 'g', 10, 64)})
	}
	if err := eng.FS().WriteAllPairs("points", ps); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(eng, kmeansSpec(2), Config{
		NumPartitions: 2,
		MaxIterations: 30,
		Epsilon:       1e-9,
		InitialState:  map[string]string{"centroids": "10,60"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("points"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("kmeans did not converge in %d iterations", res.Iterations)
	}
	got := r.State()["centroids"]
	parts := strings.Split(got, ",")
	c0, _ := strconv.ParseFloat(parts[0], 64)
	c1, _ := strconv.ParseFloat(parts[1], 64)
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	if math.Abs(c0-2) > 1e-6 || math.Abs(c1-102) > 1e-6 {
		t.Fatalf("centroids = (%v, %v), want (2, 102)", c0, c1)
	}
}

func TestReplicateStateRequiresInitialState(t *testing.T) {
	eng := newEngine(t, 1)
	if _, err := NewRunner(eng, kmeansSpec(2), Config{}); err == nil {
		t.Fatal("NewRunner without InitialState succeeded")
	}
}

// --- SSSP (one-to-one with StateGetter) ---

const inf = "inf"

func ssspSpec(source string) Spec {
	return Spec{
		Name:    "sssp-test",
		Project: func(sk string) string { return sk },
		Map: func(sk, sv, dk, dv string, emit Emit) error {
			if dv == inf {
				return nil
			}
			d, err := strconv.ParseFloat(dv, 64)
			if err != nil {
				return err
			}
			if sv == "" {
				return nil
			}
			for _, e := range strings.Split(sv, ";") {
				to, ws, ok := strings.Cut(e, ":")
				if !ok {
					return fmt.Errorf("bad edge %q", e)
				}
				w, err := strconv.ParseFloat(ws, 64)
				if err != nil {
					return err
				}
				emit(to, strconv.FormatFloat(d+w, 'g', 17, 64))
			}
			return nil
		},
		Reduce: func(k2 string, values []string, state StateGetter, emit Emit) error {
			best := math.Inf(1)
			if cur, ok := state(k2); ok && cur != inf {
				best, _ = strconv.ParseFloat(cur, 64)
			}
			improved := false
			for _, v := range values {
				f, _ := strconv.ParseFloat(v, 64)
				if f < best {
					best, improved = f, true
				}
			}
			if improved {
				emit(k2, strconv.FormatFloat(best, 'g', 17, 64))
			}
			return nil
		},
		InitState: func(dk string) string {
			if dk == source {
				return "0"
			}
			return inf
		},
		Difference: func(prev, cur string) float64 {
			if prev == cur {
				return 0
			}
			if prev == inf || cur == inf {
				return math.Inf(1)
			}
			return absDiff(prev, cur)
		},
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	eng := newEngine(t, 3)
	edges := map[string]map[string]float64{
		"s": {"a": 1, "b": 4},
		"a": {"b": 2, "c": 5},
		"b": {"c": 1},
		"c": {"d": 3},
		"d": {},
		"z": {"d": 1}, // unreachable from s
	}
	var ps []kv.Pair
	for u, nbrs := range edges {
		var parts []string
		var keys []string
		for v := range nbrs {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		for _, v := range keys {
			parts = append(parts, fmt.Sprintf("%s:%g", v, nbrs[v]))
		}
		ps = append(ps, kv.Pair{Key: u, Value: strings.Join(parts, ";")})
	}
	kv.SortPairs(ps)
	if err := eng.FS().WriteAllPairs("wgraph", ps); err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(eng, ssspSpec("s"), Config{NumPartitions: 3, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("wgraph"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SSSP did not converge")
	}
	want := map[string]string{"s": "0", "a": "1", "b": "3", "c": "4", "d": "7", "z": inf}
	got := r.State()
	for v, w := range want {
		if got[v] != w {
			t.Errorf("dist[%s] = %s, want %s", v, got[v], w)
		}
	}
}

// --- lifecycle and validation ---

func TestSpecValidation(t *testing.T) {
	eng := newEngine(t, 1)
	base := pageRankSpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no map", func(s *Spec) { s.Map = nil }},
		{"no reduce", func(s *Spec) { s.Reduce = nil }},
		{"no difference", func(s *Spec) { s.Difference = nil }},
		{"no project", func(s *Spec) { s.Project = nil }},
		{"no init state", func(s *Spec) { s.InitState = nil }},
		{"replicate without assemble", func(s *Spec) { s.ReplicateState = true }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if _, err := NewRunner(eng, s, Config{}); err == nil {
			t.Errorf("%s: NewRunner succeeded", c.name)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	eng := newEngine(t, 1)
	r, err := NewRunner(eng, pageRankSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("Run before LoadStructure succeeded")
	}
	writeGraph(t, eng, "g", map[string][]string{"a": {"a"}})
	if _, err := r.LoadStructure("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("g"); err == nil {
		t.Fatal("second LoadStructure succeeded")
	}
	if _, err := r.LoadStructure("missing"); err == nil {
		t.Fatal("LoadStructure on missing input succeeded")
	}
}

func TestStateSnapshotIsCopy(t *testing.T) {
	eng := newEngine(t, 2)
	writeGraph(t, eng, "g", testGraph())
	r, err := NewRunner(eng, pageRankSpec(), Config{NumPartitions: 2, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("g"); err != nil {
		t.Fatal(err)
	}
	snap := r.State()
	snap["a"] = "tampered"
	if r.State()["a"] == "tampered" {
		t.Fatal("State() exposes internal map")
	}
}

// runPageRank runs a converged PageRank with cfg and returns the
// result and final state.
func runPageRank(t *testing.T, cfg Config) (*Result, map[string]string) {
	t.Helper()
	eng := newEngine(t, 3)
	writeGraph(t, eng, "graph", testGraph())
	r, err := NewRunner(eng, pageRankSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadStructure("graph"); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.State()
}

func TestShuffleSpillBudgetPreservesResults(t *testing.T) {
	base := Config{NumPartitions: 3, MaxIterations: 50, Epsilon: 1e-10}
	resMem, stateMem := runPageRank(t, base)

	spilled := base
	spilled.ShuffleMemoryBudget = 128
	resSpill, stateSpill := runPageRank(t, spilled)

	var runs int64
	for _, s := range resSpill.PerIter {
		runs += s.Stages.Counters["shuffle.spill.runs"]
	}
	if runs == 0 {
		t.Fatal("128-byte budget spilled no runs")
	}
	if resMem.Iterations != resSpill.Iterations {
		t.Fatalf("spilling changed iteration count: %d vs %d", resSpill.Iterations, resMem.Iterations)
	}
	for k, v := range stateMem {
		if stateSpill[k] != v {
			t.Fatalf("state[%q] = %q with spilling, %q in memory", k, stateSpill[k], v)
		}
	}
}

func TestStructurePartitioningCoLocation(t *testing.T) {
	// Every structure record must land in the partition that owns its
	// projected state key (Eq. 1 = Eq. 2 with the same hash).
	eng := newEngine(t, 3)
	adj := testGraph()
	writeGraph(t, eng, "g", adj)
	r, err := NewRunner(eng, pageRankSpec(), Config{NumPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.LoadStructure("g")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counter("structure.records") != int64(len(adj)) {
		t.Fatalf("structure.records = %d, want %d", rep.Counter("structure.records"), len(adj))
	}
	for p := 0; p < 3; p++ {
		err := ReadStructFile(r.structPath(p), func(pr kv.Pair) error {
			if kv.Partition(pr.Key, 3) != p { // Project is identity here
				return fmt.Errorf("record %q in partition %d, owner %d", pr.Key, p, kv.Partition(pr.Key, 3))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// State keys of partition p are exactly the projected keys of
		// its structure records.
		for dk := range r.state[p] {
			if kv.Partition(dk, 3) != p {
				t.Fatalf("state key %q in partition %d", dk, p)
			}
		}
	}
}

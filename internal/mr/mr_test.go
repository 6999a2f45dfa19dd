package mr

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

func newEngine(t *testing.T, nodes int, blockSize int64) *Engine {
	t.Helper()
	return newEngineIn(t, t.TempDir(), nodes, blockSize)
}

// newEngineIn builds an engine whose DFS lives under root/dfs and whose
// node scratch dirs live under root/scratch.
func newEngineIn(t *testing.T, root string, nodes int, blockSize int64) *Engine {
	t.Helper()
	fs, err := dfs.New(dfs.Config{Root: root + "/dfs", BlockSize: blockSize, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: root + "/scratch"})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(fs, cl)
}

// wordCountMapper emits (word, 1) per whitespace-separated word in the
// value.
var wordCountMapper = MapperFunc(func(key, value string, emit Emit) error {
	for _, w := range strings.Fields(value) {
		emit(w, "1")
	}
	return nil
})

var sumReducer = ReducerFunc(func(key string, values []string, emit Emit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
	return nil
})

func writeLines(t *testing.T, e *Engine, path string, lines []string) {
	t.Helper()
	ps := make([]kv.Pair, len(lines))
	for i, l := range lines {
		ps[i] = kv.Pair{Key: fmt.Sprintf("line-%04d", i), Value: l}
	}
	if err := e.FS().WriteAllPairs(path, ps); err != nil {
		t.Fatal(err)
	}
}

func outputCounts(t *testing.T, e *Engine, output string, r int) map[string]int {
	t.Helper()
	ps, err := e.ReadOutput(output, r)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range ps {
		n, err := strconv.Atoi(p.Value)
		if err != nil {
			t.Fatalf("non-numeric count %q", p.Value)
		}
		if _, dup := got[p.Key]; dup {
			t.Fatalf("key %q appears in multiple groups", p.Key)
		}
		got[p.Key] = n
	}
	return got
}

// filesUnder lists every regular file below dir.
func filesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// assertJobLeftNothing checks what every job owes the next one, success
// or failure: no file under any node's scratch dir, and no uncommitted
// ".tmp" writer directory under the DFS root.
func assertJobLeftNothing(t *testing.T, root string) {
	t.Helper()
	if left := filesUnder(t, filepath.Join(root, "scratch")); len(left) != 0 {
		t.Errorf("job left %d files under node scratch, e.g. %s", len(left), left[0])
	}
	if tmps, _ := filepath.Glob(filepath.Join(root, "dfs", "*.tmp")); len(tmps) != 0 {
		t.Errorf("job left uncommitted DFS writers: %v", tmps)
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := newEngine(t, 3, 64)
	writeLines(t, e, "in", []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	})
	rep, err := e.Run(Job{
		Name: "wc", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := outputCounts(t, e, "out", 3)
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("count[%q] = %d, want %d", k, got[k], n)
		}
	}
	if rep.Counter("map.records.in") != 3 {
		t.Errorf("map.records.in = %d", rep.Counter("map.records.in"))
	}
	if rep.Counter("map.records.out") != 10 {
		t.Errorf("map.records.out = %d", rep.Counter("map.records.out"))
	}
	if rep.Counter("reduce.groups") != 6 {
		t.Errorf("reduce.groups = %d", rep.Counter("reduce.groups"))
	}
	if rep.Counter("shuffle.bytes") <= 0 {
		t.Error("shuffle.bytes not recorded")
	}
	for _, s := range metrics.Stages() {
		// A bare MR job has no durability work; the checkpoint stage is
		// recorded by the incr/core engines around their store flushes.
		if s == metrics.StageCheckpoint {
			continue
		}
		if rep.Stage(s) <= 0 {
			t.Errorf("stage %v has no recorded time", s)
		}
	}
}

func TestMultipleBlocksMultipleMapTasks(t *testing.T) {
	e := newEngine(t, 4, 128)
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("word%02d word%02d filler", i%10, i%7))
	}
	writeLines(t, e, "in", lines)
	rep, err := e.Run(Job{
		Name: "wc2", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counter("map.tasks") < 2 {
		t.Fatalf("map.tasks = %d, want >= 2", rep.Counter("map.tasks"))
	}
	got := outputCounts(t, e, "out", 4)
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 600 { // 3 words per line * 200 lines
		t.Fatalf("total word count = %d, want 600", total)
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	e := newEngine(t, 2, 1<<20)
	var lines []string
	for i := 0; i < 100; i++ {
		lines = append(lines, "same same same same")
	}
	writeLines(t, e, "in", lines)

	run := func(name string, combiner Reducer) *metrics.Report {
		rep, err := e.Run(Job{
			Name: name, Input: "in", Output: "out-" + name,
			Mapper: wordCountMapper, Reducer: sumReducer, Combiner: combiner,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run("nocomb", nil)
	comb := run("comb", sumReducer)
	if comb.Counter("shuffle.bytes") >= plain.Counter("shuffle.bytes") {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			comb.Counter("shuffle.bytes"), plain.Counter("shuffle.bytes"))
	}
	// Results identical either way.
	a := outputCounts(t, e, "out-nocomb", 2)
	b := outputCounts(t, e, "out-comb", 2)
	if a["same"] != 400 || b["same"] != 400 {
		t.Fatalf("counts = %v / %v, want same:400", a, b)
	}
}

func TestPartitioningSendsKeyToSingleReducer(t *testing.T) {
	e := newEngine(t, 3, 64)
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("k%d", i%20))
	}
	writeLines(t, e, "in", lines)
	if _, err := e.Run(Job{
		Name: "part", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 3,
	}); err != nil {
		t.Fatal(err)
	}
	// A key must appear in exactly the partition kv.Partition assigns.
	for r := 0; r < 3; r++ {
		ps, err := e.FS().ReadAllPairs(PartPath("out", r))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if kv.Partition(p.Key, 3) != r {
				t.Errorf("key %q in part %d, partitioner says %d", p.Key, r, kv.Partition(p.Key, 3))
			}
		}
	}
}

func TestReduceOutputSortedWithinPartition(t *testing.T) {
	e := newEngine(t, 1, 1<<20)
	writeLines(t, e, "in", []string{"b a d c e"})
	if _, err := e.Run(Job{
		Name: "sorted", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ps, err := e.FS().ReadAllPairs(PartPath("out", 0))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("reduce output not key-sorted: %v", keys)
	}
}

func TestJobValidation(t *testing.T) {
	e := newEngine(t, 1, 1<<20)
	if _, err := e.Run(Job{Name: "x", Input: "in", Output: "out"}); err == nil {
		t.Fatal("job without mapper/reducer succeeded")
	}
	if _, err := e.Run(Job{Name: "x", Mapper: wordCountMapper, Reducer: sumReducer}); err == nil {
		t.Fatal("job without paths succeeded")
	}
	if _, err := e.Run(Job{
		Name: "x", Input: "missing", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer,
	}); err == nil {
		t.Fatal("job with missing input succeeded")
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	e := newEngine(t, 1, 1<<20)
	writeLines(t, e, "in", []string{"x"})
	_, err := e.Run(Job{
		Name: "maperr", Input: "in", Output: "out",
		Mapper:  MapperFunc(func(k, v string, emit Emit) error { return fmt.Errorf("bad record") }),
		Reducer: sumReducer,
	})
	if err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("Run = %v, want mapper error", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	root := t.TempDir()
	e := newEngineIn(t, root, 1, 1<<20)
	writeLines(t, e, "in", []string{"x"})
	_, err := e.Run(Job{
		Name:    "rederr",
		Input:   "in",
		Output:  "out",
		Mapper:  wordCountMapper,
		Reducer: ReducerFunc(func(k string, vs []string, emit Emit) error { return fmt.Errorf("bad group") }),
	})
	if err == nil || !strings.Contains(err.Error(), "bad group") {
		t.Fatalf("Run = %v, want reducer error", err)
	}
	// Every failed attempt aborted its DFS writer, and the failed job
	// still removed its shuffle scratch.
	assertJobLeftNothing(t, root)
	if _, err := e.FS().Stat(PartPath("out", 0)); err == nil {
		t.Error("failed job committed a part file")
	}
}

func TestMapTaskRetryProducesCorrectResult(t *testing.T) {
	root := t.TempDir()
	e := newEngineIn(t, root, 2, 64)
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, "alpha beta")
	}
	writeLines(t, e, "in", lines)
	// Fail the first attempt of the first map and reduce task: a failed
	// map attempt publishes nothing, so the retry cannot duplicate pairs.
	e.Cluster().InjectFailure(cluster.Failure{Task: "retry-000001/map-0000", Attempt: 1})
	e.Cluster().InjectFailure(cluster.Failure{Task: "retry-000001/reduce-0000", Attempt: 1})
	if _, err := e.Run(Job{
		Name: "retry", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	got := outputCounts(t, e, "out", 2)
	if got["alpha"] != 40 || got["beta"] != 40 {
		t.Fatalf("counts after retries = %v", got)
	}
	assertJobLeftNothing(t, root)
}

// TestSpillsPastFixedBudgetAndCleansUp pushes more intermediate bytes
// through a vanilla job than its fixed memory budget holds: map output
// must spill to node scratch, the result must not notice, and the job
// must remove every spill file before it returns.
func TestSpillsPastFixedBudgetAndCleansUp(t *testing.T) {
	root := t.TempDir()
	e := newEngineIn(t, root, 2, 1<<20)
	const lines = 40
	var in []string
	for i := 0; i < lines; i++ {
		in = append(in, fmt.Sprintf("k%d", i%2))
	}
	writeLines(t, e, "in", in)
	big := strings.Repeat("x", 2*shuffleBudget/lines) // 2x the budget in all
	rep, err := e.Run(Job{
		Name: "spill", Input: "in", Output: "out", NumReducers: 2,
		Mapper: MapperFunc(func(_, v string, emit Emit) error { emit(v, big); return nil }),
		Reducer: ReducerFunc(func(k string, vs []string, emit Emit) error {
			for _, v := range vs {
				if v != big {
					return fmt.Errorf("value of %q corrupted through the spill", k)
				}
			}
			emit(k, strconv.Itoa(len(vs)))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counter(metrics.CounterSpillRuns) == 0 {
		t.Fatalf("%d intermediate bytes spilled no runs under a %d-byte budget", rep.Counter(metrics.CounterShuffleBytes), shuffleBudget)
	}
	if got := outputCounts(t, e, "out", 2); got["k0"] != lines/2 || got["k1"] != lines/2 {
		t.Fatalf("counts through the spill = %v", got)
	}
	assertJobLeftNothing(t, root)
}

// TestOutputIndependentOfMapTaskCount runs one input at two DFS block
// sizes — one map task versus dozens — through an order-sensitive
// reducer. Values reach Reduce in (key, value) order however the input
// was split, so the part files hold the same records in the same order.
func TestOutputIndependentOfMapTaskCount(t *testing.T) {
	var lines []string
	for i := 0; i < 400; i++ {
		// The second word scatters across blocks in non-sorted order.
		lines = append(lines, fmt.Sprintf("w%02d v%04d", i%13, (i*7919)%1000))
	}
	run := func(blockSize int64) (parts [][]kv.Pair, mapTasks int64) {
		e := newEngine(t, 3, blockSize)
		writeLines(t, e, "in", lines)
		rep, err := e.Run(Job{
			Name: "concat", Input: "in", Output: "out", NumReducers: 3,
			Mapper: MapperFunc(func(_, v string, emit Emit) error {
				f := strings.Fields(v)
				emit(f[0], f[1])
				return nil
			}),
			Reducer: ReducerFunc(func(k string, vs []string, emit Emit) error {
				emit(k, strings.Join(vs, ","))
				return nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			ps, err := e.FS().ReadAllPairs(PartPath("out", r))
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, ps)
		}
		return parts, rep.Counter(metrics.CounterMapTasks)
	}
	small, smallTasks := run(1 << 10)
	large, largeTasks := run(1 << 20)
	if smallTasks < 2 || largeTasks != 1 {
		t.Fatalf("map tasks = %d at 1 KiB blocks, %d at 1 MiB; want many and one", smallTasks, largeTasks)
	}
	if !reflect.DeepEqual(small, large) {
		t.Fatalf("part files differ between %d map tasks and 1:\n%v\n%v", smallTasks, small, large)
	}
}

func TestStartupCostAccounted(t *testing.T) {
	e := newEngine(t, 1, 1<<20)
	writeLines(t, e, "in", []string{"x"})
	rep, err := e.Run(Job{
		Name: "startup", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer,
		StartupCost: 20_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counter("startup.ns") != 20_000_000_000 {
		t.Fatalf("startup.ns = %d", rep.Counter("startup.ns"))
	}
	if rep.Counter("jobs") != 1 {
		t.Fatalf("jobs = %d", rep.Counter("jobs"))
	}
}

func TestEmptyInputRuns(t *testing.T) {
	e := newEngine(t, 2, 1<<20)
	if err := e.FS().WriteAllPairs("in", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Job{
		Name: "empty", Input: "in", Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadOutput("out", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
}

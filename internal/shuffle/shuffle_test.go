package shuffle

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
)

// collectGroups drains every partition of b into one flat list of
// groups tagged with their partition.
func collectGroups(t *testing.T, b *Buffer, parts int) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for p := 0; p < parts; p++ {
		err := b.Reduce(p, func(g kv.Group) error {
			if _, dup := out[g.Key]; dup {
				return fmt.Errorf("key %q grouped in two partitions", g.Key)
			}
			out[g.Key] = append([]string(nil), g.Values...)
			return nil
		})
		if err != nil {
			t.Fatalf("Reduce(%d): %v", p, err)
		}
	}
	return out
}

// referenceGroups computes the expected grouping the old engines
// produced: all pairs sorted by (key, value), then grouped.
func referenceGroups(pairs []kv.Pair) map[string][]string {
	sorted := append([]kv.Pair(nil), pairs...)
	kv.SortPairs(sorted)
	out := make(map[string][]string)
	for _, p := range sorted {
		out[p.Key] = append(out[p.Key], p.Value)
	}
	return out
}

func testPairs(n int) []kv.Pair {
	ps := make([]kv.Pair, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, kv.Pair{
			Key:   fmt.Sprintf("k%03d", i%37),
			Value: fmt.Sprintf("v%04d", (i*2654435761)%1000),
		})
	}
	return ps
}

func groupsEqual(t *testing.T, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("missing key %q", k)
		}
		if len(gv) != len(wv) {
			t.Fatalf("key %q: got %d values, want %d", k, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("key %q value[%d] = %q, want %q (value order must match SortPairs order)", k, i, gv[i], wv[i])
			}
		}
	}
}

// TestGroupsMatchSortedReferenceAcrossBudgets proves the core
// determinism property: at any memory budget — none, tiny (every pair
// spills), or mid — the grouped stream is byte-identical to sorting
// everything in memory.
func TestGroupsMatchSortedReferenceAcrossBudgets(t *testing.T) {
	pairs := testPairs(3000)
	want := referenceGroups(pairs)
	for _, budget := range []int64{0, 1, 64, 1 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			rep := &metrics.Report{}
			b, err := New(Config{
				Partitions:   4,
				MemoryBudget: budget,
				ScratchDir:   func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d", p)) },
				Report:       rep,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			for _, p := range pairs {
				b.Emit(p.Key, p.Value)
			}
			if err := b.FinishMap(); err != nil {
				t.Fatal(err)
			}
			groupsEqual(t, collectGroups(t, b, 4), want)
			if b.Records() != int64(len(pairs)) {
				t.Fatalf("Records() = %d, want %d", b.Records(), len(pairs))
			}
			spilled := rep.Counter(metrics.CounterSpillRuns)
			if budget > 0 && budget <= 64 && spilled == 0 {
				t.Fatalf("budget %d spilled no runs", budget)
			}
			if budget == 0 && spilled != 0 {
				t.Fatalf("unbounded budget spilled %d runs", spilled)
			}
			if (spilled == 0) != (rep.Counter(metrics.CounterSpillBytes) == 0) {
				t.Fatalf("spill counters disagree: runs=%d bytes=%d", spilled, rep.Counter(metrics.CounterSpillBytes))
			}
		})
	}
}

// TestConcurrentEmitAndSpill exercises the lock-striped emit path and
// concurrent spilling from many goroutines; run with -race it is the
// issue's required race-mode coverage of emit/spill.
func TestConcurrentEmitAndSpill(t *testing.T) {
	dir := t.TempDir()
	rep := &metrics.Report{}
	const workers, perWorker = 8, 500
	b, err := New(Config{
		Partitions:   3,
		MemoryBudget: 256, // tiny: force frequent concurrent spills
		ScratchDir:   func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d", p)) },
		Report:       rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var all []kv.Pair
	var allMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]kv.Pair, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("k%03d", (w*perWorker+i)%53)
				v := fmt.Sprintf("w%d-%04d", w, i)
				b.Emit(k, v)
				local = append(local, kv.Pair{Key: k, Value: v})
			}
			allMu.Lock()
			all = append(all, local...)
			allMu.Unlock()
		}()
	}
	wg.Wait()
	if err := b.FinishMap(); err != nil {
		t.Fatal(err)
	}
	if b.Records() != workers*perWorker {
		t.Fatalf("Records() = %d, want %d", b.Records(), workers*perWorker)
	}
	if rep.Counter(metrics.CounterSpillRuns) == 0 {
		t.Fatal("no spills under a 256-byte budget")
	}
	groupsEqual(t, collectGroups(t, b, 3), referenceGroups(all))
}

// TestConcurrentReduce drains all partitions concurrently (the cluster
// runs reduce tasks in parallel); with -race this covers the read path.
func TestConcurrentReduce(t *testing.T) {
	dir := t.TempDir()
	b, err := New(Config{
		Partitions:   4,
		MemoryBudget: 128,
		ScratchDir:   func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d", p)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pairs := testPairs(2000)
	for _, p := range pairs {
		b.Emit(p.Key, p.Value)
	}
	if err := b.FinishMap(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	counts := make([]int64, 4)
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[p] = b.Reduce(p, func(g kv.Group) error {
				counts[p] += int64(len(g.Values))
				return nil
			})
		}()
	}
	wg.Wait()
	var total int64
	for p := 0; p < 4; p++ {
		if errs[p] != nil {
			t.Fatalf("Reduce(%d): %v", p, errs[p])
		}
		total += counts[p]
	}
	if total != int64(len(pairs)) {
		t.Fatalf("reduced %d values, want %d", total, len(pairs))
	}
}

func TestSpillFilesRemovedOnClose(t *testing.T) {
	dir := t.TempDir()
	b, err := New(Config{
		Partitions:   2,
		MemoryBudget: 1,
		ScratchDir:   func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d", p)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.Emit(fmt.Sprintf("k%d", i), "v")
	}
	if err := b.FinishMap(); err != nil {
		t.Fatal(err)
	}
	if b.SpilledRuns() == 0 {
		t.Fatal("expected spills")
	}
	var before int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			before++
		}
		return nil
	})
	if before == 0 {
		t.Fatal("no spill files on disk before Close")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			t.Fatalf("spill file %s survived Close", path)
		}
		return nil
	})
	// The per-partition spill directories are cleaned up too, so
	// long-lived node scratch does not accumulate empty dirs.
	for p := 0; p < 2; p++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("p%d", p))); !os.IsNotExist(err) {
			t.Fatalf("spill dir p%d survived Close (err=%v)", p, err)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	if _, err := New(Config{Partitions: 0}); err == nil {
		t.Fatal("New with 0 partitions succeeded")
	}
	if _, err := New(Config{Partitions: 2, MemoryBudget: 1}); err == nil {
		t.Fatal("New with budget but no ScratchDir succeeded")
	}
	b, err := New(Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reduce(0, func(kv.Group) error { return nil }); err == nil {
		t.Fatal("Reduce before FinishMap succeeded")
	}
	if err := b.FinishMap(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Emit after FinishMap did not panic")
		}
	}()
	b.Emit("k", "v")
}

// TestEmitterDiscardLeavesNoTrace stages output for a failing attempt,
// discards it, then publishes a fresh attempt: reducers must see only
// the successful attempt's pairs (no duplication, no orphan spills).
func TestEmitterDiscardLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	rep := &metrics.Report{}
	b, err := New(Config{
		Partitions:   2,
		MemoryBudget: 64, // force staging spills in both attempts
		ScratchDir:   func(p int) string { return filepath.Join(dir, fmt.Sprintf("p%d", p)) },
		Report:       rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var want []kv.Pair
	for i := 0; i < 200; i++ {
		want = append(want, kv.Pair{Key: fmt.Sprintf("k%02d", i%17), Value: fmt.Sprintf("v%03d", i)})
	}

	// Attempt 1: emits half, then "fails".
	failed := b.NewEmitter()
	for _, p := range want[:100] {
		failed.Emit(p.Key, p.Value)
	}
	failed.Discard()
	// A discarded attempt leaves no trace in the spill metrics either.
	if got := rep.Counter(metrics.CounterSpillRuns); got != 0 {
		t.Fatalf("discarded attempt accounted %d spill runs", got)
	}

	// Attempt 2 (the retry): emits everything and succeeds.
	retry := b.NewEmitter()
	for _, p := range want {
		retry.Emit(p.Key, p.Value)
	}
	if err := retry.Publish(); err != nil {
		t.Fatal(err)
	}
	if rep.Counter(metrics.CounterSpillRuns) == 0 {
		t.Fatal("published attempt's staging spills not accounted")
	}
	if err := b.FinishMap(); err != nil {
		t.Fatal(err)
	}
	if b.Records() != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d (failed attempt must not count)", b.Records(), len(want))
	}
	groupsEqual(t, collectGroups(t, b, 2), referenceGroups(want))
}

// TestDriverRetryDoesNotDuplicate fails every partition's first map
// attempt mid-emission; the cluster retries, and the reduced counts
// must reflect exactly one successful attempt per partition.
func TestDriverRetryDoesNotDuplicate(t *testing.T) {
	root := t.TempDir()
	cl, err := cluster.New(cluster.Config{Nodes: 2, SlotsPerNode: 2, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 2
	var attempts [parts]int
	var attemptsMu sync.Mutex
	rep := &metrics.Report{}
	counts := make(map[string]int)
	var countsMu sync.Mutex
	err = Iteration{
		Name:         "retry/it001",
		Partitions:   parts,
		NumNodes:     cl.NumNodes(),
		RunTasks:     func(ts []cluster.Task) error { _, err := cl.Run(ts); return err },
		MemoryBudget: 64,
		ScratchDir:   func(p int) string { return filepath.Join(root, "spill", fmt.Sprintf("p%d", p)) },
		Report:       rep,
		MapTask: func(p int, emit func(k, v string)) (int64, error) {
			attemptsMu.Lock()
			attempts[p]++
			first := attempts[p] == 1
			attemptsMu.Unlock()
			for i := 0; i < 100; i++ {
				emit(fmt.Sprintf("k%02d-%d", i%11, p), "1")
				if first && i == 50 {
					return 0, fmt.Errorf("transient failure (partition %d attempt 1)", p)
				}
			}
			return 100, nil
		},
		ReducePartition: func(p int, groups GroupSource) error {
			return groups(func(g kv.Group) error {
				countsMu.Lock()
				counts[g.Key] += len(g.Values)
				countsMu.Unlock()
				return nil
			})
		},
	}.Run(cl.PartitionNodes(parts))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for k, n := range counts {
		total += n
		if n > 10 {
			t.Fatalf("key %q has %d values; failed first attempts leaked emissions", k, n)
		}
	}
	if total != parts*100 {
		t.Fatalf("reduced %d values, want %d (exactly one successful attempt per partition)", total, parts*100)
	}
	if got := rep.Counter("map.records.out"); got != parts*100 {
		t.Fatalf("map.records.out = %d, want %d", got, parts*100)
	}
	// The sort-time rebalance must only subtract time from successful
	// map windows; a negative StageMap means a discarded attempt's
	// sorts leaked into the accounting.
	if d := rep.Snapshot().Stages[metrics.StageMap]; d < 0 {
		t.Fatalf("StageMap = %v; discarded attempts corrupted the stage rebalance", d)
	}
}

// TestDriverZeroMapTasksStillReduces: the map task count is the
// caller's input and zero is a count, not "default to Partitions" — an
// empty input runs no map task and still runs every reduce task, so
// every (empty) part file gets written.
func TestDriverZeroMapTasksStillReduces(t *testing.T) {
	root := t.TempDir()
	cl, err := cluster.New(cluster.Config{Nodes: 2, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3
	var reduced [parts]int
	rep := &metrics.Report{}
	err = Iteration{
		Name:       "empty",
		Partitions: parts,
		NumNodes:   cl.NumNodes(),
		RunTasks:   func(ts []cluster.Task) error { _, err := cl.Run(ts); return err },
		Report:     rep,
		MapTask: func(m int, emit func(k, v string)) (int64, error) {
			return 0, fmt.Errorf("map task %d ran on an empty input", m)
		},
		ReducePartition: func(p int, groups GroupSource) error {
			reduced[p]++ // one task per partition: no two touch the same slot
			return groups(func(g kv.Group) error { return fmt.Errorf("group %q from nowhere", g.Key) })
		},
	}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range reduced {
		if n != 1 {
			t.Errorf("reduce task %d ran %d times, want 1", p, n)
		}
	}
	if got := rep.Counter(metrics.CounterMapRecordsOut); got != 0 {
		t.Errorf("map.records.out = %d, want 0", got)
	}
}

// TestIterationDriver runs the full map -> shuffle -> reduce
// scaffolding on a real simulated cluster: word counting with one map
// partition per input shard.
func TestIterationDriver(t *testing.T) {
	root := t.TempDir()
	cl, err := cluster.New(cluster.Config{Nodes: 3, SlotsPerNode: 2, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		t.Fatal(err)
	}
	const parts = 3
	inputs := make([][]kv.Pair, parts)
	var all []kv.Pair
	for i := 0; i < 900; i++ {
		p := kv.Pair{Key: fmt.Sprintf("w%03d", i%41), Value: "1"}
		inputs[i%parts] = append(inputs[i%parts], p)
		all = append(all, p)
	}
	rep := &metrics.Report{}
	got := make(map[string]int)
	var gotMu sync.Mutex
	err = Iteration{
		Name:         "wordcount/it001",
		Partitions:   parts,
		NumNodes:     cl.NumNodes(),
		RunTasks:     func(ts []cluster.Task) error { _, err := cl.Run(ts); return err },
		MemoryBudget: 512,
		ScratchDir:   func(p int) string { return filepath.Join(root, "spill", fmt.Sprintf("p%d", p)) },
		Report:       rep,
		MapTask: func(p int, emit func(k, v string)) (int64, error) {
			for _, pr := range inputs[p] {
				emit(pr.Key, pr.Value)
			}
			return int64(len(inputs[p])), nil
		},
		ReducePartition: func(p int, groups GroupSource) error {
			return groups(func(g kv.Group) error {
				if kv.Partition(g.Key, parts) != p {
					return fmt.Errorf("key %q in wrong partition %d", g.Key, p)
				}
				gotMu.Lock()
				got[g.Key] = len(g.Values)
				gotMu.Unlock()
				return nil
			})
		},
	}.Run(cl.PartitionNodes(parts))
	if err != nil {
		t.Fatal(err)
	}
	want := referenceGroups(all)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, vs := range want {
		if got[k] != len(vs) {
			t.Fatalf("count[%s] = %d, want %d", k, got[k], len(vs))
		}
	}
	if rep.Counter("map.records.in") != int64(len(all)) {
		t.Fatalf("map.records.in = %d, want %d", rep.Counter("map.records.in"), len(all))
	}
	if rep.Counter("map.records.out") != int64(len(all)) {
		t.Fatalf("map.records.out = %d, want %d", rep.Counter("map.records.out"), len(all))
	}
	if rep.Counter("shuffle.bytes") == 0 {
		t.Fatal("shuffle.bytes not accounted")
	}
	if rep.Counter(metrics.CounterSpillRuns) == 0 {
		t.Fatal("512-byte budget spilled no runs")
	}
}

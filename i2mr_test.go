package i2mr

import (
	"strconv"
	"strings"
	"testing"

	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/datagen"
)

// TestPublicAPIEndToEnd drives every engine through the public facade:
// vanilla MapReduce, incremental one-step, iterative, and incremental
// iterative.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys, err := New(Options{WorkDir: t.TempDir(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Vanilla MapReduce: word count.
	if err := sys.WritePairs("docs", []Pair{
		{Key: "d1", Value: "a b a"},
		{Key: "d2", Value: "b c"},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = sys.MapReduce(Job{
		Name: "wc", Input: "docs", Output: "wc-out", NumReducers: 2,
		Mapper: MapperFunc(func(k, v string, emit Emit) error {
			for _, w := range strings.Fields(v) {
				emit(w, "1")
			}
			return nil
		}),
		Reducer: ReducerFunc(func(k string, vs []string, emit Emit) error {
			emit(k, strconv.Itoa(len(vs)))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.ReadOutput("wc-out", 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, p := range out {
		counts[p.Key] = p.Value
	}
	if counts["a"] != "2" || counts["b"] != "2" || counts["c"] != "1" {
		t.Fatalf("wordcount = %v", counts)
	}

	// Incremental one-step with accumulator.
	oneStep, err := sys.NewOneStep(apps.WordCountJob("wc-incr"))
	if err != nil {
		t.Fatal(err)
	}
	defer oneStep.Close()
	if _, err := oneStep.RunInitial("docs", "wc-v1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteDeltas("docs-delta", []Delta{
		{Key: "d3", Value: "c c", Op: OpInsert},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := oneStep.RunDelta("docs-delta", "wc-v2"); err != nil {
		t.Fatal(err)
	}
	oneStepOuts, err := oneStep.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	refreshed := map[string]string{}
	for _, p := range oneStepOuts {
		refreshed[p.Key] = p.Value
	}
	if refreshed["c"] != "3" {
		t.Fatalf("refreshed counts = %v, want c:3", refreshed)
	}

	// Incremental iterative PageRank.
	graph := datagen.Graph(5, 60, 3)
	if err := sys.WritePairs("graph", graph); err != nil {
		t.Fatal(err)
	}
	runner, err := sys.NewIncremental(apps.PageRankSpec("api-pr", apps.DefaultDamping), IncrementalConfig{
		NumPartitions: 2, MaxIterations: 100, Epsilon: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	res, err := runner.RunInitial("graph")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PageRank did not converge through the facade")
	}
	deltas, _ := datagen.Mutate(6, graph, datagen.MutateOptions{
		ModifyFraction: 0.1, Rewrite: datagen.RewireGraphValue(60),
	})
	if err := sys.WriteDeltas("graph-delta", deltas); err != nil {
		t.Fatal(err)
	}
	inc, err := runner.RunIncremental("graph-delta")
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Converged {
		t.Fatal("incremental refresh did not converge")
	}

	// Iterative (iterMR) runner through the facade.
	ir, err := sys.NewIterative(apps.PageRankSpec("api-iter", apps.DefaultDamping), IterConfig{
		NumPartitions: 2, MaxIterations: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.LoadStructure("graph"); err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ir.State()) != 60 {
		t.Fatalf("iterative state has %d keys, want 60", len(ir.State()))
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without WorkDir succeeded")
	}
	dir := t.TempDir()
	if _, err := New(Options{WorkDir: dir, SegmentBlockBytes: -1}); err == nil {
		t.Fatal("New with negative SegmentBlockBytes succeeded")
	}
	if _, err := New(Options{WorkDir: dir, SegmentCompression: "zstd"}); err == nil {
		t.Fatal("New with unknown SegmentCompression succeeded")
	}
	if _, err := New(Options{
		WorkDir: dir, SegmentBlockBytes: 4 << 10,
		SegmentCompression: "flate", BloomBitsPerKey: -1,
	}); err != nil {
		t.Fatalf("New rejected valid segment-format knobs: %v", err)
	}
}

// TestOneStepSurvivesRestart proves the public resume path: a one-step
// computation preserved by one System instance is reattached by a
// second System over the same WorkDir, with identical results and a
// working RunDelta.
func TestOneStepSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	job := apps.FineGrainWordCountJob("wc-restart")
	job.NumReducers = 2

	sys, err := New(Options{WorkDir: dir, Nodes: 2, ShuffleMemoryBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WritePairs("docs", []Pair{
		{Key: "d1", Value: "alpha beta alpha"},
		{Key: "d2", Value: "beta gamma"},
	}); err != nil {
		t.Fatal(err)
	}
	runner, err := sys.NewOneStep(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunInitial("docs", "wc-v1"); err != nil {
		t.Fatal(err)
	}
	before, err := runner.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second System over the same WorkDir.
	sys2, err := New(Options{WorkDir: dir, Nodes: 2, ShuffleMemoryBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sys2.OpenOneStep(job)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	after, err := resumed.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("resumed outputs = %v, want %v", after, before)
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("resumed outputs differ at %d: %v vs %v", i, after[i], before[i])
		}
	}
	// Refresh after restart: delete d2, check counts.
	if err := sys2.WriteDeltas("docs-delta", []Delta{
		{Key: "d2", Value: "beta gamma", Op: OpDelete},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.RunDelta("docs-delta", "wc-v2"); err != nil {
		t.Fatal(err)
	}
	final, err := resumed.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, p := range final {
		counts[p.Key] = p.Value
	}
	if counts["alpha"] != "2" || counts["beta"] != "1" {
		t.Fatalf("post-restart refresh = %v, want alpha:2 beta:1", counts)
	}
	if _, ok := counts["gamma"]; ok {
		t.Fatal("gamma survived deletion of its only document")
	}
}

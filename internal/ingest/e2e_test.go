package ingest_test

// End-to-end crash-equivalence tests: a streaming deployment (staging
// log + micro-batch refreshes through the serving layer) that is killed
// mid-stream must, after recovery and drain, hold results byte-identical
// to a batch deployment that applied the same deltas with one RunDelta.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/serve"
)

const (
	e2eDocs  = 300
	e2eVocab = 50
	e2eWords = 6
)

// newWordCount builds a system with the initial wordcount computed.
func newWordCount(t *testing.T) (*i2mr.System, *i2mr.OneStepRunner, []kv.Pair) {
	t.Helper()
	sys, err := i2mr.New(i2mr.Options{WorkDir: t.TempDir(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	corpus := datagen.Tweets(1, e2eDocs, e2eVocab, e2eWords)
	if err := sys.WritePairs("tweets", corpus); err != nil {
		t.Fatal(err)
	}
	runner, err := sys.NewOneStep(apps.FineGrainWordCountJob("wc"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runner.Close() })
	if _, err := runner.RunInitial("tweets", "wc-v1"); err != nil {
		t.Fatal(err)
	}
	return sys, runner, corpus
}

func e2eDeltas(corpus []kv.Pair) []kv.Delta {
	deltas, _ := datagen.Mutate(7, corpus, datagen.MutateOptions{
		ModifyFraction: 0.2,
		Rewrite: func(rng *rand.Rand, key, value string) string {
			return value + fmt.Sprintf(" w%04d", rng.Intn(e2eVocab))
		},
	})
	return deltas
}

func outputsOf(t *testing.T, r *i2mr.OneStepRunner) []kv.Pair {
	t.Helper()
	outs, err := r.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// assertSameOutputs compares two materialized result sets pair-for-pair.
func assertSameOutputs(t *testing.T, got, want []kv.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streaming result has %d pairs, batch has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: streaming %+v, batch %+v", i, got[i], want[i])
		}
	}
}

// TestCrashBetweenStageAndRefreshMatchesBatch kills the streaming side
// in the window after records are durably staged but before any refresh
// ran, recovers, drains through multiple micro-batches, and compares
// against one batch RunDelta of the same deltas.
func TestCrashBetweenStageAndRefreshMatchesBatch(t *testing.T) {
	sysA, runnerA, corpus := newWordCount(t)
	deltas := e2eDeltas(corpus)

	srv, err := serve.NewOneStep(runnerA, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stagingDir := t.TempDir()
	cfg := ingest.Config{
		Dir:         stagingDir,
		Refresh:     ingest.BindServe(srv, runnerA),
		WriteDeltas: sysA.WriteDeltas,
		AppliedJobs: runnerA.CompletedJobs,
		// Small record cap: the drain must split the stream into many
		// micro-batch refreshes and still match one batch RunDelta.
		Policy: ingest.Policy{MaxLag: time.Hour, MaxBatchRecords: 8},
	}
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas); err != nil {
		t.Fatal(err)
	}
	in.Kill() // crash: staged, zero refreshes ran

	in2, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := in2.Stats(); st.Replayed != int64(len(deltas)) {
		t.Fatalf("replayed %d records, want %d", st.Replayed, len(deltas))
	}
	in2.AttachTo(srv)
	in2.Start()
	if err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	st := in2.Stats()
	if st.Batches < 2 {
		t.Fatalf("drain used %d micro-batches, want several (records=%d cap=8)", st.Batches, len(deltas))
	}
	if st.AppliedSeq != int64(len(deltas)) || st.PendingRecords != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}

	// The serving layer surfaces the watermark.
	sst := srv.Stats()
	if sst.Ingest == nil || sst.Ingest.AppliedSeq != int64(len(deltas)) || sst.Ingest.Replayed != int64(len(deltas)) {
		t.Fatalf("serve stats ingest = %+v", sst.Ingest)
	}
	if sst.Epoch < 2 {
		t.Fatalf("epoch = %d, want flipped per micro-batch", sst.Epoch)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	// The micro-batches went through the DFS as delta files only: a
	// served refresh publishes no output directory.
	for _, name := range sysA.Engine().FS().List() {
		if strings.Contains(name, "out") {
			t.Errorf("streaming refreshes published %q to the DFS", name)
		}
	}

	// Batch twin: same corpus, same deltas, one RunDelta.
	sysB, runnerB, _ := newWordCount(t)
	if err := sysB.WriteDeltas("delta-1", deltas); err != nil {
		t.Fatal(err)
	}
	if _, err := runnerB.RunDelta("delta-1", "wc-v2"); err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, outputsOf(t, runnerA), outputsOf(t, runnerB))

	// And the serving read path agrees with the materialized result.
	want := outputsOf(t, runnerB)
	for _, p := range []kv.Pair{want[0], want[len(want)/2], want[len(want)-1]} {
		pairs, found, _, err := srv.Get(p.Key)
		if err != nil || !found || len(pairs) != 1 || pairs[0] != p {
			t.Fatalf("srv.Get(%q) = %v found=%v err=%v, want %+v", p.Key, pairs, found, err, p)
		}
	}
}

// TestCrashMidStreamReplaysOnlyUnapplied kills the streaming side after
// some micro-batches committed, with more records staged: recovery must
// replay only the records above the watermark (a double-apply would
// skew the word counts and break the batch comparison).
func TestCrashMidStreamReplaysOnlyUnapplied(t *testing.T) {
	sysA, runnerA, corpus := newWordCount(t)
	deltas := e2eDeltas(corpus)
	split := len(deltas) / 2

	srv, err := serve.NewOneStep(runnerA, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stagingDir := t.TempDir()
	cfg := ingest.Config{
		Dir:         stagingDir,
		Refresh:     ingest.BindServe(srv, runnerA),
		WriteDeltas: sysA.WriteDeltas,
		AppliedJobs: runnerA.CompletedJobs,
		Policy:      ingest.Policy{MaxLag: time.Hour, MaxBatchRecords: 8},
	}
	in, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	if _, _, err := in.AddBatch(deltas[:split]); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil { // first half fully applied
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas[split:]); err != nil {
		t.Fatal(err)
	}
	in.Kill() // crash: second half staged, not applied (MaxLag is an hour)

	in2, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := in2.Stats(); st.Replayed != int64(len(deltas)-split) {
		t.Fatalf("replayed %d records, want only the unapplied %d", st.Replayed, len(deltas)-split)
	}
	in2.Start()
	if err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}

	sysB, runnerB, _ := newWordCount(t)
	if err := sysB.WriteDeltas("delta-1", deltas); err != nil {
		t.Fatal(err)
	}
	if _, err := runnerB.RunDelta("delta-1", "wc-v2"); err != nil {
		t.Fatal(err)
	}
	assertSameOutputs(t, outputsOf(t, runnerA), outputsOf(t, runnerB))
}

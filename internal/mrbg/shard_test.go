package mrbg

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// shardCounts are the shard configurations the determinism and
// recovery tests sweep.
var shardCounts = []int{1, 4, 16}

// buildDelta deterministically generates a delta touching nKeys keys
// with a mix of inserts, updates, and deletes.
func buildDelta(round, nKeys int) []DeltaEdge {
	var delta []DeltaEdge
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%04d", (i*31+round*7)%nKeys)
		switch (i + round) % 5 {
		case 0:
			delta = append(delta, DeltaEdge{Key: key, MK: uint64(i % 3), Delete: true})
		default:
			delta = append(delta, DeltaEdge{Key: key, MK: uint64(i % 3), V2: fmt.Sprintf("v%d-%d", round, i)})
		}
	}
	return delta
}

func TestShardedMergeDeterministicAcrossShardCounts(t *testing.T) {
	type trace struct {
		emitOrder []string
		removed   map[string]bool
		final     map[string][]Edge
	}
	var baseline *trace
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			s := openStore(t, Options{Shards: shards, Parallelism: 4})
			if got := s.NumShards(); got != shards {
				t.Fatalf("NumShards = %d, want %d", got, shards)
			}
			tr := &trace{removed: map[string]bool{}, final: map[string][]Edge{}}
			for round := 0; round < 6; round++ {
				var order []string
				err := s.Merge(buildDelta(round, 60), func(r MergeResult) error {
					order = append(order, r.Key)
					if r.Removed {
						tr.removed[fmt.Sprintf("r%d-%s", round, r.Key)] = true
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				tr.emitOrder = append(tr.emitOrder, order...)
				tr.emitOrder = append(tr.emitOrder, "|")
			}
			err := s.AllChunks(func(c Chunk) error {
				tr.final[c.Key] = c.Edges
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = tr
				return
			}
			if !reflect.DeepEqual(tr.emitOrder, baseline.emitOrder) {
				t.Fatalf("emit order differs from 1-shard baseline:\n got %v\nwant %v", tr.emitOrder, baseline.emitOrder)
			}
			if !reflect.DeepEqual(tr.removed, baseline.removed) {
				t.Fatalf("removed set differs from 1-shard baseline")
			}
			if !reflect.DeepEqual(tr.final, baseline.final) {
				t.Fatalf("final chunks differ from 1-shard baseline")
			}
		})
	}
}

func TestShardedConcurrentGetMany(t *testing.T) {
	s := openStore(t, Options{Shards: 8, Parallelism: 4})
	want := map[string]string{}
	var delta []DeltaEdge
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v := fmt.Sprintf("val-%05d", i)
		want[k] = v
		delta = append(delta, DeltaEdge{Key: k, MK: 1, V2: v})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	keys := s.Keys()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				err := s.GetMany(keys, func(k string, c Chunk, ok bool) error {
					if !ok {
						return fmt.Errorf("reader %d: missing %q", g, k)
					}
					if c.Edges[0].V2 != want[k] {
						return fmt.Errorf("reader %d: %q = %q, want %q", g, k, c.Edges[0].V2, want[k])
					}
					return nil
				})
				if err != nil {
					errs[g] = err
					return
				}
				if _, ok, err := s.Get(keys[(g*101+rep)%len(keys)]); err != nil || !ok {
					errs[g] = fmt.Errorf("reader %d: Get failed: ok=%v err=%v", g, ok, err)
					return
				}
				_ = s.Stats() // concurrent stats reads must be race-free too
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedCheckpointRecover(t *testing.T) {
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var delta []DeltaEdge
			for i := 0; i < 200; i++ {
				delta = append(delta, DeltaEdge{Key: fmt.Sprintf("key-%04d", i), MK: 1, V2: fmt.Sprintf("v%d", i)})
			}
			if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// A post-checkpoint merge is lost by the simulated crash.
			if err := s.Merge([]DeltaEdge{{Key: "lost", MK: 9, V2: "gone"}}, func(MergeResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen with a different (ignored) shard request: the
			// persisted count wins.
			r, err := Open(Options{Dir: dir, Shards: shards + 3})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.NumShards(); got != shards {
				t.Fatalf("recovered NumShards = %d, want persisted %d", got, shards)
			}
			if r.Len() != 200 {
				t.Fatalf("recovered %d chunks, want 200", r.Len())
			}
			if r.Has("lost") {
				t.Fatal("uncheckpointed chunk survived recovery")
			}
			if err := r.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
			// The recovered store accepts new merges.
			if err := r.Merge([]DeltaEdge{{Key: "new", MK: 2, V2: "x"}}, func(MergeResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if !r.Has("new") {
				t.Fatal("merge after recovery did not apply")
			}
		})
	}
}

func TestShardedCompactDropsObsoleteVersions(t *testing.T) {
	s := openStore(t, Options{Shards: 4, Parallelism: 2})
	for round := 0; round < 8; round++ {
		var delta []DeltaEdge
		for i := 0; i < 40; i++ {
			delta = append(delta, DeltaEdge{Key: fmt.Sprintf("key-%03d", i), MK: 1, V2: fmt.Sprintf("v%d", round)})
		}
		if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.FileBytes <= before.LiveBytes {
		t.Fatalf("expected obsolete data before compaction: %+v", before)
	}
	compactAll(t, s)
	after := s.Stats()
	if after.FileBytes != after.LiveBytes {
		t.Fatalf("compaction left obsolete bytes: %+v", after)
	}
	if after.LiveChunks != 40 {
		t.Fatalf("LiveChunks = %d, want 40", after.LiveChunks)
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedMergeAbortLeavesAllShardsUnchanged(t *testing.T) {
	s := openStore(t, Options{Shards: 4})
	var delta []DeltaEdge
	for i := 0; i < 40; i++ {
		delta = append(delta, DeltaEdge{Key: fmt.Sprintf("key-%03d", i), MK: 1, V2: "old"})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("emit failed")
	var update []DeltaEdge
	for i := 0; i < 40; i++ {
		update = append(update, DeltaEdge{Key: fmt.Sprintf("key-%03d", i), MK: 1, V2: "new"})
	}
	// Fail mid-emission: every shard must roll back, not just the one
	// whose key errored.
	n := 0
	err := s.Merge(update, func(r MergeResult) error {
		n++
		if n == 20 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("Merge = %v, want sentinel", err)
	}
	err = s.AllChunks(func(c Chunk) error {
		if c.Edges[0].V2 != "old" {
			return fmt.Errorf("key %q = %q after aborted merge", c.Key, c.Edges[0].V2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The store stays usable.
	if err := s.Merge(update, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("key-000")
	if got.Edges[0].V2 != "new" {
		t.Fatalf("retry merge did not apply: %+v", got)
	}
}

// TestPreShardingLayoutIsRefused: a directory holding the pre-sharding
// mrbg.dat but no mrbg.meta must fail Open loudly, and Open must not
// plant a fresh empty store (a meta file) beside the preserved chunks.
func TestPreShardingLayoutIsRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mrbg.dat"), []byte("preserved chunks"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Shards: 8})
	if err == nil {
		s.Close()
		t.Fatal("Open over a bare mrbg.dat succeeded; want a refusal")
	}
	if !strings.Contains(err.Error(), "mrbg.dat") {
		t.Errorf("refusal %q does not name mrbg.dat", err)
	}
	if _, err := os.Stat(filepath.Join(dir, metaName)); !os.IsNotExist(err) {
		t.Errorf("refused Open wrote a meta file (err=%v)", err)
	}
}

// TestResetDropsContents: Reset returns an empty, usable store over the
// same directory with the same shard count.
func TestResetDropsContents(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "v"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s, err = s.Reset()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 || s.NumShards() != 3 {
		t.Fatalf("after Reset: %d chunks in %d shards, want 0 in 3", s.Len(), s.NumShards())
	}
	if err := s.Merge([]DeltaEdge{{Key: "k2", MK: 1, V2: "v"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestShardMetaFixedAtCreation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "v"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(Options{Dir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want creation-time 4", r.NumShards())
	}
	if !r.Has("k") {
		t.Fatal("checkpointed chunk lost across reopen")
	}
}

func TestOpenRefusesShardFilesWithoutMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "v"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a lost meta file: re-creating it from Options.Shards
	// would reroute keys and silently hide checkpointed chunks.
	if err := os.Remove(filepath.Join(dir, metaName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Shards: 1}); err == nil {
		t.Fatal("Open succeeded with shard files but no meta")
	}
}

func TestShardStatsSumToAggregate(t *testing.T) {
	s := openStore(t, Options{Shards: 4})
	var delta []DeltaEdge
	for i := 0; i < 100; i++ {
		delta = append(delta, DeltaEdge{Key: fmt.Sprintf("key-%03d", i), MK: 1, V2: "v"})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	per := s.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	var chunks int
	var bytes int64
	for _, st := range per {
		chunks += st.LiveChunks
		bytes += st.LiveBytes
	}
	agg := s.Stats()
	if chunks != agg.LiveChunks || chunks != 100 {
		t.Fatalf("per-shard chunks %d, aggregate %d, want 100", chunks, agg.LiveChunks)
	}
	if bytes != agg.LiveBytes {
		t.Fatalf("per-shard bytes %d, aggregate %d", bytes, agg.LiveBytes)
	}
	// Every shard should hold some of the 100 keys with a sane hash.
	for i, st := range per {
		if st.LiveChunks == 0 {
			t.Fatalf("shard %d empty: hash is not spreading keys", i)
		}
	}
}

// --- shard-sweep micro-benchmarks ------------------------------------

func benchStore(b *testing.B, shards, nKeys int) *ShardedStore {
	b.Helper()
	s, err := Open(Options{Dir: b.TempDir(), Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	var delta []DeltaEdge
	for i := 0; i < nKeys; i++ {
		delta = append(delta, DeltaEdge{
			Key: fmt.Sprintf("key-%06d", i), MK: 1,
			V2: "value-payload-0123456789-value-payload",
		})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShardedMerge sweeps shard counts over the parallel
// delta-merge path (the per-iteration cost of incremental processing).
func BenchmarkShardedMerge(b *testing.B) {
	const nKeys = 20000
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s := benchStore(b, shards, nKeys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := make([]DeltaEdge, 0, 2000)
				for k := 0; k < 2000; k++ {
					delta = append(delta, DeltaEdge{
						Key: fmt.Sprintf("key-%06d", (i*37+k*53)%nKeys),
						MK:  2, V2: "updated-payload-9876543210",
					})
				}
				if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedGetMany sweeps shard counts over the fan-out query
// path.
func BenchmarkShardedGetMany(b *testing.B) {
	const nKeys = 20000
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s := benchStore(b, shards, nKeys)
			keys := s.Keys()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

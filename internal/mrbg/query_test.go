package mrbg

import (
	"fmt"
	"strings"
	"testing"
)

// populate fills a store with nKeys chunks, each carrying a payload of
// valSize bytes, committed as one batch per call.
func populate(t *testing.T, s *ShardedStore, nKeys, valSize int, tag string) []string {
	t.Helper()
	keys := make([]string, 0, nKeys)
	for i := 0; i < nKeys; i++ {
		keys = append(keys, fmt.Sprintf("key-%04d", i))
	}
	for _, k := range keys {
		err := s.Put(Chunk{Key: k, Edges: []Edge{{MK: 1, V2: tag + strings.Repeat("x", valSize)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestIndexOnlyOneReadPerChunk(t *testing.T) {
	s := openStore(t, Options{Strategy: IndexOnly})
	keys := populate(t, s, 50, 20, "a")
	s.ResetStats()
	err := s.GetMany(keys, func(k string, c Chunk, ok bool) error {
		if !ok {
			t.Fatalf("missing %q", k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 50 {
		t.Fatalf("Reads = %d, want 50 (one per chunk)", st.Reads)
	}
	if st.CacheHits != 0 {
		t.Fatalf("CacheHits = %d, want 0", st.CacheHits)
	}
	if st.BytesRead != st.LiveBytes {
		t.Fatalf("BytesRead = %d, want exactly live bytes %d", st.BytesRead, st.LiveBytes)
	}
}

// TestDefaultStrategyIsIndexOnly pins what an engine that leaves
// Options.Strategy unset actually runs: the zero value, IndexOnly, not
// the paper's multi-dynamic-window. Flipping the default moves every
// workload's read bytes, so it must be a deliberate, measured change.
func TestDefaultStrategyIsIndexOnly(t *testing.T) {
	var o Options
	o.applyDefaults()
	if o.Strategy != IndexOnly {
		t.Fatalf("default Strategy = %v, want %v", o.Strategy, IndexOnly)
	}
	s := openStore(t, Options{})
	keys := populate(t, s, 50, 20, "a")
	s.ResetStats()
	if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 50 || st.CacheHits != 0 {
		t.Fatalf("default store: Reads = %d, CacheHits = %d; want 50 exact reads and no window", st.Reads, st.CacheHits)
	}
}

func TestDynamicWindowBatchesAdjacentReads(t *testing.T) {
	s := openStore(t, Options{
		Strategy:      MultiDynamicWindow,
		GapThreshold:  1 << 10,
		ReadCacheSize: 1 << 20,
	})
	keys := populate(t, s, 50, 20, "a")
	s.ResetStats()
	if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads >= 50 {
		t.Fatalf("Reads = %d, want far fewer than 50", st.Reads)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits with adjacent queried chunks")
	}
}

func TestDynamicWindowRespectsCacheSize(t *testing.T) {
	// Cache that fits only ~2 chunks: every read must stay small.
	s := openStore(t, Options{
		Strategy:      MultiDynamicWindow,
		GapThreshold:  1 << 10,
		ReadCacheSize: 100,
	})
	keys := populate(t, s, 20, 30, "a")
	s.ResetStats()
	if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesRead > 20*100 {
		t.Fatalf("BytesRead = %d exceeds per-read cap times reads", st.BytesRead)
	}
	if st.Reads < 10 {
		t.Fatalf("Reads = %d, expected many small reads with a tiny cache", st.Reads)
	}
}

func TestDynamicWindowStopsAtLargeGap(t *testing.T) {
	// Query only the first and last chunks: the gap between them far
	// exceeds T, so the window must not read the middle.
	s := openStore(t, Options{
		Strategy:      MultiDynamicWindow,
		GapThreshold:  64,
		ReadCacheSize: 1 << 20,
	})
	keys := populate(t, s, 100, 50, "a")
	s.ResetStats()
	q := []string{keys[0], keys[99]}
	if err := s.GetMany(q, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 2 {
		t.Fatalf("Reads = %d, want 2 (gap exceeds threshold)", st.Reads)
	}
	if st.BytesRead > 2*200 {
		t.Fatalf("BytesRead = %d, window read through a large gap", st.BytesRead)
	}
}

func TestDynamicWindowReadsThroughSmallGap(t *testing.T) {
	// Query every other chunk with a generous T: gaps are single
	// chunks, well below T, so one large read should cover them.
	s := openStore(t, Options{
		Strategy:      MultiDynamicWindow,
		GapThreshold:  10 << 10,
		ReadCacheSize: 1 << 20,
	})
	keys := populate(t, s, 40, 20, "a")
	var q []string
	for i := 0; i < len(keys); i += 2 {
		q = append(q, keys[i])
	}
	s.ResetStats()
	if err := s.GetMany(q, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads > 3 {
		t.Fatalf("Reads = %d, want <= 3 with gaps below threshold", st.Reads)
	}
}

// populateMultiBatch builds a store whose keys alternate between two
// batches: even keys were rewritten in batch 2, odd keys remain in
// batch 1 — the Fig. 7 scenario.
func populateMultiBatch(t *testing.T, s *ShardedStore, nKeys, valSize int) []string {
	t.Helper()
	keys := populate(t, s, nKeys, valSize, "old-")
	var delta []DeltaEdge
	for i := 0; i < nKeys; i += 2 {
		delta = append(delta, DeltaEdge{Key: keys[i], MK: 1, V2: "new-" + strings.Repeat("y", valSize)})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestMultiBatchReturnsLatestVersion(t *testing.T) {
	for _, strategy := range []ReadStrategy{IndexOnly, SingleFixedWindow, MultiFixedWindow, MultiDynamicWindow} {
		t.Run(strategy.String(), func(t *testing.T) {
			s := openStore(t, Options{Strategy: strategy, FixedWindowSize: 256})
			keys := populateMultiBatch(t, s, 30, 10)
			err := s.GetMany(keys, func(k string, c Chunk, ok bool) error {
				if !ok {
					return fmt.Errorf("missing %q", k)
				}
				idx := 0
				fmt.Sscanf(k, "key-%d", &idx)
				wantPrefix := "old-"
				if idx%2 == 0 {
					wantPrefix = "new-"
				}
				if !strings.HasPrefix(c.Edges[0].V2, wantPrefix) {
					return fmt.Errorf("key %q value %q, want prefix %q", k, c.Edges[0].V2[:8], wantPrefix)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMultiWindowBeatsSingleWindowAcrossBatches(t *testing.T) {
	// With chunks interleaved across two batches, a single window
	// thrashes (every access jumps file regions) while per-batch
	// windows stream through each batch once.
	query := func(strategy ReadStrategy) Stats {
		s := openStore(t, Options{
			Strategy:        strategy,
			FixedWindowSize: 512,
			ReadCacheSize:   1 << 20,
			GapThreshold:    1 << 10,
		})
		keys := populateMultiBatch(t, s, 60, 20)
		s.ResetStats()
		if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	single := query(SingleFixedWindow)
	multi := query(MultiFixedWindow)
	dynamic := query(MultiDynamicWindow)
	if multi.Reads >= single.Reads {
		t.Fatalf("multi-fix reads %d, single-fix %d: multi should win", multi.Reads, single.Reads)
	}
	if dynamic.BytesRead > multi.BytesRead {
		t.Fatalf("dynamic read %d bytes, multi-fix %d: dynamic should not read more", dynamic.BytesRead, multi.BytesRead)
	}
}

func TestFixedWindowCacheHitsWithinWindow(t *testing.T) {
	s := openStore(t, Options{
		Strategy:        MultiFixedWindow,
		FixedWindowSize: 1 << 16,
	})
	keys := populate(t, s, 30, 10, "a")
	s.ResetStats()
	if err := s.GetMany(keys, func(string, Chunk, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 1 {
		t.Fatalf("Reads = %d, want 1 (whole batch fits one window)", st.Reads)
	}
	if st.CacheHits != 29 {
		t.Fatalf("CacheHits = %d, want 29", st.CacheHits)
	}
}

func TestStrategiesAgreeOnContent(t *testing.T) {
	// All four strategies must return identical chunks; they differ
	// only in I/O pattern.
	var baseline map[string]string
	for _, strategy := range []ReadStrategy{IndexOnly, SingleFixedWindow, MultiFixedWindow, MultiDynamicWindow} {
		s := openStore(t, Options{Strategy: strategy, FixedWindowSize: 128, ReadCacheSize: 4096, GapThreshold: 50})
		keys := populateMultiBatch(t, s, 25, 15)
		got := map[string]string{}
		err := s.GetMany(keys, func(k string, c Chunk, ok bool) error {
			if ok {
				got[k] = c.Edges[0].V2
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if len(got) != len(baseline) {
			t.Fatalf("%v returned %d chunks, baseline %d", strategy, len(got), len(baseline))
		}
		for k, v := range baseline {
			if got[k] != v {
				t.Fatalf("%v: key %q = %q, baseline %q", strategy, k, got[k], v)
			}
		}
	}
}

func TestAppendBufferFlushBoundary(t *testing.T) {
	// A tiny append buffer forces mid-merge flushes; locations must
	// remain exact.
	s := openStore(t, Options{AppendBufSize: 64})
	var delta []DeltaEdge
	for i := 0; i < 50; i++ {
		delta = append(delta, DeltaEdge{Key: fmt.Sprintf("k%03d", i), MK: 1, V2: strings.Repeat("v", 20)})
	}
	if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes < 2 {
		t.Fatalf("Flushes = %d, want several with a 64-byte buffer", st.Flushes)
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

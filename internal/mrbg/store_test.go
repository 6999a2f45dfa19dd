package mrbg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func openStore(t *testing.T, opts Options) *ShardedStore {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// compactAll reconstructs every shard's file whatever its size; the
// ShardedStore's own Compact leaves shards below the trigger alone.
func compactAll(t *testing.T, ss *ShardedStore) {
	t.Helper()
	for _, sh := range ss.shards {
		if err := sh.st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without dir succeeded")
	}
}

func TestChunkValues(t *testing.T) {
	c := Chunk{Key: "k", Edges: []Edge{{MK: 1, V2: "a"}, {MK: 2, V2: "b"}}}
	if got := c.Values(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Values = %v", got)
	}
}

func TestReadStrategyString(t *testing.T) {
	want := map[ReadStrategy]string{
		IndexOnly:          "index-only",
		SingleFixedWindow:  "single-fix-window",
		MultiFixedWindow:   "multi-fix-window",
		MultiDynamicWindow: "multi-dynamic-window",
		ReadStrategy(42):   "strategy(42)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestEncodeDecodeChunkRoundTrip(t *testing.T) {
	cases := []Chunk{
		{Key: "", Edges: nil},
		{Key: "k", Edges: []Edge{{MK: 0, V2: ""}}},
		{Key: "vertex-42", Edges: []Edge{{MK: 7, V2: "0.25"}, {MK: 99, V2: "1.0"}}},
	}
	for _, c := range cases {
		buf := encodeChunk(nil, c)
		got, n, err := decodeChunk(buf)
		if err != nil {
			t.Fatalf("decode(%+v): %v", c, err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if got.Key != c.Key || len(got.Edges) != len(c.Edges) {
			t.Fatalf("round trip = %+v, want %+v", got, c)
		}
		for i := range c.Edges {
			if got.Edges[i] != c.Edges[i] {
				t.Fatalf("edge %d = %+v, want %+v", i, got.Edges[i], c.Edges[i])
			}
		}
	}
}

func TestDecodeChunkCorrupt(t *testing.T) {
	c := Chunk{Key: "key", Edges: []Edge{{MK: 1, V2: "value"}}}
	buf := encodeChunk(nil, c)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := decodeChunk(buf[:cut]); err == nil {
			t.Fatalf("decodeChunk on %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestEncodeDecodeChunkProperty(t *testing.T) {
	f := func(key string, mks []uint64, vals []string) bool {
		n := len(mks)
		if len(vals) < n {
			n = len(vals)
		}
		c := Chunk{Key: key}
		for i := 0; i < n; i++ {
			c.Edges = append(c.Edges, Edge{MK: mks[i], V2: vals[i]})
		}
		buf := encodeChunk(nil, c)
		got, used, err := decodeChunk(buf)
		if err != nil || used != len(buf) || got.Key != c.Key || len(got.Edges) != len(c.Edges) {
			return false
		}
		for i := range c.Edges {
			if got.Edges[i] != c.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetCommit(t *testing.T) {
	s := openStore(t, Options{})
	chunks := []Chunk{
		{Key: "a", Edges: []Edge{{MK: 1, V2: "x"}}},
		{Key: "b", Edges: []Edge{{MK: 2, V2: "y"}, {MK: 3, V2: "z"}}},
	}
	for _, c := range chunks {
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	// Invisible before commit.
	if s.Has("a") {
		t.Fatal("chunk visible before CommitBatch")
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	for _, want := range chunks {
		got, ok, err := s.Get(want.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("chunk %q missing", want.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%q) = %+v, want %+v", want.Key, got, want)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Keys = %v", got)
	}
	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
}

func TestMergeInsertUpdateDelete(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.Put(Chunk{Key: "v1", Edges: []Edge{{MK: 10, V2: "0.3"}, {MK: 20, V2: "0.4"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Chunk{Key: "v2", Edges: []Edge{{MK: 10, V2: "0.3"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}

	// Update v1's MK=10 edge (delete+insert), delete v2's only edge,
	// and insert a brand new key v3.
	delta := []DeltaEdge{
		{Key: "v1", MK: 10, Delete: true},
		{Key: "v1", MK: 10, V2: "0.6"},
		{Key: "v2", MK: 10, Delete: true},
		{Key: "v3", MK: 30, V2: "0.1"},
	}
	var results []MergeResult
	if err := s.Merge(delta, func(r MergeResult) error {
		results = append(results, r.owned()) // a streamed result is scratch
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("merge emitted %d results: %+v", len(results), results)
	}
	byKey := map[string]MergeResult{}
	for _, r := range results {
		byKey[r.Key] = r
	}
	if r := byKey["v1"]; r.Removed || !reflect.DeepEqual(r.Chunk.Edges, []Edge{{MK: 10, V2: "0.6"}, {MK: 20, V2: "0.4"}}) {
		t.Fatalf("v1 result = %+v", r)
	}
	if r := byKey["v2"]; !r.Removed {
		t.Fatalf("v2 result = %+v, want Removed", r)
	}
	if r := byKey["v3"]; r.Removed || !reflect.DeepEqual(r.Chunk.Edges, []Edge{{MK: 30, V2: "0.1"}}) {
		t.Fatalf("v3 result = %+v", r)
	}

	// Store state reflects the merge.
	if s.Has("v2") {
		t.Fatal("v2 still live after full deletion")
	}
	got, ok, err := s.Get("v1")
	if err != nil || !ok {
		t.Fatalf("Get(v1) = %v %v", ok, err)
	}
	if got.Edges[0].V2 != "0.6" {
		t.Fatalf("v1 edge = %+v", got.Edges[0])
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches)
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEmitsSortedKeys(t *testing.T) {
	s := openStore(t, Options{})
	delta := []DeltaEdge{
		{Key: "z", MK: 1, V2: "1"},
		{Key: "a", MK: 1, V2: "1"},
		{Key: "m", MK: 1, V2: "1"},
	}
	var keys []string
	if err := s.Merge(delta, func(r MergeResult) error {
		keys = append(keys, r.Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("merge emission order %v not sorted", keys)
	}
}

func TestMergeDanglingDeleteCounted(t *testing.T) {
	s := openStore(t, Options{})
	err := s.Merge([]DeltaEdge{{Key: "ghost", MK: 1, Delete: true}}, func(r MergeResult) error {
		t.Fatalf("unexpected emit %+v", r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().DanglingDeletes != 1 {
		t.Fatalf("DanglingDeletes = %d", s.Stats().DanglingDeletes)
	}
}

func TestMergeAbortOnEmitErrorLeavesStoreUnchanged(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.Put(Chunk{Key: "k", Edges: []Edge{{MK: 1, V2: "old"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("emit failed")
	err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "new"}}, func(r MergeResult) error {
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("Merge = %v, want sentinel", err)
	}
	got, ok, err := s.Get("k")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.Edges[0].V2 != "old" {
		t.Fatalf("store changed after aborted merge: %+v", got)
	}
	// Store remains usable for a subsequent merge.
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "new"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get("k")
	if got.Edges[0].V2 != "new" {
		t.Fatalf("second merge did not apply: %+v", got)
	}
}

func TestUpdateAsDeletePlusInsertNets(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 5, V2: "v1"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Same-key same-MK delete then insert within one delta.
	if err := s.Merge([]DeltaEdge{
		{Key: "k", MK: 5, Delete: true},
		{Key: "k", MK: 5, V2: "v2"},
	}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("k")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(got.Edges) != 1 || got.Edges[0].V2 != "v2" {
		t.Fatalf("chunk = %+v", got)
	}
}

func TestUpsertWithoutExplicitDelete(t *testing.T) {
	// Paper Sec. 3.3: "the engine first checks duplicates ... updates
	// the old edge if duplicate exists". An insertion with an existing
	// (K2, MK) replaces the value.
	s := openStore(t, Options{})
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 5, V2: "v1"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 5, V2: "v2"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("k")
	if len(got.Edges) != 1 || got.Edges[0].V2 != "v2" {
		t.Fatalf("chunk = %+v", got)
	}
}

func TestCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{
		{Key: "a", MK: 1, V2: "1"},
		{Key: "b", MK: 2, V2: "2"},
	}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint merge that will be lost (crash before the next
	// checkpoint).
	if err := s.Merge([]DeltaEdge{{Key: "c", MK: 3, V2: "3"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("recovered %d chunks, want 2 (c written after checkpoint)", r.Len())
	}
	for _, k := range []string{"a", "b"} {
		c, ok, err := r.Get(k)
		if err != nil || !ok {
			t.Fatalf("recovered Get(%q) = %v %v", k, ok, err)
		}
		if len(c.Edges) != 1 {
			t.Fatalf("recovered chunk %q = %+v", k, c)
		}
	}
	if r.Has("c") {
		t.Fatal("uncheckpointed chunk survived recovery")
	}
	if err := r.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	// Recovered store accepts new merges.
	if err := r.Merge([]DeltaEdge{{Key: "d", MK: 4, V2: "4"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !r.Has("d") {
		t.Fatal("merge after recovery did not apply")
	}
}

func TestOpenFreshStoreDiscardsOrphanData(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]DeltaEdge{{Key: "x", MK: 1, V2: "1"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.Close() // no checkpoint ever written

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 || r.Stats().FileBytes != 0 {
		t.Fatalf("fresh open kept %d chunks, %d bytes", r.Len(), r.Stats().FileBytes)
	}
}

func TestCompactDropsObsoleteVersions(t *testing.T) {
	s := openStore(t, Options{})
	// Ten merges rewriting the same keys leave 10 versions on disk.
	for i := 0; i < 10; i++ {
		delta := []DeltaEdge{
			{Key: "a", MK: 1, V2: fmt.Sprintf("v%d", i)},
			{Key: "b", MK: 2, V2: fmt.Sprintf("w%d", i)},
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
	if after.Batches != 1 {
		t.Fatalf("Batches after compact = %d", after.Batches)
	}
	got, ok, err := s.Get("a")
	if err != nil || !ok || got.Edges[0].V2 != "v9" {
		t.Fatalf("Get(a) after compact = %+v ok=%v err=%v", got, ok, err)
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	// Merging after compaction still works.
	if err := s.Merge([]DeltaEdge{{Key: "c", MK: 9, V2: "new"}}, func(MergeResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !s.Has("c") {
		t.Fatal("merge after compact missing")
	}
}

func TestCompactEmptyStore(t *testing.T) {
	s := openStore(t, Options{})
	compactAll(t, s)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetManyRequiresSortedKeys(t *testing.T) {
	s := openStore(t, Options{})
	err := s.GetMany([]string{"b", "a"}, func(string, Chunk, bool) error { return nil })
	if err == nil {
		t.Fatal("GetMany with unsorted keys succeeded")
	}
}

// mergeModel is an in-memory reference model of the store used by the
// randomized equivalence test.
type mergeModel map[string]map[uint64]string

func (m mergeModel) apply(d DeltaEdge) {
	edges := m[d.Key]
	if d.Delete {
		delete(edges, d.MK)
		if len(edges) == 0 {
			delete(m, d.Key)
		}
		return
	}
	if edges == nil {
		edges = make(map[uint64]string)
		m[d.Key] = edges
	}
	edges[d.MK] = d.V2
}

func TestRandomizedMergesMatchModel(t *testing.T) {
	for _, strategy := range []ReadStrategy{IndexOnly, SingleFixedWindow, MultiFixedWindow, MultiDynamicWindow} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			s := openStore(t, Options{
				Strategy:        strategy,
				FixedWindowSize: 128,
				ReadCacheSize:   512,
				GapThreshold:    64,
				AppendBufSize:   100,
			})
			rng := rand.New(rand.NewSource(42))
			model := mergeModel{}
			for round := 0; round < 25; round++ {
				n := rng.Intn(30) + 1
				delta := make([]DeltaEdge, 0, n)
				for i := 0; i < n; i++ {
					d := DeltaEdge{
						Key: fmt.Sprintf("key-%02d", rng.Intn(15)),
						MK:  uint64(rng.Intn(5)),
					}
					if rng.Intn(3) == 0 {
						d.Delete = true
					} else {
						d.V2 = fmt.Sprintf("val-%d-%d", round, i)
					}
					delta = append(delta, d)
				}
				// Model applies records in (key-stable, slice) order as
				// Merge does.
				sorted := append([]DeltaEdge(nil), delta...)
				sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
				for _, d := range sorted {
					model.apply(d)
				}
				if err := s.Merge(delta, func(MergeResult) error { return nil }); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}

				// Full-store comparison against the model.
				if s.Len() != len(model) {
					t.Fatalf("round %d: store has %d keys, model %d", round, s.Len(), len(model))
				}
				for key, edges := range model {
					c, ok, err := s.Get(key)
					if err != nil {
						t.Fatalf("round %d Get(%q): %v", round, key, err)
					}
					if !ok {
						t.Fatalf("round %d: model key %q missing from store", round, key)
					}
					if len(c.Edges) != len(edges) {
						t.Fatalf("round %d key %q: %d edges, model %d", round, key, len(c.Edges), len(edges))
					}
					for _, e := range c.Edges {
						if edges[e.MK] != e.V2 {
							t.Fatalf("round %d key %q MK %d: %q, model %q", round, key, e.MK, e.V2, edges[e.MK])
						}
					}
				}
			}
			if err := s.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

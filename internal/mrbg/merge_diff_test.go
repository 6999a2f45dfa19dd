package mrbg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceMergeDeltas is the merge loop as it was before the sorted
// merge replaced it: a map per affected key, then a sort of the
// surviving edges. It survives only here, as the oracle the
// differential tests hold the production loop to.
func referenceMergeDeltas(s *Store, delta []DeltaEdge) ([]MergeResult, error) {
	if len(s.pending) != 0 {
		return nil, errors.New("mrbg: Merge re-entered before commit")
	}
	ds := append([]DeltaEdge(nil), delta...)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Key < ds[j].Key })
	keys := make([]string, 0, len(ds))
	for i, d := range ds {
		if i == 0 || d.Key != ds[i-1].Key {
			keys = append(keys, d.Key)
		}
	}
	plan := &queryPlan{keys: keys}

	var results []MergeResult
	di := 0
	for ki, key := range keys {
		plan.pos = ki
		old, ok, err := s.fetch(key, plan, nil)
		if err != nil {
			return nil, err
		}
		merged := make(map[uint64]string, len(old.Edges)+4)
		for _, e := range old.Edges {
			merged[e.MK] = e.V2
		}
		for ; di < len(ds) && ds[di].Key == key; di++ {
			if ds[di].Delete {
				delete(merged, ds[di].MK)
			} else {
				merged[ds[di].MK] = ds[di].V2
			}
		}
		if len(merged) == 0 {
			if ok {
				results = append(results, MergeResult{Key: key, Removed: true})
			} else {
				s.stats.DanglingDeletes++
			}
			continue
		}
		edges := make([]Edge, 0, len(merged))
		for mk, v2 := range merged {
			edges = append(edges, Edge{MK: mk, V2: v2})
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].MK < edges[j].MK })
		c := Chunk{Key: key, Edges: edges}
		results = append(results, MergeResult{Key: key, Chunk: c, Values: c.Values()})
		if err := s.appendChunk(c); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// referenceMerge drives referenceMergeDeltas the way ShardedStore.Merge
// drives the production loop: partition per shard, join, emit in global
// key order, commit.
func referenceMerge(ss *ShardedStore, delta []DeltaEdge, emit func(MergeResult) error) error {
	parts := make([][]DeltaEdge, len(ss.shards))
	for _, d := range delta {
		i := ss.shardFor(d.Key)
		parts[i] = append(parts[i], d)
	}
	staged := make([][]MergeResult, len(ss.shards))
	var all []MergeResult
	for i, sh := range ss.shards {
		if len(parts[i]) == 0 {
			continue
		}
		rs, err := referenceMergeDeltas(sh.st, parts[i])
		if err != nil {
			return err
		}
		staged[i] = rs
		all = append(all, rs...)
	}
	slices.SortFunc(all, func(a, b MergeResult) int { return strings.Compare(a.Key, b.Key) })
	for _, r := range all {
		if err := emit(r); err != nil {
			return err
		}
	}
	for i, sh := range ss.shards {
		if len(parts[i]) == 0 {
			continue
		}
		if err := sh.st.commitMerge(staged[i]); err != nil {
			return err
		}
	}
	return nil
}

// deltaGen produces seeded delta sequences that hit the merge's corner
// cases: several records of one (key, MK) in both orders, deletions of
// edges and keys that never existed, keys losing every edge, brand-new
// keys, and a hot key with a very large chunk.
type deltaGen struct {
	rng  *rand.Rand
	live map[string]map[uint64]bool // the generator's own model of the store
	next int                        // suffix of the next brand-new key
}

const hotKey = "hot"

func newDeltaGen(seed int64) *deltaGen {
	return &deltaGen{rng: rand.New(rand.NewSource(seed)), live: map[string]map[uint64]bool{}}
}

func (g *deltaGen) record(d DeltaEdge) DeltaEdge {
	if d.Delete {
		delete(g.live[d.Key], d.MK)
		if len(g.live[d.Key]) == 0 {
			delete(g.live, d.Key)
		}
		return d
	}
	if g.live[d.Key] == nil {
		g.live[d.Key] = map[uint64]bool{}
	}
	g.live[d.Key][d.MK] = true
	return d
}

func (g *deltaGen) liveKeys() []string {
	ks := make([]string, 0, len(g.live))
	for k := range g.live {
		if k != hotKey {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// hot returns the first delta: hotEdges insertions for one key.
func (g *deltaGen) hot(hotEdges int) []DeltaEdge {
	ds := make([]DeltaEdge, 0, hotEdges)
	for i := 0; i < hotEdges; i++ {
		ds = append(ds, g.record(DeltaEdge{Key: hotKey, MK: uint64(i) * 3, V2: fmt.Sprintf("h%d", i)}))
	}
	return ds
}

// round returns one delta. MKs come from a small range so records
// collide with live edges and with each other.
func (g *deltaGen) round(round int) []DeltaEdge {
	var ds []DeltaEdge
	add := func(d DeltaEdge) { ds = append(ds, g.record(d)) }
	val := func() string { return fmt.Sprintf("r%d-%d", round, g.rng.Intn(1000)) }

	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%03d", g.rng.Intn(30))
		mk := uint64(g.rng.Intn(12))
		switch g.rng.Intn(6) {
		case 0: // delete, live or not
			add(DeltaEdge{Key: key, MK: mk, Delete: true})
		case 1: // the paper's update: delete then insert
			add(DeltaEdge{Key: key, MK: mk, Delete: true})
			add(DeltaEdge{Key: key, MK: mk, V2: val()})
		case 2: // insert then delete: nets to nothing
			add(DeltaEdge{Key: key, MK: mk, V2: val()})
			add(DeltaEdge{Key: key, MK: mk, Delete: true})
		default:
			add(DeltaEdge{Key: key, MK: mk, V2: val()})
		}
	}
	// Brand-new keys.
	for i := 0; i < 3; i++ {
		g.next++
		key := fmt.Sprintf("n%04d", g.next)
		for e := 0; e <= g.rng.Intn(4); e++ {
			add(DeltaEdge{Key: key, MK: uint64(g.rng.Intn(50)), V2: val()})
		}
	}
	// Empty out a few live keys, and delete from keys that never lived.
	if ks := g.liveKeys(); len(ks) > 0 {
		for i := 0; i < 3; i++ {
			key := ks[g.rng.Intn(len(ks))]
			mks := make([]uint64, 0, len(g.live[key]))
			for mk := range g.live[key] {
				mks = append(mks, mk)
			}
			slices.Sort(mks)
			for _, mk := range mks {
				add(DeltaEdge{Key: key, MK: mk, Delete: true})
			}
		}
	}
	add(DeltaEdge{Key: fmt.Sprintf("ghost%d", round), MK: 1, Delete: true})
	add(DeltaEdge{Key: fmt.Sprintf("ghost%d", round), MK: 2, V2: "x"})
	add(DeltaEdge{Key: fmt.Sprintf("ghost%d", round), MK: 2, Delete: true})
	// A small delta against the hot chunk: update, delete, insert.
	if hot := g.live[hotKey]; len(hot) > 0 {
		add(DeltaEdge{Key: hotKey, MK: uint64(g.rng.Intn(len(hot))) * 3, V2: val()})
		add(DeltaEdge{Key: hotKey, MK: uint64(g.rng.Intn(len(hot))) * 3, Delete: true})
		add(DeltaEdge{Key: hotKey, MK: uint64(g.rng.Intn(len(hot)))*3 + 1, V2: val()})
	}

	switch round % 3 {
	case 0:
		// As generated: keys interleaved, same-(key, MK) records in
		// apply order.
	case 1:
		// Shuffled, except that the records of one key keep their
		// relative order (which is their apply order).
		byKey := map[string][]DeltaEdge{}
		for _, d := range ds {
			byKey[d.Key] = append(byKey[d.Key], d)
		}
		g.rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		for i, d := range ds {
			ds[i], byKey[d.Key] = byKey[d.Key][0], byKey[d.Key][1:]
		}
	case 2:
		// Already in merge order: the path that does not copy.
		slices.SortStableFunc(ds, compareDelta)
	}
	return ds
}

func collect(out *[]MergeResult) func(MergeResult) error {
	return func(r MergeResult) error {
		*out = append(*out, r.owned())
		return nil
	}
}

// sameResults compares two result streams, treating nil and empty
// slices alike.
func sameResults(t *testing.T, got, want []MergeResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d results, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Removed != w.Removed || g.Chunk.Key != w.Chunk.Key ||
			!slices.Equal(g.Chunk.Edges, w.Chunk.Edges) || !slices.Equal(g.Values, w.Values) {
			t.Fatalf("result %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// sameFiles asserts the two store directories hold byte-identical
// files.
func sameFiles(t *testing.T, dirA, dirB string) {
	t.Helper()
	names, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		a, err := os.ReadFile(filepath.Join(dirA, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs from the reference (%d vs %d bytes)", de.Name(), len(a), len(b))
		}
	}
}

// TestMergeMatchesReference drives the sorted merge and the map-based
// reference with the same delta sequences and demands the same result
// stream, the same Stats and the same bytes on disk after every round.
func TestMergeMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, strategy := range []ReadStrategy{IndexOnly, MultiDynamicWindow} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("shards-%d/%s/seed-%d", shards, strategy, seed)
				t.Run(name, func(t *testing.T) {
					// A small append buffer makes merges flush mid-batch.
					opts := Options{Shards: shards, Strategy: strategy, AppendBufSize: 4 << 10}
					optsA, optsB := opts, opts
					optsA.Dir, optsB.Dir = t.TempDir(), t.TempDir()
					a, b := openStore(t, optsA), openStore(t, optsB)

					// Chunks staged with Put are not validated: feed both
					// stores edges out of MK order and with repeated MKs.
					for _, s := range []*ShardedStore{a, b} {
						for _, c := range []Chunk{
							{Key: "k001", Edges: []Edge{{MK: 9, V2: "p9"}, {MK: 2, V2: "p2"}, {MK: 9, V2: "p9b"}}},
							{Key: "k002", Edges: []Edge{{MK: 4, V2: "p4"}, {MK: 4, V2: "p4b"}}},
							{Key: "k003"},
						} {
							if err := s.Put(c); err != nil {
								t.Fatal(err)
							}
						}
						if err := s.CommitBatch(); err != nil {
							t.Fatal(err)
						}
					}

					gen := newDeltaGen(seed)
					for round := -1; round < 12; round++ {
						var delta []DeltaEdge
						if round < 0 {
							delta = gen.hot(10000)
						} else {
							delta = gen.round(round)
						}
						var got, want []MergeResult
						if err := a.Merge(delta, collect(&got)); err != nil {
							t.Fatal(err)
						}
						if err := referenceMerge(b, delta, collect(&want)); err != nil {
							t.Fatal(err)
						}
						sameResults(t, got, want)
						if sa, sb := a.Stats(), b.Stats(); sa != sb {
							t.Fatalf("round %d: stats %+v, reference %+v", round, sa, sb)
						}
						if !reflect.DeepEqual(a.ShardStats(), b.ShardStats()) {
							t.Fatalf("round %d: per-shard stats differ", round)
						}
						if round%4 == 3 {
							if err := a.Checkpoint(); err != nil {
								t.Fatal(err)
							}
							if err := b.Checkpoint(); err != nil {
								t.Fatal(err)
							}
						}
						sameFiles(t, optsA.Dir, optsB.Dir)
					}
					if err := a.VerifyInvariants(); err != nil {
						t.Fatal(err)
					}
					if a.Stats().DanglingDeletes == 0 {
						t.Fatal("no dangling delete exercised")
					}
				})
			}
		}
	}
}

// TestMergeRepeatedMKLastWins pins the apply order of records sharing
// one (key, MK): the last in slice order decides.
func TestMergeRepeatedMKLastWins(t *testing.T) {
	s := openStore(t, Options{})
	noop := func(MergeResult) error { return nil }
	if err := s.Merge([]DeltaEdge{{Key: "k", MK: 1, V2: "a"}, {Key: "k", MK: 2, V2: "b"}}, noop); err != nil {
		t.Fatal(err)
	}
	delta := []DeltaEdge{
		{Key: "k", MK: 1, Delete: true}, {Key: "k", MK: 1, V2: "a2"}, // update
		{Key: "k", MK: 2, V2: "b2"}, {Key: "k", MK: 2, Delete: true}, // insert, then delete
		{Key: "k", MK: 3, V2: "c"}, {Key: "k", MK: 3, V2: "c2"}, // last insertion wins
	}
	if err := s.Merge(delta, noop); err != nil {
		t.Fatal(err)
	}
	c, ok, err := s.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if want := []Edge{{MK: 1, V2: "a2"}, {MK: 3, V2: "c2"}}; !slices.Equal(c.Edges, want) {
		t.Fatalf("edges = %+v, want %+v", c.Edges, want)
	}
}

// TestStreamedResultIsScratch documents the aliasing contract: a
// single-shard store reuses a result's slices for the next key, a
// multi-shard store hands out slices the result owns.
func TestStreamedResultIsScratch(t *testing.T) {
	delta := []DeltaEdge{{Key: "a", MK: 1, V2: "va"}, {Key: "b", MK: 1, V2: "vb"}}
	for _, shards := range []int{1, 4} {
		s := openStore(t, Options{Shards: shards})
		var kept []MergeResult
		if err := s.Merge(delta, func(r MergeResult) error {
			kept = append(kept, r) // deliberately not cloned
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		aliased := &kept[0].Values[0] == &kept[1].Values[0]
		if want := shards == 1; aliased != want {
			t.Fatalf("shards=%d: results share scratch = %v, want %v", shards, aliased, want)
		}
		if shards > 1 && (kept[0].Values[0] != "va" || kept[0].Chunk.Edges[0].V2 != "va") {
			t.Fatalf("buffered result was overwritten: %+v", kept[0])
		}
	}
}

// hotStore returns a single-shard store holding nKeys chunks of nEdges
// edges each, and a delta that updates two edges of every chunk.
func hotStore(tb testing.TB, nKeys, nEdges int) (*ShardedStore, []DeltaEdge) {
	tb.Helper()
	s, err := Open(Options{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	var delta []DeltaEdge
	for k := 0; k < nKeys; k++ {
		c := Chunk{Key: fmt.Sprintf("key-%04d", k)}
		for e := 0; e < nEdges; e++ {
			c.Edges = append(c.Edges, Edge{MK: uint64(e), V2: "value-payload"})
		}
		if err := s.Put(c); err != nil {
			tb.Fatal(err)
		}
		delta = append(delta,
			DeltaEdge{Key: c.Key, MK: 1, V2: "updated-once"},
			DeltaEdge{Key: c.Key, MK: uint64(nEdges / 2), V2: "updated-twice"})
	}
	if err := s.CommitBatch(); err != nil {
		tb.Fatal(err)
	}
	return s, delta
}

// TestMergeAllocsIndependentOfChunkSize asserts the merge allocates
// O(1) per affected key however many edges its chunk holds: the frame's
// one string, not a map entry, an edge and a value per edge.
func TestMergeAllocsIndependentOfChunkSize(t *testing.T) {
	noop := func(MergeResult) error { return nil }
	perKey := func(nKeys, nEdges int) float64 {
		s, delta := hotStore(t, nKeys, nEdges)
		// One merge up front grows the pooled read buffer.
		if err := s.Merge(delta, noop); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := s.Merge(delta, noop); err != nil {
				t.Fatal(err)
			}
		}) / float64(nKeys)
	}
	if got := perKey(1, 1000); got > 6 {
		t.Errorf("one 1000-edge chunk, 2-edge delta: %.0f allocs per merge, want at most 6", got)
	}
	small, large := perKey(64, 10), perKey(64, 1000)
	t.Logf("allocs per merged key: %.2f at 10 edges, %.2f at 1000 edges", small, large)
	if large > 3 {
		t.Errorf("%.2f allocs per merged 1000-edge key, want at most 3", large)
	}
	if large > small+0.5 {
		t.Errorf("allocs per key grew with the chunk: %.2f at 10 edges, %.2f at 1000", small, large)
	}
}

// BenchmarkMergeHotChunk merges a 2-edge delta into one 10 000-edge
// chunk: the cost that should follow the bytes touched, not a map and a
// sort per edge.
func BenchmarkMergeHotChunk(b *testing.B) {
	s, delta := hotStore(b, 1, 10000)
	noop := func(MergeResult) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Merge(delta, noop); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			// Every merge appends a new 200 KB version; keep the file small.
			b.StopTimer()
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

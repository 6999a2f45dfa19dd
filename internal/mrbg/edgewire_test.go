package mrbg

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"i2mapreduce/internal/kv"
)

func TestDeltaEdgeRoundTrip(t *testing.T) {
	for _, c := range []struct {
		mk, seq uint64
		del     bool
		v2      string
	}{
		{0, 0, false, ""},
		{1, 2, false, "0.25"},
		{1<<64 - 1, 1<<64 - 1, false, "value with : and \n and \x00"},
		{0xdeadbeef, 7, true, "ignored"},
	} {
		got, err := decodeDeltaEdge("k2", encodeDeltaEdge(c.mk, c.seq, c.del, c.v2))
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want := DeltaEdge{Key: "k2", MK: c.mk, Delete: c.del}
		if !c.del {
			want.V2 = c.v2
		}
		if got != want {
			t.Errorf("round trip of %+v = %+v, want %+v", c, got, want)
		}
	}
	for _, bad := range []string{"", "short", strings.Repeat("0", 32), strings.Repeat("0", 32) + "2", strings.Repeat("g", 16) + strings.Repeat("0", 16) + "1v"} {
		if _, err := decodeDeltaEdge("k", bad); err == nil {
			t.Errorf("decodeDeltaEdge(%q) succeeded", bad)
		}
	}
}

// TestDeltaEdgeSortOrderIsApplyOrder pins the property the encoding
// exists for: the shuffle's plain string order over the values of one K2
// is (MK, delta-file position), at any magnitude of either.
func TestDeltaEdgeSortOrderIsApplyOrder(t *testing.T) {
	type rec struct{ mk, seq uint64 }
	recs := []rec{{1, 5}, {1, 1 << 40}, {2, 0}, {255, 3}, {256, 2}, {1 << 63, 1}, {1<<64 - 1, 0}}
	var vals []string
	for i, r := range recs {
		vals = append(vals, encodeDeltaEdge(r.mk, r.seq, i%2 == 0, "v"))
	}
	if !slices.IsSorted(vals) {
		t.Fatalf("encoded values not in (MK, seq) order: %q", vals)
	}
}

// TestEdgeEmitDerivesStableMKs: the MK depends only on the input record
// and the emission's occurrence index for its K2, so a deletion
// regenerates the insertion's MKs and repeated emissions to one K2 do
// not collide.
func TestEdgeEmitDerivesStableMKs(t *testing.T) {
	collect := func(k1, v1 string, seq uint64, del bool) []DeltaEdge {
		var out []DeltaEdge
		emit := EdgeEmit(k1, v1, seq, del, func(k2, v string) {
			de, err := decodeDeltaEdge(k2, v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, de)
		})
		emit("a", "1")
		emit("b", "2")
		emit("a", "3")
		return out
	}
	ins := collect("line", "a b a", 0, false)
	del := collect("line", "a b a", 9, true)
	other := collect("line", "a b a!", 0, false)
	if ins[0].MK == ins[2].MK {
		t.Error("two emissions to one K2 share an MK")
	}
	for i := range ins {
		if ins[i].MK != del[i].MK || ins[i].Key != del[i].Key {
			t.Errorf("edge %d: deletion regenerated (%s, %x), insertion was (%s, %x)", i, del[i].Key, del[i].MK, ins[i].Key, ins[i].MK)
		}
		if !del[i].Delete || del[i].V2 != "" || ins[i].Delete {
			t.Errorf("edge %d: op lost in transit: ins %+v del %+v", i, ins[i], del[i])
		}
		if ins[i].MK == other[i].MK {
			t.Errorf("edge %d: a different record produced the same MK", i)
		}
	}
}

// groupSource streams gs the way a shuffle.GroupSource would.
func groupSource(gs []kv.Group) func(func(kv.Group) error) error {
	return func(yield func(kv.Group) error) error {
		for _, g := range gs {
			if err := yield(g); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestMergeGroupsBatchingIsInvisible drains one grouped stream into two
// stores, one in a single batch and one in the smallest batches the
// bound allows, and requires identical emissions and identical stores.
func TestMergeGroupsBatchingIsInvisible(t *testing.T) {
	var groups []kv.Group
	for i := 0; i < 40; i++ {
		g := kv.Group{Key: fmt.Sprintf("k%02d", i)}
		for j := 0; j <= i%3; j++ {
			g.Values = append(g.Values, encodeDeltaEdge(uint64(j), 0, false, fmt.Sprintf("v%d", i+j)))
		}
		groups = append(groups, g)
	}
	// A second round deletes some edges (emptying every third chunk) and
	// overwrites others.
	var round2 []kv.Group
	for i := 0; i < 40; i += 2 {
		g := kv.Group{Key: fmt.Sprintf("k%02d", i)}
		if i%3 == 0 {
			g.Values = append(g.Values, encodeDeltaEdge(0, 1, true, ""))
		} else {
			g.Values = append(g.Values, encodeDeltaEdge(0, 1, false, "new"))
		}
		round2 = append(round2, g)
	}
	run := func(batchBytes int64) (emitted, chunks []string, batches int64) {
		st, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for _, gs := range [][]kv.Group{groups, round2} {
			err := st.MergeGroups(groupSource(gs), batchBytes, func(r MergeResult) error {
				emitted = append(emitted, fmt.Sprintf("%s %v %v", r.Key, r.Removed, r.Values))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		err = st.AllChunks(func(c Chunk) error {
			chunks = append(chunks, fmt.Sprintf("%s %v", c.Key, c.Edges))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return emitted, chunks, int64(st.Stats().Batches)
	}
	wantEmitted, wantChunks, oneShot := run(0)
	gotEmitted, gotChunks, batched := run(1)
	if !slices.Equal(gotEmitted, wantEmitted) {
		t.Errorf("batched emissions differ:\n got %v\nwant %v", gotEmitted, wantEmitted)
	}
	if !slices.Equal(gotChunks, wantChunks) {
		t.Errorf("batched store differs:\n got %v\nwant %v", gotChunks, wantChunks)
	}
	if oneShot != 2 || batched <= oneShot {
		t.Errorf("batches committed: one-shot %d (want 2), bounded %d (want more)", oneShot, batched)
	}
}

// TestMergeGroupsRejectsMalformedValue: a value that is not an encoded
// edge fails the drain instead of merging as something else.
func TestMergeGroupsRejectsMalformedValue(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stream := groupSource([]kv.Group{
		{Key: "a", Values: []string{encodeDeltaEdge(1, 0, false, "v")}},
		{Key: "b", Values: []string{"not an edge"}},
	})
	if err := st.MergeGroups(stream, 0, func(MergeResult) error { return nil }); err == nil {
		t.Fatal("MergeGroups swallowed a malformed edge value")
	}
	if st.Len() != 0 {
		t.Fatalf("a failed drain committed %d chunks", st.Len())
	}
}

// FuzzDeltaEdgeValue feeds decodeDeltaEdge arbitrary shuffle values, as
// a corrupt spill run would. It must reject them or return an edge that
// re-encodes to a value decoding to the same edge, and every encoded
// edge must round-trip; it must never panic.
func FuzzDeltaEdgeValue(f *testing.F) {
	f.Add("", uint64(0), uint64(0), false)
	f.Add("0.25", uint64(7), uint64(1)<<32|3, false)
	f.Add("gone", uint64(1)<<63, uint64(9), true)
	f.Add(encodeDeltaEdge(42, 1, false, "seed"), uint64(0), uint64(0), false)
	f.Add(encodeDeltaEdge(42, 1, true, "")[:20], uint64(0), uint64(0), true)
	f.Fuzz(func(t *testing.T, s string, mk, seq uint64, del bool) {
		// s as a value to encode.
		de, err := decodeDeltaEdge("k", encodeDeltaEdge(mk, seq, del, s))
		want := DeltaEdge{Key: "k", MK: mk, Delete: del}
		if !del {
			want.V2 = s
		}
		if err != nil || de != want {
			t.Fatalf("round trip of (%x, %x, %v, %q) = %+v, %v", mk, seq, del, s, de, err)
		}
		// s as bytes off a wire.
		de, err = decodeDeltaEdge("k", s)
		if err != nil {
			return // rejected input: exactly what corruption should do
		}
		again, err := decodeDeltaEdge("k", encodeDeltaEdge(de.MK, 0, de.Delete, de.V2))
		if err != nil || again != de {
			t.Fatalf("re-decoding accepted value %q: %+v then %+v, %v", s, de, again, err)
		}
	})
}

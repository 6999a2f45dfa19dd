package kv

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func drain(t *testing.T, src PairSource) []Pair {
	t.Helper()
	var out []Pair
	for {
		p, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

func TestSliceSource(t *testing.T) {
	ps := []Pair{{"a", "1"}, {"b", "2"}}
	got := drain(t, NewSliceSource(ps))
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("SliceSource = %v", got)
	}
}

func TestReaderSource(t *testing.T) {
	var buf bytes.Buffer
	ps := []Pair{{"a", "1"}, {"b", "2"}}
	if _, err := EncodePairs(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got := drain(t, ReaderSource{R: NewReader(&buf)})
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("ReaderSource = %v", got)
	}
}

func TestMergerByKeyValueReproducesSortPairsOrder(t *testing.T) {
	// Split a random multiset of pairs into arbitrary sorted runs; the
	// (key, value)-ordered merge must reproduce SortPairs' total order
	// on the union, regardless of how the runs were cut.
	rng := rand.New(rand.NewSource(42))
	var all []Pair
	for i := 0; i < 500; i++ {
		all = append(all, Pair{
			Key:   string(rune('a' + rng.Intn(8))),
			Value: string(rune('0' + rng.Intn(10))),
		})
	}
	want := append([]Pair(nil), all...)
	SortPairs(want)

	for _, runsN := range []int{1, 3, 7} {
		runs := make([][]Pair, runsN)
		for i, p := range all {
			r := (i * 31) % runsN
			runs[r] = append(runs[r], p)
		}
		sources := make([]PairSource, runsN)
		for r := range runs {
			SortPairs(runs[r])
			sources[r] = NewSliceSource(runs[r])
		}
		m, err := NewMergerByKeyValue(sources...)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d runs: merge order differs from SortPairs order", runsN)
		}
	}
}

func TestMergerByKeyValueOrdersValuesAcrossRuns(t *testing.T) {
	// Equal keys with different values interleave by value, not by run.
	a := []Pair{{"k", "3"}, {"k", "5"}}
	b := []Pair{{"k", "1"}, {"k", "4"}}
	m, err := NewMergerByKeyValue(NewSliceSource(a), NewSliceSource(b))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	want := []Pair{{"k", "1"}, {"k", "3"}, {"k", "4"}, {"k", "5"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestMergerTwoRuns(t *testing.T) {
	a := []Pair{{"a", "1"}, {"c", "3"}, {"e", "5"}}
	b := []Pair{{"b", "2"}, {"c", "30"}, {"d", "4"}}
	m, err := NewMergerByKeyValue(NewSliceSource(a), NewSliceSource(b))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	want := []Pair{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"c", "30"}, {"d", "4"}, {"e", "5"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

func TestMergerEmptyAndSingleRuns(t *testing.T) {
	m, err := NewMergerByKeyValue()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, m); len(got) != 0 {
		t.Fatalf("empty merger yielded %v", got)
	}
	m, err = NewMergerByKeyValue(NewSliceSource(nil), NewSliceSource([]Pair{{"x", "1"}}))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, m)
	if !reflect.DeepEqual(got, []Pair{{"x", "1"}}) {
		t.Fatalf("merge = %v", got)
	}
}

func TestMergerEqualsSortProperty(t *testing.T) {
	f := func(seed int64, nRuns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(nRuns%5) + 1
		var all []Pair
		sources := make([]PairSource, k)
		for i := 0; i < k; i++ {
			run := randomPairsQuick(rng, rng.Intn(20))
			SortPairs(run)
			all = append(all, run...)
			sources[i] = NewSliceSource(run)
		}
		m, err := NewMergerByKeyValue(sources...)
		if err != nil {
			return false
		}
		var got []Pair
		for {
			p, err := m.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, p)
		}
		if len(got) != len(all) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key < got[i-1].Key {
				return false
			}
		}
		// Same multiset: sort both and compare.
		SortPairs(all)
		cp := append([]Pair(nil), got...)
		SortPairs(cp)
		return reflect.DeepEqual(cp, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randomPairsQuick(rng *rand.Rand, n int) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{
			Key:   string(rune('a' + rng.Intn(8))),
			Value: string(rune('0' + rng.Intn(10))),
		}
	}
	return ps
}

func TestGroupStream(t *testing.T) {
	ps := []Pair{{"a", "1"}, {"a", "2"}, {"b", "3"}}
	var got []Group
	err := GroupStream(NewSliceSource(ps), func(g Group) error {
		cp := Group{Key: g.Key, Values: append([]string(nil), g.Values...)}
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Group{{"a", []string{"1", "2"}}, {"b", []string{"3"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupStream = %v, want %v", got, want)
	}
}

func TestGroupStreamEmpty(t *testing.T) {
	called := false
	err := GroupStream(NewSliceSource(nil), func(Group) error { called = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("GroupStream on empty source invoked yield")
	}
}

func TestGroupStreamPropagatesYieldError(t *testing.T) {
	ps := []Pair{{"a", "1"}, {"b", "2"}}
	sentinel := io.ErrUnexpectedEOF
	err := GroupStream(NewSliceSource(ps), func(g Group) error { return sentinel })
	if err != sentinel {
		t.Fatalf("GroupStream error = %v, want sentinel", err)
	}
}

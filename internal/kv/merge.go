package kv

import (
	"container/heap"
	"io"
)

// PairSource yields key-sorted pairs one at a time. io.EOF signals a
// clean end of the stream. Shuffle spill readers and in-memory runs both
// implement it, so the reduce-side merge is agnostic to where runs live.
type PairSource interface {
	Next() (Pair, error)
}

// SliceSource adapts an already-sorted []Pair to PairSource.
type SliceSource struct {
	ps []Pair
	i  int
}

// NewSliceSource returns a PairSource over ps, which must be key-sorted.
func NewSliceSource(ps []Pair) *SliceSource { return &SliceSource{ps: ps} }

// Next implements PairSource.
func (s *SliceSource) Next() (Pair, error) {
	if s.i >= len(s.ps) {
		return Pair{}, io.EOF
	}
	p := s.ps[s.i]
	s.i++
	return p, nil
}

// ReaderSource adapts a binary-codec Reader to PairSource.
type ReaderSource struct{ R *Reader }

// Next implements PairSource.
func (s ReaderSource) Next() (Pair, error) { return s.R.ReadPair() }

// mergeItem is one heap entry: the head pair of run idx.
type mergeItem struct {
	p   Pair
	idx int
}

// mergeHeap orders heads by (key, value, run index), reproducing
// SortPairs' total order across runs: a reduce group's value order then
// does not depend on where run boundaries fell — i.e. on the memory
// budget, the spill count, or how many map tasks produced the runs.
type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.p.Key != b.p.Key {
		return a.p.Key < b.p.Key
	}
	if a.p.Value != b.p.Value {
		return a.p.Value < b.p.Value
	}
	return a.idx < b.idx
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Merger performs a k-way merge of sorted runs, yielding a single sorted
// stream: the reduce-side merge of the shuffle (Hadoop's merge phase).
type Merger struct {
	sources []PairSource
	h       mergeHeap
}

// NewMergerByKeyValue primes a Merger with the head element of every
// source; sources that are empty from the start are dropped. Its output
// reproduces SortPairs' (key, value) total order regardless of how pairs
// were split across the sources, each of which must be sorted with
// SortPairs (key then value).
func NewMergerByKeyValue(sources ...PairSource) (*Merger, error) {
	m := &Merger{sources: sources}
	for i, src := range sources {
		p, err := src.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.h = append(m.h, mergeItem{p: p, idx: i})
	}
	heap.Init(&m.h)
	return m, nil
}

// Next implements PairSource: it returns the globally next pair in
// (key, value) order, refilling from the source it came from.
func (m *Merger) Next() (Pair, error) {
	if len(m.h) == 0 {
		return Pair{}, io.EOF
	}
	it := m.h[0]
	p, err := m.sources[it.idx].Next()
	switch err {
	case nil:
		m.h[0] = mergeItem{p: p, idx: it.idx}
		heap.Fix(&m.h, 0)
	case io.EOF:
		heap.Pop(&m.h)
	default:
		return Pair{}, err
	}
	return it.p, nil
}

// GroupStream consumes a key-sorted PairSource and yields one Group per
// distinct key. The values slice passed to yield is reused only after
// yield returns, so callers may retain it by copying.
func GroupStream(src PairSource, yield func(g Group) error) error {
	cur := Group{}
	started := false
	flush := func() error {
		if !started {
			return nil
		}
		return yield(cur)
	}
	for {
		p, err := src.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		if !started {
			cur = Group{Key: p.Key, Values: []string{p.Value}}
			started = true
			continue
		}
		if p.Key == cur.Key {
			cur.Values = append(cur.Values, p.Value)
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		cur = Group{Key: p.Key, Values: []string{p.Value}}
	}
}

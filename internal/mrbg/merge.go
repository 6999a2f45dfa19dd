package mrbg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// MergeResult is one affected key after a merge: its up-to-date chunk
// (the new Reduce input), or Removed=true when every edge of a
// previously live chunk was deleted, meaning the Reduce instance — and
// its final output — no longer exists.
//
// Aliasing: a result streamed by a single-shard store is valid only
// until emit returns — Chunk.Edges and Values are scratch the merge
// reuses for the next key. A callback that keeps either must copy the
// slice (the strings in it are immutable and may be kept). Results a
// multi-shard store emits were buffered to restore global key order,
// so they own their slices.
type MergeResult struct {
	Key   string
	Chunk Chunk
	// Values is Chunk.Values(), built by the merge itself: the {V2} list
	// for Reduce, in ascending MK order.
	Values  []string
	Removed bool
}

// owned returns r with slices of its own, for a caller that keeps a
// streamed result past emit.
func (r MergeResult) owned() MergeResult {
	r.Chunk.Edges = slices.Clone(r.Chunk.Edges)
	r.Values = slices.Clone(r.Values)
	return r
}

// Merge joins a delta MRBGraph into the store (paper Sec. 3.3-3.4):
// for each affected K2 it retrieves the preserved chunk (index
// nested-loop join, window-read according to the strategy), applies
// deletions and insertions/updates by (K2, MK), emits the merged chunk
// so the caller can re-run Reduce, and appends the new chunk version
// through the append buffer as the next sorted batch.
//
// delta does not need to be sorted; Merge sorts a copy unless it
// already is. Records with the same (key, MK) apply in slice order, so
// a deletion followed by an insertion (the paper's representation of an
// update) nets to the insertion.
//
// The emit callback runs before the new batch commits; if it returns an
// error the merge aborts with the index unchanged. Results stream one
// key at a time — only the chunk being merged is in memory — and each
// is valid only until emit returns (see MergeResult).
func (s *Store) Merge(delta []DeltaEdge, emit func(r MergeResult) error) error {
	var removed []string
	err := s.mergeDeltas(delta, func(r MergeResult) error {
		if r.Removed {
			removed = append(removed, r.Key)
		}
		return emit(r)
	})
	if err != nil {
		s.abortMerge()
		return err
	}
	if err := s.commitPending(); err != nil {
		s.abortMerge()
		return err
	}
	for _, k := range removed {
		s.dropLoc(k)
	}
	return nil
}

// stageMerge performs the join of a delta MRBGraph against this shard:
// merged chunks are staged in the append buffer / pending index and the
// per-key results are returned in sorted key order, but nothing is
// committed. The caller must follow with commitMerge or abortMerge.
// Used by the multi-shard merge, which must buffer results to re-merge
// them into global key order before emitting — so each result owns its
// slices.
func (s *Store) stageMerge(delta []DeltaEdge) ([]MergeResult, error) {
	results := make([]MergeResult, 0, len(delta))
	err := s.mergeDeltas(delta, func(r MergeResult) error {
		results = append(results, r.owned())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// compareDelta orders delta records by (key, MK): the order the merge
// walks them in.
func compareDelta(a, b DeltaEdge) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.MK, b.MK)
}

// mergeDeltas is the join loop shared by Merge (streaming) and
// stageMerge (buffered): it invokes onResult per affected key in sorted
// order while staging new chunk versions, committing nothing.
//
// The join is a sorted merge, linear in the chunk plus its delta: a
// chunk's edges are stored in ascending MK order and the key's delta
// records are sorted the same way, so two cursors produce the merged
// edges already in order. Every result is built in the store's scratch
// slices, which all keys, of this merge and the next, share: it is
// valid only until onResult returns.
func (s *Store) mergeDeltas(delta []DeltaEdge, onResult func(r MergeResult) error) error {
	if len(s.pending) != 0 {
		return errors.New("mrbg: Merge re-entered before commit")
	}
	// A stable sort keeps records of one (key, MK) in slice order, which
	// is the order they apply in.
	ds := delta
	if !slices.IsSortedFunc(ds, compareDelta) {
		ds = slices.Clone(delta)
		slices.SortStableFunc(ds, compareDelta)
	}

	// Distinct affected keys, already sorted: Algorithm 1's list L.
	keys := make([]string, 0, len(ds))
	for i, d := range ds {
		if i == 0 || d.Key != ds[i-1].Key {
			keys = append(keys, d.Key)
		}
	}
	plan := &queryPlan{keys: keys}

	// The scratch outlives the call: a partition's refresh is often many
	// small merges, and regrowing to the largest chunk in each would cost
	// more than the chunks themselves.
	sc := &s.scratch
	di := 0
	for ki, key := range keys {
		plan.pos = ki
		old, ok, err := s.fetch(key, plan, sc.old)
		if err != nil {
			return err
		}
		if ok {
			sc.old = old.Edges // possibly regrown
		}
		lo := di
		for di < len(ds) && ds[di].Key == key {
			di++
		}
		run := ds[lo:di]

		merged := slices.Grow(sc.merged[:0], len(old.Edges)+len(run))
		merged = mergeEdges(merged, normalizeEdges(old.Edges), run)
		values := slices.Grow(sc.values[:0], len(merged))
		for _, e := range merged {
			values = append(values, e.V2)
		}
		sc.merged, sc.values = merged, values

		if len(merged) == 0 {
			if ok {
				if err := onResult(MergeResult{Key: key, Removed: true}); err != nil {
					return err
				}
			} else {
				// Deletions for a key that was never live: dropped, but
				// counted so tests can detect mismatched deltas.
				s.stats.DanglingDeletes++
			}
			continue
		}
		c := Chunk{Key: key, Edges: merged}
		if err := onResult(MergeResult{Key: key, Chunk: c, Values: values}); err != nil {
			return err
		}
		if err := s.appendChunk(c); err != nil {
			return err
		}
	}
	return nil
}

// mergeEdges appends to dst the edges of old with run applied, where
// old is in strictly ascending MK order and run is one key's delta
// records in ascending MK order. Records of one MK collapse to the last
// of them: a deletion drops the edge, an insertion sets its value.
func mergeEdges(dst, old []Edge, run []DeltaEdge) []Edge {
	i := 0
	for j := 0; j < len(run); j++ {
		if j+1 < len(run) && run[j+1].MK == run[j].MK {
			continue // a later record of the same MK supersedes this one
		}
		d := run[j]
		for i < len(old) && old[i].MK < d.MK {
			dst = append(dst, old[i])
			i++
		}
		if i < len(old) && old[i].MK == d.MK {
			i++
		}
		if !d.Delete {
			dst = append(dst, Edge{MK: d.MK, V2: d.V2})
		}
	}
	return append(dst, old[i:]...)
}

// normalizeEdges returns edges in strictly ascending MK order. Chunks a
// merge wrote already are, and come back untouched; a chunk staged with
// Put is whatever the caller passed, so out-of-order edges are sorted
// (stably) and, of several edges with one MK, the last one wins — in
// place, as the slice is the merge's scratch.
func normalizeEdges(edges []Edge) []Edge {
	ascending := true
	for i := 1; i < len(edges) && ascending; i++ {
		ascending = edges[i-1].MK < edges[i].MK
	}
	if ascending {
		return edges
	}
	slices.SortStableFunc(edges, func(a, b Edge) int { return cmp.Compare(a.MK, b.MK) })
	out := edges[:0]
	for i, e := range edges {
		if i+1 < len(edges) && edges[i+1].MK == e.MK {
			continue
		}
		out = append(out, e)
	}
	return out
}

// abortMerge discards everything staged since the last commit, leaving
// the index unchanged. Bytes already flushed mid-merge remain in the
// file as unreferenced garbage (reclaimed by Compact).
func (s *Store) abortMerge() {
	s.appendBuf = s.appendBuf[:0]
	clear(s.pending)
}

// commitMerge seals a staged merge: the new batch commits and fully
// deleted keys leave the index.
func (s *Store) commitMerge(results []MergeResult) error {
	if err := s.commitPending(); err != nil {
		return err
	}
	for _, r := range results {
		if r.Removed {
			s.dropLoc(r.Key)
		}
	}
	return nil
}

// hasPending reports whether a merge or Put batch is staged but not yet
// committed.
func (s *Store) hasPending() bool {
	return len(s.pending) != 0 || len(s.appendBuf) != 0
}

// Put stores a chunk directly, bypassing the delta join — used by the
// initial (non-incremental) run to preserve the first MRBGraph, where
// every chunk is new. Chunks must arrive in sorted key order per batch;
// call CommitBatch when the batch is complete.
func (s *Store) Put(c Chunk) error {
	return s.appendChunk(c)
}

// CommitBatch seals chunks staged with Put into one sorted batch.
func (s *Store) CommitBatch() error {
	return s.commitPending()
}

// AllChunks retrieves every live chunk in sorted key order.
func (s *Store) AllChunks(fn func(c Chunk) error) error {
	return s.GetMany(s.Keys(), func(_ string, c Chunk, ok bool) error {
		if !ok {
			return errors.New("mrbg: indexed key has no chunk")
		}
		return fn(c)
	})
}

// VerifyInvariants walks the index and checks every entry decodes to a
// chunk with the matching key, edges in ascending MK order, and bounds
// inside the file. Tests and the failure-injection harness call it
// after recovery; it is not on any hot path.
func (s *Store) VerifyInvariants() error {
	for k, l := range s.index {
		if l.off < 0 || l.len <= 0 || l.off+l.len > s.size {
			return fmt.Errorf("mrbg: index entry %q out of bounds: %+v size=%d", k, l, s.size)
		}
		buf, err := s.readFrame(nil, l)
		if err != nil {
			return fmt.Errorf("mrbg: chunk %q: %w", k, err)
		}
		c, n, err := decodeChunk(buf)
		if err != nil {
			return fmt.Errorf("mrbg: chunk %q: %w", k, err)
		}
		if int64(n) != l.len {
			return fmt.Errorf("mrbg: chunk %q decoded %d bytes, index says %d", k, n, l.len)
		}
		if c.Key != k {
			return fmt.Errorf("mrbg: chunk at %d holds %q, index says %q", l.off, c.Key, k)
		}
		for i := 1; i < len(c.Edges); i++ {
			if c.Edges[i].MK <= c.Edges[i-1].MK {
				return fmt.Errorf("mrbg: chunk %q edges out of MK order", k)
			}
		}
	}
	return nil
}

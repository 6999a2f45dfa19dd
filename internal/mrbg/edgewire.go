package mrbg

import (
	"fmt"
	"strconv"
	"strings"

	"i2mapreduce/internal/kv"
)

// The MRBGraph-edge wire format: how an edge travels from a Map instance
// through the shuffle to the reduce task that owns its K2's chunk (paper
// Sec. 3.3: "the engine transfers the globally unique MK along with
// <K2,V2> during the shuffle phase"). Every pass that preserves or
// refreshes an MRBGraph (internal/incr, internal/core) emits through
// EdgeEmit and consumes through MergeGroups or GroupChunk, so the MK
// derivation and the value encoding exist once.

// EdgeEmit wraps a shuffle emit for one Map instance over the input
// record (k1, v1): each (K2, V2) the Map emits is forwarded as an
// encoded edge under K2. seq is the record's position in the delta
// input (0 when there is no delta order to preserve) and del marks the
// edges of a deleted record.
//
// The MK is a fingerprint of (k1, v1) with the occurrence index of the
// emission to that K2 folded in: the paper treats (K2, MK) as a unique
// edge id, and a Map call that emits several values to the same K2
// (WordCount emitting one word twice from one line) would collide
// without it. The derivation depends only on the input record and the
// Map function's deterministic emission order, so re-mapping a record
// replaces exactly its previous edges and a deletion regenerates
// exactly the MKs of the original run.
func EdgeEmit(k1, v1 string, seq uint64, del bool, emit func(k2, v2 string)) func(k2, v2 string) {
	base := kv.Fingerprint(k1, v1)
	var occ map[string]uint32
	return func(k2, v2 string) {
		o := occ[k2]
		if occ == nil {
			occ = make(map[string]uint32, 4)
		}
		occ[k2] = o + 1
		emit(k2, encodeDeltaEdge(kv.Mix64(base+uint64(o)*0x9e3779b97f4a7c15), seq, del, v2))
	}
}

// encodeDeltaEdge packs an edge into a shuffle value: fixed-width hex
// MK, fixed-width hex seq, one op byte, and (for insertions) V2. The
// encoding is chosen so the shuffle's (key, value) total order yields
// exactly the apply order Merge needs: edges of one K2 sort by MK, and
// records touching the same (K2, MK) sort by their position in the
// delta input — so a delete followed by a reinsert nets to the
// insertion and an insert followed by a delete nets to the deletion,
// exactly as the delta file says, at any memory budget and any spill
// interleaving.
func encodeDeltaEdge(mk, seq uint64, del bool, v2 string) string {
	head := [33]byte{32: '1'}
	if del {
		head[32], v2 = '0', ""
	}
	putHex16(head[:16], mk)
	putHex16(head[16:32], seq)
	// A Builder hands its buffer over as the string: one allocation per
	// edge, on the per-emission hot path of every edge-producing map.
	var b strings.Builder
	b.Grow(len(head) + len(v2))
	b.Write(head[:])
	b.WriteString(v2)
	return b.String()
}

// putHex16 fills dst with v as exactly 16 lower-case hex digits
// (fmt.Sprintf's format parsing and boxing would dominate the encode).
func putHex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// decodeDeltaEdge unpacks a shuffle value produced by encodeDeltaEdge.
// The sequence number has done its work in the sort order and is
// dropped; Merge applies same-(key, MK) records in slice order.
func decodeDeltaEdge(key, s string) (DeltaEdge, error) {
	if len(s) < 33 || (s[32] != '0' && s[32] != '1') {
		return DeltaEdge{}, fmt.Errorf("mrbg: malformed edge value %q", s)
	}
	mk, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return DeltaEdge{}, fmt.Errorf("mrbg: malformed MK in %q: %v", s, err)
	}
	de := DeltaEdge{Key: key, MK: mk}
	if s[32] == '0' {
		de.Delete = true
	} else {
		de.V2 = s[33:]
	}
	return de, nil
}

// GroupChunk rebuilds K2's chunk from a reduce group of encoded
// insertions — the first MRBGraph of an initial job or a preserve pass,
// where every chunk is new and goes to Put. The shuffle delivers the
// group in (MK, seq) order, which is the store's edge order.
func GroupChunk(g kv.Group) (Chunk, error) {
	c := Chunk{Key: g.Key, Edges: make([]Edge, 0, len(g.Values))}
	for _, v := range g.Values {
		de, err := decodeDeltaEdge(g.Key, v)
		if err != nil {
			return Chunk{}, err
		}
		c.Edges = append(c.Edges, Edge{MK: de.MK, V2: de.V2})
	}
	return c, nil
}

// MergeGroups drains one partition's grouped stream of encoded delta
// edges (a shuffle.GroupSource) into Merge calls, in batches of about
// batchBytes — the partition's share of the shuffle memory budget, so
// the reduce side never buffers more of the delta MRBGraph than the map
// side was allowed to; <= 0 merges the whole stream in one batch.
// Groups never split across batches (the stream yields whole keys), so
// each affected K2 merges and emits exactly once, and later batches see
// earlier batches' committed chunks: the split is invisible.
//
// A batch commits before the next one starts. When a later batch fails
// and a retried task attempt drains the stream again, re-merging a
// committed batch is idempotent per (K2, MK) and emits the same chunks —
// except that a K2 the first attempt removed is gone and emits nothing,
// so a caller that acts on Removed must keep that effect across attempts.
func (ss *ShardedStore) MergeGroups(groups func(yield func(g kv.Group) error) error, batchBytes int64, emit func(r MergeResult) error) error {
	var delta []DeltaEdge
	var size int64
	flush := func() error {
		if len(delta) == 0 {
			return nil
		}
		err := ss.Merge(delta, emit)
		delta, size = delta[:0], 0
		return err
	}
	err := groups(func(g kv.Group) error {
		for _, v := range g.Values {
			de, err := decodeDeltaEdge(g.Key, v)
			if err != nil {
				return err
			}
			delta = append(delta, de)
			size += int64(len(de.Key) + len(de.V2) + 16)
		}
		if batchBytes > 0 && size >= batchBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

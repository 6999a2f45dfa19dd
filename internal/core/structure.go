package core

import (
	"fmt"
	"os"
	"slices"
	"sort"

	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
)

// span is the contiguous byte range of one state key's structure
// records inside a partition file. Because the file is sorted by
// project(SK), all records projecting to the same DK are adjacent, so
// one span per DK suffices and a selective read is a single ReadAt.
type span struct {
	off, len int64
}

// structPart is one partition's cached structure data: a node-local
// sorted file plus the DK -> span index that the incremental engine
// uses to re-map only affected structure records (the reason the
// paper's Fig. 9 map stage shrinks by 98%).
type structPart struct {
	path  string
	spans map[string]span
	recs  int64
	bytes int64
}

// buildStructPart sorts ps by (project(SK), SK), writes the partition
// file, and builds the span index. project may be nil (ReplicateState
// specs), in which case records sort by SK and no index is built.
func buildStructPart(path string, ps []kv.Pair, project func(string) string) (*structPart, error) {
	if project == nil {
		kv.SortPairs(ps)
	} else {
		sort.SliceStable(ps, func(i, j int) bool {
			di, dj := project(ps[i].Key), project(ps[j].Key)
			if di != dj {
				return di < dj
			}
			return ps[i].Key < ps[j].Key
		})
	}
	if err := iter.WriteStructFile(path, ps); err != nil {
		return nil, err
	}
	return indexStructPart(path, ps, project)
}

// openStructPart reattaches to the node-local partition file a previous
// process wrote (and which survives it under the cluster scratch root):
// the records are streamed back in file order — already sorted — and
// the span index is rebuilt from the deterministic encoding. core.Open
// uses it to resume a computation without re-partitioning the input.
func openStructPart(path string, project func(string) string) (*structPart, error) {
	var ps []kv.Pair
	if err := iter.ReadStructFile(path, func(p kv.Pair) error {
		ps = append(ps, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return indexStructPart(path, ps, project)
}

// indexStructPart builds the structPart metadata for records already in
// file order at path.
func indexStructPart(path string, ps []kv.Pair, project func(string) string) (*structPart, error) {
	sp := &structPart{path: path, recs: int64(len(ps))}
	if project == nil {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		sp.bytes = fi.Size()
		return sp, nil
	}

	// Re-encode record by record to learn exact offsets. Encoding is
	// deterministic, so these offsets match the file contents.
	sp.spans = make(map[string]span)
	var off int64
	var buf []byte
	for _, p := range ps {
		buf = appendPairFrame(buf[:0], p)
		l := int64(len(buf))
		dk := project(p.Key)
		if s, ok := sp.spans[dk]; ok {
			sp.spans[dk] = span{off: s.off, len: s.len + l}
		} else {
			sp.spans[dk] = span{off: off, len: l}
		}
		off += l
	}
	sp.bytes = off
	return sp, nil
}

// appendPairFrame mirrors kv.Writer's on-disk framing for one pair.
func appendPairFrame(buf []byte, p kv.Pair) []byte {
	buf = appendUvarint(buf, uint64(len(p.Key)))
	buf = append(buf, p.Key...)
	buf = appendUvarint(buf, uint64(len(p.Value)))
	buf = append(buf, p.Value...)
	return buf
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// readAll streams every record of the partition.
func (sp *structPart) readAll(fn func(p kv.Pair) error) error {
	return iter.ReadStructFile(sp.path, fn)
}

// readDK reads only the records projecting to dk, using the span index
// (one positioned read instead of a full scan). Missing dk is a no-op.
// It returns the number of bytes read.
func (sp *structPart) readDK(dk string, fn func(p kv.Pair) error) (int64, error) {
	return sp.readDKsSorted([]string{dk}, func(_ string, p kv.Pair) error { return fn(p) })
}

// readDKsSorted reads the records of several state keys with one file
// handle, in sorted key order (sequential-ish access, since spans of
// sorted DKs are laid out in file order). It returns total bytes read.
func (sp *structPart) readDKsSorted(dks []string, fn func(dk string, p kv.Pair) error) (int64, error) {
	f, err := os.Open(sp.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var total int64
	// One span buffer serves every DK, and each span (typically a
	// hundred bytes) is decoded where it lies: a kv.Reader would buy a
	// 64 KiB bufio.Reader per span.
	var buf []byte
	for _, dk := range dks {
		s, ok := sp.spans[dk]
		if !ok {
			continue
		}
		buf = slices.Grow(buf[:0], int(s.len))[:s.len]
		if _, err := f.ReadAt(buf, s.off); err != nil {
			return total, fmt.Errorf("core: structure span read %q: %w", dk, err)
		}
		total += s.len
		for rest := buf; len(rest) > 0; {
			k, v, n, err := kv.DecodePairInPlace(rest)
			if err != nil {
				return total, fmt.Errorf("core: structure span decode %q: %w", dk, err)
			}
			if err := fn(dk, kv.Pair{Key: string(k), Value: string(v)}); err != nil {
				return total, err
			}
			rest = rest[n:]
		}
	}
	return total, nil
}

// applyDelta merges structure deltas into the partition, applying the
// records *in order*: a deletion must match a record present at that
// point (from the file or inserted earlier in the same delta), so
// chained updates within one batch work. The partition file and span
// index are rebuilt. A deletion that matches nothing is an error,
// since it means the delta does not correspond to the structure
// version the engine holds.
func (sp *structPart) applyDelta(ds []kv.Delta, project func(string) string) (*structPart, error) {
	type rec struct {
		sk, sv string
	}
	multiset := make(map[rec]int)
	var total int
	err := sp.readAll(func(p kv.Pair) error {
		multiset[rec{p.Key, p.Value}]++
		total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		r := rec{d.Key, d.Value}
		if d.Op == kv.OpDelete {
			if multiset[r] == 0 {
				return nil, fmt.Errorf("core: structure delta deletes %q/%q which is not present", d.Key, d.Value)
			}
			multiset[r]--
			total--
		} else {
			multiset[r]++
			total++
		}
	}
	kept := make([]kv.Pair, 0, total)
	for r, n := range multiset {
		for i := 0; i < n; i++ {
			kept = append(kept, kv.Pair{Key: r.sk, Value: r.sv})
		}
	}
	return buildStructPart(sp.path, kept, project)
}

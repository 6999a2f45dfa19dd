package mrbg

import (
	"fmt"
	"hash/crc32"
	"slices"

	"i2mapreduce/internal/blockio"
)

// window is one read cache region: bytes [start,end) of the MRBGraph
// file, fetched by a single I/O. The multi-window strategies keep one
// window per batch; SingleFixedWindow keeps one for the whole file.
type window struct {
	start, end int64
	data       []byte
}

func (w *window) contains(l loc) bool {
	return w != nil && l.off >= w.start && l.off+l.len <= w.end
}

// queryPlan is the sorted list of keys a merge (or GetMany) will
// retrieve, with a cursor at the key currently being fetched —
// Algorithm 1's L and index i. The paper gets this ordering for free
// from the shuffle's sort; callers here must pass sorted keys.
type queryPlan struct {
	keys []string
	pos  int
}

// singleWindowKey is the synthetic batch id under which the
// SingleFixedWindow strategy caches its one window.
const singleWindowKey = -1

// readAt issues one I/O of n bytes at off, truncated at the logical end
// of the file, updating the read statistics. The bytes land in buf's
// backing array when it is large enough (buf may be nil).
func (s *Store) readAt(buf []byte, off, n int64) ([]byte, error) {
	if off >= s.size {
		return nil, fmt.Errorf("mrbg: read at %d beyond file end %d", off, s.size)
	}
	if off+n > s.size {
		n = s.size - off
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("mrbg: read: %w", err)
	}
	s.stats.Reads++
	s.stats.BytesRead += n
	return buf, nil
}

// dynamicWindowSize implements Algorithm 1's loop (lines 4-8), extended
// with the multi-batch skip of Sec. 5.2: starting from the queried
// chunk, extend the window across each following queried chunk *in the
// same batch* while the gap to it is below GapThreshold and the window
// still fits the read cache.
func (s *Store) dynamicWindowSize(l loc, plan *queryPlan) int64 {
	w := int64(0)
	gap := int64(0)
	cur := l
	i := plan.pos
	for gap < s.opts.GapThreshold && w+gap+cur.len < s.opts.ReadCacheSize {
		w += gap + cur.len
		// Find the next queried chunk that lives in the same batch,
		// skipping chunks whose latest version is elsewhere.
		found := false
		var next loc
		for j := i + 1; j < len(plan.keys); j++ {
			nl, ok := s.index[plan.keys[j]]
			if !ok || nl.batch != l.batch {
				continue
			}
			next, found, i = nl, true, j
			break
		}
		if !found {
			break
		}
		gap = next.off - (cur.off + cur.len)
		if gap < 0 {
			// Chunks within one batch are laid out in key order, so a
			// backward jump means the next key was rewritten later in
			// a different region; stop extending.
			break
		}
		cur = next
	}
	if w < l.len {
		w = l.len
	}
	return w
}

// fetch retrieves the live chunk for key, using the configured read
// strategy and the query plan for window sizing. The second result is
// false if key has no live chunk. The chunk's edges are appended to
// edges[:0] (nil allocates); its strings never alias a read buffer.
func (s *Store) fetch(key string, plan *queryPlan, edges []Edge) (Chunk, bool, error) {
	l, ok := s.index[key]
	if !ok {
		return Chunk{}, false, nil
	}

	var winKey int
	var size int64
	switch s.opts.Strategy {
	case IndexOnly:
		// Exact read, no caching: the frame passes through a pooled
		// buffer, which decoding copies out of.
		pooled := blockio.GetBuf()
		defer blockio.PutBuf(pooled)
		buf, err := s.readAt(*pooled, l.off, l.len)
		if err != nil {
			return Chunk{}, false, err
		}
		*pooled = buf
		return decodeAt(buf, l.crc, key, edges)
	case SingleFixedWindow:
		winKey, size = singleWindowKey, s.opts.FixedWindowSize
	case MultiFixedWindow:
		winKey, size = l.batch, s.opts.FixedWindowSize
	case MultiDynamicWindow:
		winKey, size = l.batch, s.dynamicWindowSize(l, plan)
	default:
		return Chunk{}, false, fmt.Errorf("mrbg: unknown read strategy %d", s.opts.Strategy)
	}
	if size < l.len {
		size = l.len
	}

	if w := s.windows[winKey]; w.contains(l) {
		s.stats.CacheHits++
		return decodeAt(w.data[l.off-w.start:][:l.len], l.crc, key, edges)
	}
	buf, err := s.readAt(nil, l.off, size)
	if err != nil {
		return Chunk{}, false, err
	}
	s.windows[winKey] = &window{start: l.off, end: l.off + int64(len(buf)), data: buf}
	return decodeAt(buf[:l.len], l.crc, key, edges)
}

// decodeAt decodes one chunk frame after checking it against its index
// entry's checksum and, decoded, against the requested key: damage to
// either file is a hard error, never another chunk's edges.
func decodeAt(frame []byte, crc uint32, key string, edges []Edge) (Chunk, bool, error) {
	if crc32.Checksum(frame, castagnoli) != crc {
		return Chunk{}, false, fmt.Errorf("mrbg: chunk for %q: %w", key, errBadFrame)
	}
	c, _, err := decodeChunkInto(edges, frame)
	if err != nil {
		return Chunk{}, false, fmt.Errorf("mrbg: chunk for %q: %w", key, err)
	}
	if c.Key != key {
		return Chunk{}, false, fmt.Errorf("mrbg: index points %q at chunk %q", key, c.Key)
	}
	return c, true, nil
}

// Get retrieves one chunk outside any batch plan.
func (s *Store) Get(key string) (Chunk, bool, error) {
	plan := &queryPlan{keys: []string{key}}
	return s.fetch(key, plan, nil)
}

// GetMany retrieves the chunks of keys (which must be sorted ascending,
// as the shuffle guarantees for merge queries), invoking fn for each in
// order. ok is false for keys with no live chunk.
func (s *Store) GetMany(keys []string, fn func(key string, c Chunk, ok bool) error) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return fmt.Errorf("mrbg: GetMany keys not sorted (%q after %q)", keys[i], keys[i-1])
		}
	}
	plan := &queryPlan{keys: keys}
	for i, k := range keys {
		plan.pos = i
		c, ok, err := s.fetch(k, plan, nil)
		if err != nil {
			return err
		}
		if err := fn(k, c, ok); err != nil {
			return err
		}
	}
	return nil
}

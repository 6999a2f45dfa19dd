package mrbg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"slices"

	"i2mapreduce/internal/fsutil"
)

// The index log (mrbg-<i>.idx): record format, fold rule and recovery
// are specified in the package comment's on-disk layout section.

// recordHeader is the frame in front of every record: payload length
// and payload CRC32C, four little-endian bytes each.
const recordHeader = 8

func uvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// entrySize is the encoded length of key's index entry.
func entrySize(key string, l loc) int64 {
	return uvarintLen(uint64(len(key))) + int64(len(key)) + uvarintLen(uint64(l.len)) +
		uvarintLen(uint64(l.off)) + uvarintLen(uint64(l.batch)) + 4
}

// appendRecord appends one framed record to buf: the header fields and
// an entry per key, in the order given — a location from index, or a
// removal for a key index does not hold.
func appendRecord(buf []byte, gen, size int64, batch int, keys []string, index map[string]loc) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recordHeader)...)
	buf = binary.AppendUvarint(buf, uint64(gen))
	buf = binary.AppendUvarint(buf, uint64(size))
	buf = binary.AppendUvarint(buf, uint64(batch))
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		l := index[k] // the zero loc, length 0, marks a removal
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(l.len))
		if l.len == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(l.off))
		buf = binary.AppendUvarint(buf, uint64(l.batch))
		buf = binary.LittleEndian.AppendUint32(buf, l.crc)
	}
	payload := buf[start+recordHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// imageBytes is the length of the record a fold would write now.
func (s *Store) imageBytes() int64 {
	return recordHeader + uvarintLen(uint64(s.gen)) + uvarintLen(uint64(s.size)) +
		uvarintLen(uint64(s.batch)) + uvarintLen(uint64(len(s.index))) + s.image
}

// Checkpoint makes the store's current contents the ones Open recovers
// (paper Sec. 6.1: the MRBGraph file is checkpointed every iteration):
// it fsyncs the data file and commits the entries changed since the
// last checkpoint to the index log — appended as one record, or folded
// with the rest of the index into a fresh log when the append would
// take the log past twice the folded size. Nothing changed means
// nothing written and nothing fsynced.
func (s *Store) Checkpoint() error {
	if err := s.flushAppendBuf(); err != nil {
		return err
	}
	if len(s.pending) != 0 {
		return errors.New("mrbg: Checkpoint during an uncommitted merge")
	}
	if len(s.dirty) == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if s.idxSize != 0 {
		// Sorted keys make the record's bytes deterministic; map iteration
		// order would shuffle them on every run (byte-identity invariant).
		keys := make([]string, 0, len(s.dirty))
		for k := range s.dirty {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		rec := appendRecord(s.scratch.idx[:0], s.gen, s.size, s.batch, keys, s.index)
		s.scratch.idx = rec
		if s.idxSize+int64(len(rec)) <= 2*s.imageBytes() {
			if err := fsutil.AppendSync(s.idxPath(), s.idxSize, rec); err != nil {
				return fmt.Errorf("mrbg: appending to index log: %w", err)
			}
			s.idxSize += int64(len(rec))
			s.stats.IndexBytesWritten += int64(len(rec))
			clear(s.dirty)
			return nil
		}
	}
	return s.commitImage(s.gen, s.size, s.batch, s.index)
}

// commitImage replaces the index log with one record holding index in
// full — a fold, and a compaction's commit point. On failure the log on
// disk is the old one or the new one (a rename whose directory fsync
// failed cannot be told apart), so the next checkpoint must fold again
// rather than append at an offset that may no longer exist.
func (s *Store) commitImage(gen, size int64, batch int, index map[string]loc) error {
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rec := appendRecord(nil, gen, size, batch, keys, index)
	s.idxSize = 0
	if err := fsutil.WriteFileAtomic(s.idxPath(), rec); err != nil {
		return fmt.Errorf("mrbg: committing index: %w", err)
	}
	s.idxSize = int64(len(rec))
	s.stats.IndexBytesWritten += int64(len(rec))
	clear(s.dirty)
	return nil
}

// loadIndex replays the index log into the store, reporting false when
// there is none (a store never checkpointed), and cuts a torn last
// record off the file.
func (s *Store) loadIndex() (bool, error) {
	data, err := os.ReadFile(s.idxPath())
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	valid, err := s.replay(data)
	if err != nil {
		return false, fmt.Errorf("mrbg: index log %s: %w", s.idxPath(), err)
	}
	if valid < len(data) {
		if err := os.Truncate(s.idxPath(), int64(valid)); err != nil {
			return false, err
		}
	}
	s.idxSize = int64(valid)
	s.retotal()
	return true, nil
}

// replay applies the log's records to the index in order and returns
// the length of the prefix they fill. A last record that is cut short
// or fails its checksum is a torn append and ends the prefix before it.
// The first record is committed by rename and cannot be torn, and
// damage followed by further bytes is not a tail, so both are errors —
// as is anything a record with a good checksum fails to parse.
func (s *Store) replay(data []byte) (int, error) {
	pos := 0
	for len(data)-pos >= recordHeader {
		rest := data[pos+recordHeader:]
		n := int64(binary.LittleEndian.Uint32(data[pos:]))
		if n > int64(len(rest)) {
			break // cut short
		}
		payload := rest[:n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[pos+4:]) {
			if len(payload) < len(rest) {
				return 0, fmt.Errorf("record at %d fails its checksum", pos)
			}
			break // torn in place
		}
		if err := s.applyRecord(payload, pos == 0); err != nil {
			return 0, fmt.Errorf("record at %d: %w", pos, err)
		}
		pos += recordHeader + len(payload)
	}
	if pos == 0 {
		return 0, errors.New("first record is damaged or missing")
	}
	return pos, nil
}

// retotal recomputes the totals setLoc and dropLoc maintain, after the
// index was replaced wholesale.
func (s *Store) retotal() {
	s.live, s.image = 0, 0
	for k, l := range s.index {
		s.live += l.len
		s.image += entrySize(k, l)
	}
}

// applyRecord replays one record's payload onto the index. Within one
// log the generation is fixed (a compaction starts a new log) and the
// data file and its batch counter only grow, so entries an earlier
// record placed stay inside the file a later one describes.
func (s *Store) applyRecord(p []byte, first bool) error {
	var bad bool
	next := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			bad = true
			return 0
		}
		p = p[n:]
		return v
	}
	gen, size, batch, n := next(), next(), next(), next()
	if size > math.MaxInt64 || gen > math.MaxInt64 || batch > math.MaxInt32 {
		bad = true
	}
	if !first && (int64(gen) != s.gen || int64(size) < s.size || int(batch) < s.batch) {
		bad = true
	}
	for i := uint64(0); i < n && !bad; i++ {
		kLen := next()
		if bad || kLen > uint64(len(p)) {
			bad = true
			break
		}
		key := string(p[:kLen])
		p = p[kLen:]
		length := next()
		if length == 0 {
			delete(s.index, key)
			continue
		}
		off, b := next(), next()
		if bad || len(p) < 4 || off > size || length > size-off || b > batch {
			bad = true
			break
		}
		s.index[key] = loc{off: int64(off), len: int64(length), batch: int(b), crc: binary.LittleEndian.Uint32(p)}
		p = p[4:]
	}
	if bad || len(p) != 0 {
		return errors.New("malformed payload")
	}
	s.gen, s.size, s.batch = int64(gen), int64(size), int(batch)
	return nil
}

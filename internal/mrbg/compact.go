package mrbg

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"i2mapreduce/internal/blockio"
	"i2mapreduce/internal/fsutil"
)

// The compaction trigger: a shard's file is reconstructed once it is
// at least compactRatio times its live bytes, so preserved state stays
// within a constant factor of what is live however many refreshes have
// run, and a compaction's copy of L live bytes is paid for by the
// (compactRatio-1)·L bytes appended since the last one. Files below
// compactFloor are left alone: rewriting a few KiB saves nothing worth
// its fsyncs.
const (
	compactRatio = 8
	compactFloor = 64 << 10
)

// compactDue reports whether the shard has crossed the trigger.
func (s *Store) compactDue() bool {
	return s.size >= compactFloor && s.size >= compactRatio*s.live
}

// errBadFrame is a chunk frame whose bytes do not match the checksum in
// its index entry.
var errBadFrame = errors.New("frame fails its checksum")

// readFrame reads l's chunk frame into buf's backing array (buf may be
// nil) and checks it against the index entry's CRC32C. It bypasses the
// read statistics: those count the merge's and the queries' I/O.
func (s *Store) readFrame(buf []byte, l loc) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(l.len))[:l.len]
	if _, err := s.f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("mrbg: read: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) != l.crc {
		return nil, errBadFrame
	}
	return buf, nil
}

// Compact reconstructs the MRBGraph file, dropping obsolete chunk
// versions (paper: "the MRBGraph file is reconstructed off-line when
// the worker is idle"). The live frames are copied verbatim, in key
// order, into the next generation's data file — each checked against
// its CRC on the way, none decoded — and the folded index naming that
// generation is the commit: before it Open recovers the old file, after
// it the new one, and whichever file lost is unlinked. Afterwards the
// store holds exactly the live chunks in one sorted batch.
func (s *Store) Compact() error {
	if s.hasPending() {
		return errors.New("mrbg: Compact during an uncommitted merge")
	}
	// A generation number is used once per process: after a commit whose
	// outcome is unknown (see commitImage) the file it wrote may be the
	// current one on disk, and must not be truncated by a retry.
	gen := s.nextGen
	s.nextGen++
	path := s.datPath(gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.hook("created")
	index, size, err := s.copyLive(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// The new file's directory entry must be durable before an index
		// that names it can be.
		err = fsutil.SyncDir(s.opts.Dir)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.hook("copied")
	batch := min(len(index), 1)
	if err := s.commitImage(gen, size, batch, index); err != nil {
		f.Close()
		return err
	}
	s.hook("committed")
	old, oldPath := s.f, s.datPath(s.gen)
	s.f, s.gen, s.index, s.size, s.batch = f, gen, index, size, batch
	s.retotal()
	s.windows = make(map[int]*window)
	s.stats.Compactions++
	s.stats.CompactedBytes += size
	// The old generation is garbage now; if it cannot be removed here,
	// the next Open sweeps it.
	//i2vet:allow errclose the index names the new generation; nothing in the old file needs to reach the disk
	old.Close()
	os.Remove(oldPath)
	s.hook("swept")
	return nil
}

// copyLive writes every live frame to w in key order and returns the
// index of the copy and its length.
func (s *Store) copyLive(f *os.File) (map[string]loc, int64, error) {
	index := make(map[string]loc, len(s.index))
	w := bufio.NewWriterSize(f, 256<<10)
	scratch := blockio.GetBuf()
	defer blockio.PutBuf(scratch)
	var off int64
	for _, k := range s.Keys() {
		l := s.index[k]
		frame, err := s.readFrame(*scratch, l)
		if err != nil {
			return nil, 0, fmt.Errorf("mrbg: compacting chunk %q: %w", k, err)
		}
		*scratch = frame
		if _, err := w.Write(frame); err != nil {
			return nil, 0, err
		}
		index[k] = loc{off: off, len: l.len, batch: 1, crc: l.crc}
		off += l.len
	}
	return index, off, w.Flush()
}

func (s *Store) hook(name string) {
	if s.step != nil {
		s.step(name)
	}
}

package results

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"i2mapreduce/internal/blockio"
	"i2mapreduce/internal/kv"
)

// checkpointGroups writes n groups through a store in dir and returns
// the expected contents.
func checkpointGroups(t *testing.T, dir string, opts Options, n int) map[string][]kv.Pair {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]kv.Pair, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("group-%05d", i)
		ps := []kv.Pair{{Key: key, Value: strings.Repeat("v", 1+i%40)}}
		s.Set(key, ps)
		want[key] = ps
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlockBodySurfacesError flips a byte inside a block body:
// Open still succeeds (the footer is intact) but any read touching the
// block must fail the CRC check — an error, never a panic or bad data.
func TestCorruptBlockBodySurfacesError(t *testing.T) {
	for _, codec := range []string{"none", "flate"} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			checkpointGroups(t, dir, Options{Compression: codec}, 200)
			segs := segmentFiles(t, dir)
			if len(segs) != 1 {
				t.Fatalf("segments = %v", segs)
			}
			// Offset 16 is inside the first block frame (header is 5
			// bytes, then crc+lengths+codec+body).
			flipByte(t, segs[0], 16)
			s := mustOpen(t, dir, 0)
			defer s.Close()
			_, _, err := s.Get("group-00000")
			if err == nil {
				t.Fatal("Get over corrupted block succeeded")
			}
			if !errors.Is(err, blockio.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCorruptFrameCRCSurfacesError flips the stored CRC itself (the
// first 4 bytes of the first block frame).
func TestCorruptFrameCRCSurfacesError(t *testing.T) {
	dir := t.TempDir()
	checkpointGroups(t, dir, Options{}, 50)
	seg := segmentFiles(t, dir)[0]
	flipByte(t, seg, 5) // first byte after the 5-byte header = frame CRC
	s := mustOpen(t, dir, 0)
	defer s.Close()
	if _, _, err := s.Get("group-00000"); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptFooterFailsOpen flips bytes in the footer region (index +
// bloom filter) and in the fixed tail: Open must reject the segment
// with a corruption error rather than serving from a broken index.
func TestCorruptFooterFailsOpen(t *testing.T) {
	dir := t.TempDir()
	checkpointGroups(t, dir, Options{}, 500)
	seg := segmentFiles(t, dir)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		off  int64
	}{
		{"tail-crc", fi.Size() - 7},           // inside footerCRC field
		{"footer", fi.Size() - 25 - 40},       // inside footer (index/bloom)
		{"footer-offset", fi.Size() - 25 + 2}, // footerOff field in the tail
	} {
		t.Run(tc.name, func(t *testing.T) {
			flipByte(t, seg, tc.off)
			defer flipByte(t, seg, tc.off) // restore for the next case
			_, err := Open(Options{Dir: dir})
			if err == nil {
				t.Fatal("Open succeeded over corrupted footer")
			}
		})
	}
}

// TestCorruptLengthPrefixInRecord flips a record length prefix inside a
// decoded block. The frame CRC catches it first — the point is that no
// corruption anywhere in the body can panic the decoder.
func TestTruncatedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	checkpointGroups(t, dir, Options{}, 100)
	seg := segmentFiles(t, dir)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open succeeded over truncated segment")
	}
}

// TestCorruptionSweepNeverPanics flips every 97th byte of a segment in
// turn and exercises Open + a full scan each time: any outcome is
// acceptable except a panic or silently wrong data.
func TestCorruptionSweepNeverPanics(t *testing.T) {
	dir := t.TempDir()
	want := checkpointGroups(t, dir, Options{Compression: "flate"}, 300)
	seg := segmentFiles(t, dir)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < fi.Size(); off += 97 {
		flipByte(t, seg, off)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with byte %d flipped: %v", off, r)
				}
			}()
			s, err := Open(Options{Dir: dir})
			if err != nil {
				return // rejected at Open: fine
			}
			defer s.Close()
			got := make(map[string][]kv.Pair)
			err = s.AllGroups(func(key string, pairs []kv.Pair) error {
				got[key] = append([]kv.Pair(nil), pairs...)
				return nil
			})
			if err != nil {
				return // surfaced as an error: fine
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d flipped: scan returned wrong data without error", off)
			}
		}()
		flipByte(t, seg, off) // restore
	}
}

// TestFlatSegmentIsRefused lays a directory out the way the pre-block
// (v1) format did — a manifest naming a flat stream of bare record
// frames — and checks Open refuses it loudly: the error wraps
// blockio.ErrNotBlockFile and names the file, and the store is never
// opened as if it were empty.
func TestFlatSegmentIsRefused(t *testing.T) {
	dir := t.TempDir()
	flat := encodeRecord(nil, record{key: "a", pairs: []kv.Pair{{Key: "a", Value: "old"}}})
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.seg"), flat, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := "results v1\nseq=1\nlast=\nseg=seg-000001.seg\n"
	if err := os.WriteFile(filepath.Join(dir, "results.meta"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err == nil {
		s.Close()
		t.Fatal("Open read a flat v1 segment; want a refusal")
	}
	if !errors.Is(err, blockio.ErrNotBlockFile) {
		t.Errorf("refusal %q does not wrap blockio.ErrNotBlockFile", err)
	}
	if !strings.Contains(err.Error(), "seg-000001.seg") {
		t.Errorf("refusal %q does not name the file", err)
	}
}

// TestBloomSkipsAbsentKeys checks the headline perf property: almost
// every absent-key Get is answered by the bloom filter with zero block
// reads.
func TestBloomSkipsAbsentKeys(t *testing.T) {
	dir := t.TempDir()
	checkpointGroups(t, dir, Options{}, 2000)
	s := mustOpen(t, dir, 0)
	defer s.Close()
	base := s.Stats()
	const probes = 2000
	for i := 0; i < probes; i++ {
		if _, ok, err := s.Get(fmt.Sprintf("absent-%05d", i)); ok || err != nil {
			t.Fatalf("absent Get = %v %v", ok, err)
		}
	}
	st := s.Stats()
	skips := st.BloomSkips - base.BloomSkips
	reads := st.BlocksRead - base.BlocksRead
	if skips < probes*99/100 {
		t.Fatalf("bloom skipped %d/%d absent probes, want >=99%%", skips, probes)
	}
	if reads > probes/100 {
		t.Fatalf("absent probes read %d blocks, want ~0", reads)
	}
}

// TestAbsentGetAllocations pins the zero-copy miss path: a
// bloom-skipped absent-key Get performs at most the segment-pin
// allocation — no per-record or per-field garbage.
func TestAbsentGetAllocations(t *testing.T) {
	dir := t.TempDir()
	checkpointGroups(t, dir, Options{}, 1000)
	s := mustOpen(t, dir, 0)
	defer s.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := s.Get("absent-key-zz"); ok || err != nil {
			t.Fatalf("absent Get = %v %v", ok, err)
		}
	})
	// One alloc pins the segment list; anything more means the miss path
	// regressed into per-record decoding.
	if allocs > 2 {
		t.Fatalf("absent-key Get allocates %.1f objects/op, want <=2", allocs)
	}
}

// BenchmarkStoreGetHit measures the one-block point-read path.
func BenchmarkStoreGetHit(b *testing.B) {
	for _, codec := range []string{"none", "flate"} {
		b.Run(codec, func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(Options{Dir: dir, Compression: codec})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const n = 5000
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("group-%05d", i)
				s.Set(key, []kv.Pair{{Key: key, Value: strings.Repeat("v", 32)}})
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("group-%05d", i%n)
				if _, ok, err := s.Get(key); !ok || err != nil {
					b.Fatalf("Get(%s) = %v %v", key, ok, err)
				}
			}
		})
	}
}

// BenchmarkStoreGetMiss measures the bloom-filtered absent-key path.
func BenchmarkStoreGetMiss(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("group-%05d", i)
		s.Set(key, []kv.Pair{{Key: key, Value: "v"}})
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get("absent-key"); ok || err != nil {
			b.Fatalf("absent Get = %v %v", ok, err)
		}
	}
}

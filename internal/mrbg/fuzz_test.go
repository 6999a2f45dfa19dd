package mrbg

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// forgedCountFrame is a chunk frame whose edge count claims far more
// edges than its bytes could hold.
func forgedCountFrame() []byte {
	frame := binary.AppendUvarint(nil, 1)
	frame = append(frame, 'k')
	frame = binary.AppendUvarint(frame, 1<<40)
	return append(frame, make([]byte, 18)...) // room for two real edges
}

// TestDecodeChunkForgedEdgeCount: the edge count is read from disk, so
// it must be checked against the bytes present before it sizes an
// allocation (1<<40 edges would be 24 TiB).
func TestDecodeChunkForgedEdgeCount(t *testing.T) {
	if _, _, err := decodeChunk(forgedCountFrame()); err == nil {
		t.Fatal("decodeChunk accepted a frame claiming 1<<40 edges in 18 bytes")
	}
}

// FuzzDecodeChunk feeds decodeChunk arbitrary bytes, as a corrupt .dat
// file or index entry would. It must return an error or a chunk that
// fits the bytes it was given and survives an encode/decode round trip;
// it must never panic or allocate beyond the input's size.
func FuzzDecodeChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add(forgedCountFrame())
	for _, c := range []Chunk{
		{},
		{Key: "k", Edges: []Edge{{MK: 0, V2: ""}}},
		{Key: "vertex-42", Edges: []Edge{{MK: 7, V2: "0.25"}, {MK: 99, V2: "1.0"}, {MK: 1 << 63, V2: "tail"}}},
	} {
		seed := encodeChunk(nil, c)
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		for _, off := range []int{0, len(seed) / 2, len(seed) - 1} {
			if off >= 0 && off < len(seed) {
				flipped := slices.Clone(seed)
				flipped[off] ^= 0x40
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := decodeChunk(data)
		if err != nil {
			return // rejected input: exactly what corruption should do
		}
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(c.Edges)*minEdgeBytes > len(data) {
			t.Fatalf("%d edges decoded from %d bytes", len(c.Edges), len(data))
		}
		again, m, err := decodeChunk(encodeChunk(nil, c))
		if err != nil {
			t.Fatalf("re-decoding an accepted chunk: %v", err)
		}
		if again.Key != c.Key || !slices.Equal(again.Edges, c.Edges) {
			t.Fatalf("round trip changed the chunk: %+v, then %+v", c, again)
		}
		// Canonical varints are the shortest, so the re-encoding cannot
		// be longer than the frame that was accepted.
		if m > n {
			t.Fatalf("re-encoded frame is %d bytes, the accepted one %d", m, n)
		}
	})
}

// FuzzIndexLog replays arbitrary bytes as an index log, as a damaged
// mrbg-<i>.idx would be. With framed set the bytes become the payload
// of a correctly framed record behind a valid first record, so the
// fuzzer gets past the checksum to the parser. Replay must return an
// error or an index whose every entry lies inside the data file length
// it recovered; it must never panic or read past its input.
func FuzzIndexLog(f *testing.F) {
	index := map[string]loc{
		"a":         {off: 0, len: 12, batch: 1, crc: 0xdeadbeef},
		"vertex-42": {off: 12, len: 300, batch: 2, crc: 7},
	}
	image := appendRecord(nil, 3, 312, 2, []string{"a", "vertex-42"}, index)
	delta := appendRecord(nil, 3, 400, 3, []string{"a", "b"}, map[string]loc{"b": {off: 312, len: 88, batch: 3, crc: 1}})
	f.Add([]byte{}, false)
	f.Add(image, false)
	f.Add(slices.Concat(image, delta), false)
	f.Add(slices.Concat(image, delta[:len(delta)/2]), false)
	f.Add(delta[recordHeader:], true)
	f.Add(delta[recordHeader:len(delta)-3], true)
	for _, off := range []int{0, 5, recordHeader, recordHeader + 2, len(image) - 1} {
		flipped := slices.Clone(image)
		flipped[off] ^= 0x40
		f.Add(flipped, false)
		f.Add(flipped[recordHeader:], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			rec := append(make([]byte, recordHeader), data...)
			binary.LittleEndian.PutUint32(rec, uint32(len(data)))
			binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(data, castagnoli))
			data = slices.Concat(image, rec)
		}
		s := &Store{index: make(map[string]loc)}
		valid, err := s.replay(data)
		if err != nil {
			return // rejected input: exactly what corruption should do
		}
		if valid <= 0 || valid > len(data) {
			t.Fatalf("replayed %d of %d bytes", valid, len(data))
		}
		if s.size < 0 || s.gen < 0 || s.batch < 0 {
			t.Fatalf("recovered size %d, generation %d, batch %d", s.size, s.gen, s.batch)
		}
		for k, l := range s.index {
			if l.off < 0 || l.len <= 0 || l.off+l.len > s.size {
				t.Fatalf("entry %q = %+v outside the %d-byte data file", k, l, s.size)
			}
		}
	})
}

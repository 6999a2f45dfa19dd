package incr

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/mrbg"
)

var wordsMapper = mr.MapperFunc(func(_, v string, emit mr.Emit) error {
	for _, w := range strings.Fields(v) {
		emit(w, "1")
	}
	return nil
})

var countReducer = mr.ReducerFunc(func(k string, vs []string, emit mr.Emit) error {
	emit(k, strconv.Itoa(len(vs)))
	return nil
})

// The MRBG-Store's compaction trigger (mrbg/compact.go): a shard file
// of at least compactFloor bytes and compactRatio times its live bytes
// is reconstructed once the refresh has committed.
const (
	compactRatio = 8
	compactFloor = 64 << 10
)

// docStream is a seeded stream of WordCount micro-batches over a small
// corpus: Zipf-hot words, so a few chunks are rewritten by every
// refresh, and a tail of words that come and go, so groups empty out.
type docStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	docs map[string]string
	next int
}

func newDocStream(seed int64, nDocs int) *docStream {
	rng := rand.New(rand.NewSource(seed))
	s := &docStream{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, 199), docs: map[string]string{}}
	for ; s.next < nDocs; s.next++ {
		s.docs[fmt.Sprintf("d%04d", s.next)] = s.text()
	}
	return s
}

func (s *docStream) text() string {
	ws := make([]string, 6)
	for i := range ws {
		ws[i] = fmt.Sprintf("w%03d", s.zipf.Uint64())
	}
	return strings.Join(ws, " ")
}

func (s *docStream) pairs() []kv.Pair {
	var ps []kv.Pair
	for k, v := range s.docs {
		ps = append(ps, kv.Pair{Key: k, Value: v})
	}
	kv.SortPairs(ps)
	return ps
}

// batch rewrites, deletes and inserts a few documents.
func (s *docStream) batch() []kv.Delta {
	keys := make([]string, 0, len(s.docs))
	for k := range s.docs {
		keys = append(keys, k)
	}
	kvSortStrings(keys)
	var ds []kv.Delta
	for i := 0; i < 3; i++ {
		k := keys[s.rng.Intn(len(keys))]
		old, ok := s.docs[k]
		if !ok {
			continue // already deleted by this batch
		}
		ds = append(ds, kv.Delta{Key: k, Value: old, Op: kv.OpDelete})
		if s.rng.Intn(4) == 0 {
			delete(s.docs, k)
			continue
		}
		s.docs[k] = s.text()
		ds = append(ds, kv.Delta{Key: k, Value: s.docs[k], Op: kv.OpInsert})
	}
	k := fmt.Sprintf("d%04d", s.next)
	s.next++
	s.docs[k] = s.text()
	return append(ds, kv.Delta{Key: k, Value: s.docs[k], Op: kv.OpInsert})
}

func (s *docStream) counts() map[string]string {
	n := map[string]int{}
	for _, v := range s.docs {
		for _, w := range strings.Fields(v) {
			n[w]++
		}
	}
	out := make(map[string]string, len(n))
	for w, c := range n {
		out[w] = strconv.Itoa(c)
	}
	return out
}

// runnerChunks renders every preserved chunk of every partition.
func runnerChunks(t *testing.T, r *Runner) []string {
	t.Helper()
	var out []string
	for p, st := range r.Stores() {
		err := st.AllChunks(func(c mrbg.Chunk) error {
			out = append(out, fmt.Sprintf("p%d %s %v", p, c.Key, c.Edges))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRefreshesKeepSpaceBounded runs 240 small refreshes — none naming
// a DFS output — and holds after every one: each MRBG shard file within
// 9x its live bytes (plus the floor below which nothing compacts), each
// index log within 3x its folded size. The results and the preserved
// MRBGraph stay identical to a runner that never compacts and to
// counting from scratch, across a kill-and-reopen at a refresh boundary.
// With BackgroundCompaction the same holds once the scheduler, released
// by the refresh's end, has drained.
func TestRefreshesKeepSpaceBounded(t *testing.T) {
	for _, background := range []bool{false, true} {
		t.Run(fmt.Sprintf("background=%v", background), func(t *testing.T) { refreshesKeepSpaceBounded(t, background) })
	}
}

func refreshesKeepSpaceBounded(t *testing.T, background bool) {
	const refreshes = 240
	job := Job{
		Name: "wc", Mapper: wordsMapper, Reducer: countReducer, NumReducers: 2,
		StoreOpts: mrbg.Options{Shards: 2}, BackgroundCompaction: background,
	}
	root := t.TempDir()
	eng, ref := engineAt(t, root, 2), newEngine(t, 2)
	stream := newDocStream(5, 300)
	var runner, never *Runner
	for _, x := range []struct {
		eng *mr.Engine
		r   **Runner
	}{{eng, &runner}, {ref, &never}} {
		if err := x.eng.FS().WriteAllPairs("docs", stream.pairs()); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(x.eng, job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunInitial("docs", "out-0"); err != nil {
			t.Fatal(err)
		}
		*x.r = r
	}
	never.noCompact = true
	defer func() { runner.Close(); never.Close() }()

	var compactions int64
	for i := 1; i <= refreshes; i++ {
		delta := stream.batch()
		path := fmt.Sprintf("delta-%d", i)
		for _, x := range []struct {
			eng *mr.Engine
			r   *Runner
		}{{eng, runner}, {ref, never}} {
			if err := x.eng.FS().WriteAllDeltas(path, delta); err != nil {
				t.Fatal(err)
			}
			rep, err := x.r.RunDelta(path, "")
			if err != nil {
				t.Fatalf("refresh %d: %v", i, err)
			}
			// A report counts the compactions the refresh ran itself.
			if n := rep.Counter(metrics.CounterMRBGCompactions); n != 0 && (x.r == never || background) {
				t.Fatalf("refresh %d: %d compactions inside a refresh that should run none", i, n)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); runner.CompactionScheduler().QueueDepth() > 0; {
			if time.Now().After(deadline) {
				t.Fatalf("refresh %d: background compaction did not drain", i)
			}
			time.Sleep(time.Millisecond)
		}
		for p, st := range runner.Stores() {
			for sh, s := range st.ShardStats() {
				if s.FileBytes > (compactRatio+1)*s.LiveBytes+compactFloor {
					t.Fatalf("refresh %d, partition %d shard %d: file %d bytes, live %d", i, p, sh, s.FileBytes, s.LiveBytes)
				}
				if s.IndexLogBytes > 3*s.IndexFoldedBytes {
					t.Fatalf("refresh %d, partition %d shard %d: index log %d bytes, folded %d", i, p, sh, s.IndexLogBytes, s.IndexFoldedBytes)
				}
			}
		}
		if i%60 != 0 {
			continue
		}
		if i == 120 {
			// A kill between refreshes: everything is recovered from
			// the checkpoints, generation files and index logs.
			compactions += mrbg.Totals(runner.Stores()).Compactions
			if err := runner.Close(); err != nil {
				t.Fatal(err)
			}
			eng = engineAt(t, root, 2)
			var err error
			if runner, err = Open(eng, job); err != nil {
				t.Fatal(err)
			}
		}
		got := outputsAsMap(outs(t, runner))
		if want := outputsAsMap(outs(t, never)); !reflect.DeepEqual(got, want) {
			t.Fatalf("refresh %d: results differ from the runner that never compacts", i)
		}
		if want := stream.counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("refresh %d: results differ from counting from scratch", i)
		}
		if got, want := runnerChunks(t, runner), runnerChunks(t, never); !reflect.DeepEqual(got, want) {
			t.Fatalf("refresh %d: preserved MRBGraph differs from the runner that never compacts", i)
		}
	}
	a, b := mrbg.Totals(runner.Stores()), mrbg.Totals(never.Stores())
	if compactions += a.Compactions; compactions == 0 {
		t.Fatal("nothing was ever compacted: the bound was never exercised")
	}
	t.Logf("%d compactions; MRBG files %d bytes (live %d), %d bytes without compaction", compactions, a.FileBytes, a.LiveBytes, b.FileBytes)
	if b.FileBytes < 4*a.FileBytes {
		t.Errorf("compaction reclaimed little: %d bytes with it, %d without", a.FileBytes, b.FileBytes)
	}
	for _, fs := range []*dfs.FS{eng.FS(), ref.FS()} {
		for _, n := range fs.List() {
			if !strings.HasPrefix(n, "delta-") && n != "docs" && !strings.HasPrefix(n, "out-0/") {
				t.Errorf("a refresh that named no output published %q", n)
			}
		}
	}
}

// TestEmptyOutputDefersPublication: a refresh that names no output
// writes nothing to the DFS and leaves the result stores dirty, so the
// next refresh that names one publishes everything both changed — in
// every partition, also one only the unpublished refresh touched.
func TestEmptyOutputDefersPublication(t *testing.T) {
	for _, accumulate := range []bool{false, true} {
		t.Run(fmt.Sprintf("accumulator=%v", accumulate), func(t *testing.T) {
			const parts = 4
			eng := newEngine(t, 2)
			job := Job{Name: "wc", Mapper: wordsMapper, Reducer: countReducer, NumReducers: parts}
			if accumulate {
				job.Accumulate = func(old, new string) string {
					a, _ := strconv.Atoi(old)
					b, _ := strconv.Atoi(new)
					return strconv.Itoa(a + b)
				}
			}
			if err := eng.FS().WriteAllPairs("docs", []kv.Pair{{Key: "d1", Value: "a b c d e f g h"}}); err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(eng, job)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.RunInitial("docs", "out-0"); err != nil {
				t.Fatal(err)
			}
			before := eng.FS().List()

			// The first delta touches only "a"; the second only "b".
			if err := eng.FS().WriteAllDeltas("delta-1", []kv.Delta{{Key: "d2", Value: "a a", Op: kv.OpInsert}}); err != nil {
				t.Fatal(err)
			}
			rep, err := r.RunDelta("delta-1", "")
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.FS().List(); len(got) != len(before)+1 {
				t.Fatalf("a refresh with no output changed the DFS from %v to %v", before, got)
			}
			if n := rep.Counter(metrics.CounterResultBytesRewritten); n != 0 {
				t.Fatalf("a refresh with no output rewrote %d output bytes", n)
			}
			if got := outputsAsMap(outs(t, r)); got["a"] != "3" {
				t.Fatalf("unpublished refresh not in the result stores: a=%q", got["a"])
			}

			if err := eng.FS().WriteAllDeltas("delta-2", []kv.Delta{{Key: "d3", Value: "b", Op: kv.OpInsert}}); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunDelta("delta-2", "out-2"); err != nil {
				t.Fatal(err)
			}
			published, err := eng.ReadOutput("out-2", parts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"a": "3", "b": "2", "c": "1", "d": "1", "e": "1", "f": "1", "g": "1", "h": "1"}
			if got := outputsAsMap(published); !reflect.DeepEqual(got, want) {
				t.Fatalf("published output = %v, want %v", got, want)
			}
		})
	}
}

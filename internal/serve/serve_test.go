package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/core"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mr"
)

// newEngine builds a simulated engine rooted at root (pass the same
// root twice to simulate a process restart over preserved state).
func newEngine(t *testing.T, root string, nodes int) *mr.Engine {
	t.Helper()
	fs, err := dfs.New(dfs.Config{Root: root + "/dfs", BlockSize: 1024, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: nodes, SlotsPerNode: 2, ScratchRoot: root + "/scratch"})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(fs, cl)
}

func wordCountJob(name string) incr.Job {
	job := apps.FineGrainWordCountJob(name)
	job.NumReducers = 2
	return job
}

// docsFor builds a corpus where the word "target" appears exactly n
// times (plus filler words spreading groups across partitions).
func docsFor(n int) []kv.Pair {
	docs := make([]kv.Pair, 0, n)
	for i := 0; i < n; i++ {
		docs = append(docs, kv.Pair{
			Key:   fmt.Sprintf("d%04d", i),
			Value: fmt.Sprintf("target w%03d filler", i%37),
		})
	}
	return docs
}

func startedRunner(t *testing.T, eng *mr.Engine, name string) *incr.Runner {
	t.Helper()
	r, err := incr.NewRunner(eng, wordCountJob(name))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.FS().WriteAllPairs("docs", docsFor(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInitial("docs", "out0"); err != nil {
		t.Fatal(err)
	}
	return r
}

func getValue(t *testing.T, s *Server, key string) (string, int64) {
	t.Helper()
	ps, ok, epoch, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(ps) != 1 {
		t.Fatalf("Get(%q) = %v %v", key, ps, ok)
	}
	return ps[0].Value, epoch
}

// TestServeConsistentDuringRefresh is the headline guarantee: N
// concurrent readers observe exactly the pre-refresh value for the full
// duration of an in-flight refresh, then flip atomically — per reader,
// the epoch is monotone and every read's value matches its epoch. Run
// under -race this also proves the read path is race-clean against the
// refresh's store mutations and checkpoints.
func TestServeConsistentDuringRefresh(t *testing.T) {
	eng := newEngine(t, t.TempDir(), 2)
	r := startedRunner(t, eng, "wc-consistent")
	defer r.Close()
	srv, err := NewOneStep(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pre, preEpoch := getValue(t, srv, "target")
	if pre != "40" || preEpoch != 1 {
		t.Fatalf("pre-refresh target = %q at epoch %d", pre, preEpoch)
	}

	// The delta adds 10 more documents containing "target".
	var deltas []kv.Delta
	for i := 0; i < 10; i++ {
		deltas = append(deltas, kv.Delta{
			Key: fmt.Sprintf("n%04d", i), Value: "target fresh", Op: kv.OpInsert,
		})
	}
	if err := eng.FS().WriteAllDeltas("delta", deltas); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var inFlight atomic.Bool // true exactly while RunDelta runs (pre-flip)
	var stop atomic.Bool     // readers drain after the refresh completes
	var midRefreshReads atomic.Int64
	type badRead struct{ msg string }
	var mu sync.Mutex
	var bad []badRead
	report := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, badRead{fmt.Sprintf(format, args...)})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			lastEpoch := int64(0)
			for !stop.Load() {
				ps, ok, epoch, err := srv.Get("target")
				mid := inFlight.Load() // sampled after the read completed
				if err != nil || !ok || len(ps) != 1 {
					report("reader %d: Get = %v %v %v", rd, ps, ok, err)
					return
				}
				v := ps[0].Value
				switch epoch {
				case 1:
					if v != "40" {
						report("reader %d: epoch 1 read %q, want 40", rd, v)
						return
					}
				case 2:
					if v != "50" {
						report("reader %d: epoch 2 read %q, want 50", rd, v)
						return
					}
				default:
					report("reader %d: unexpected epoch %d", rd, epoch)
					return
				}
				if epoch < lastEpoch {
					report("reader %d: epoch went backwards %d -> %d", rd, lastEpoch, epoch)
					return
				}
				lastEpoch = epoch
				// A read that completed while RunDelta was still running
				// must be a pre-refresh read: the flip only happens after
				// the refresh commits.
				if mid {
					midRefreshReads.Add(1)
					if epoch != 1 || v != "40" {
						report("reader %d: mid-refresh read %q at epoch %d", rd, v, epoch)
						return
					}
				}
			}
		}(rd)
	}

	err = srv.Refresh(func() error {
		inFlight.Store(true)
		_, err := r.RunDelta("delta", "out1")
		inFlight.Store(false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let readers observe the flipped epoch before draining them.
	for {
		if _, epoch := getValue(t, srv, "target"); epoch == 2 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, b := range bad {
		t.Error(b.msg)
	}
	if midRefreshReads.Load() == 0 {
		t.Fatal("no reads completed during the in-flight refresh; the test lost its point")
	}
	if post, postEpoch := getValue(t, srv, "target"); post != "50" || postEpoch != 2 {
		t.Fatalf("post-refresh target = %q at epoch %d", post, postEpoch)
	}
	if st := srv.Stats(); st.EpochFlips != 1 || st.SnapshotsOpen != 2 {
		t.Fatalf("stats after refresh = %+v", st)
	}
}

// TestEpochFlipByteIdenticalAcrossResume: the values served after a
// refresh are byte-identical to the ones served by a fresh process that
// incr.Opens the preserved stores (a kill-and-resume of the serving
// deployment).
func TestEpochFlipByteIdenticalAcrossResume(t *testing.T) {
	root := t.TempDir()
	eng := newEngine(t, root, 2)
	r := startedRunner(t, eng, "wc-resume")
	srv, err := NewOneStep(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var deltas []kv.Delta
	for i := 0; i < 7; i++ {
		deltas = append(deltas, kv.Delta{
			Key: fmt.Sprintf("n%04d", i), Value: fmt.Sprintf("target extra w%03d", i), Op: kv.OpInsert,
		})
	}
	if err := eng.FS().WriteAllDeltas("delta", deltas); err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(func() error {
		_, err := r.RunDelta("delta", "out1")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Read the complete post-refresh result set through the server.
	outs, err := r.Outputs()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(outs)+1)
	for _, o := range outs {
		keys = append(keys, o.Key)
	}
	keys = append(keys, "definitely-missing")
	pairsBefore, foundBefore, _, err := srv.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second engine over the same roots reattaches.
	eng2 := newEngine(t, root, 2)
	r2, err := incr.Open(eng2, wordCountJob("wc-resume"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	srv2, err := NewOneStep(r2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	pairsAfter, foundAfter, _, err := srv2.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if foundBefore[i] != foundAfter[i] {
			t.Fatalf("key %q found %v before kill, %v after", keys[i], foundBefore[i], foundAfter[i])
		}
		if fmt.Sprint(pairsBefore[i]) != fmt.Sprint(pairsAfter[i]) {
			t.Fatalf("key %q served %v before kill, %v after", keys[i], pairsBefore[i], pairsAfter[i])
		}
	}
}

// TestIncrementalStateServing serves the incremental iterative engine's
// durable state stores (PageRank ranks) and flips across a refresh.
func TestIncrementalStateServing(t *testing.T) {
	eng := newEngine(t, t.TempDir(), 2)
	// A little ring graph: v(i) -> v(i+1).
	const n = 24
	vertex := func(i int) string { return fmt.Sprintf("v%07d", i%n) }
	pairs := make([]kv.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv.Pair{Key: vertex(i), Value: vertex(i + 1)}
	}
	if err := eng.FS().WriteAllPairs("graph", pairs); err != nil {
		t.Fatal(err)
	}
	spec := apps.PageRankSpec("serve-pr", apps.DefaultDamping)
	r, err := core.NewRunner(eng, spec, core.Config{NumPartitions: 2, MaxIterations: 40, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("graph"); err != nil {
		t.Fatal(err)
	}

	srv, err := NewIncremental(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rank, epoch := getValue(t, srv, vertex(3))
	if epoch != 1 {
		t.Fatalf("initial epoch = %d", epoch)
	}
	if _, err := strconv.ParseFloat(strings.Fields(rank)[0], 64); err != nil {
		t.Fatalf("served rank %q is not numeric: %v", rank, err)
	}
	if rank != r.State()[vertex(3)] {
		t.Fatalf("served rank %q != engine state %q", rank, r.State()[vertex(3)])
	}

	// Rewire one vertex to point at v3 and refresh: v3's rank changes.
	delta := []kv.Delta{{Key: vertex(10), Value: vertex(3), Op: kv.OpInsert}}
	if err := eng.FS().WriteAllDeltas("delta", delta); err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(func() error {
		_, err := r.RunIncremental("delta")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rank2, epoch2 := getValue(t, srv, vertex(3))
	if epoch2 != 2 {
		t.Fatalf("post-refresh epoch = %d", epoch2)
	}
	if rank2 != r.State()[vertex(3)] {
		t.Fatalf("post-refresh served rank %q != engine state %q", rank2, r.State()[vertex(3)])
	}
	if rank2 == rank {
		t.Fatalf("rank unchanged across refresh (%q); the delta had no effect", rank2)
	}
}

// TestHTTPEndpoints drives the HTTP front: /get, /mget (GET and POST),
// /stats, /healthz, and the closed-server behavior.
func TestHTTPEndpoints(t *testing.T) {
	eng := newEngine(t, t.TempDir(), 2)
	r := startedRunner(t, eng, "wc-http")
	defer r.Close()
	srv, err := NewOneStep(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil && into != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode
	}

	var got HTTPGetResponse
	if code := getJSON("/get?key=target", &got); code != http.StatusOK {
		t.Fatalf("/get status %d", code)
	}
	if !got.Found || len(got.Pairs) != 1 || got.Pairs[0].Value != "40" || got.Epoch != 1 {
		t.Fatalf("/get = %+v", got)
	}
	if code := getJSON("/get?key=definitely-missing", &got); code != http.StatusOK || got.Found {
		t.Fatalf("/get missing = %d %+v", code, got)
	}
	var errResp map[string]string
	if code := getJSON("/get", &errResp); code != http.StatusBadRequest {
		t.Fatalf("/get without key = %d", code)
	}

	var mg HTTPMGetResponse
	if code := getJSON("/mget?key=target&key=nope", &mg); code != http.StatusOK {
		t.Fatalf("/mget status %d", code)
	}
	if len(mg.Values) != 2 || !mg.Values[0].Found || mg.Values[1].Found {
		t.Fatalf("/mget = %+v", mg)
	}
	body := strings.NewReader(`{"keys":["target","w001"]}`)
	resp, err := http.Post(ts.URL+"/mget", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	mg = HTTPMGetResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&mg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(mg.Values) != 2 || !mg.Values[0].Found {
		t.Fatalf("POST /mget = %d %+v", resp.StatusCode, mg)
	}

	var st Stats
	if code := getJSON("/stats", &st); code != http.StatusOK || st.Epoch != 1 || st.Partitions != 2 {
		t.Fatalf("/stats = %d %+v", code, st)
	}
	// The fine-grain job preserves an MRBGraph: its stores' upkeep is in
	// /stats. The initial run wrote each file once and checkpointed it.
	if st.MRBGLiveBytes == 0 || st.MRBGFileBytes != st.MRBGLiveBytes || st.MRBGCompactions != 0 ||
		st.MRBGIndexLogBytes == 0 || st.MRBGIndexBytesWritten != st.MRBGIndexLogBytes {
		t.Fatalf("/stats MRBG-Store counters = %+v", st)
	}
	if code := getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON("/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after Close = %d", code)
	}
	if code := getJSON("/get?key=target", &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("/get after Close = %d", code)
	}
}

// TestCacheCounters: repeated lookups hit the per-epoch cache; a flip
// drops it.
func TestCacheCounters(t *testing.T) {
	eng := newEngine(t, t.TempDir(), 2)
	r := startedRunner(t, eng, "wc-cache")
	defer r.Close()
	srv, err := NewOneStep(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 5; i++ {
		if _, _, _, err := srv.Get("target"); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 4 {
		t.Fatalf("cache counters = %+v", st)
	}
	if err := srv.Flip(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := srv.Get("target"); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.CacheMisses != 2 {
		t.Fatalf("flip did not drop the cache: %+v", st)
	}
}

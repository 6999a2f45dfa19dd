package ingest

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"i2mapreduce/internal/kv"
)

// fakeSink is a Config.Refresh/WriteDeltas pair that records every
// batch it sees, with an optional gate and failure injection.
type fakeSink struct {
	mu      sync.Mutex
	batches [][]kv.Delta
	paths   []string
	jobs    int64
	gate    chan struct{} // when non-nil, Refresh blocks until a receive
	failN   int           // fail the next failN refreshes
	files   map[string][]kv.Delta
}

func newFakeSink() *fakeSink { return &fakeSink{files: map[string][]kv.Delta{}} }

func (s *fakeSink) writeDeltas(path string, ds []kv.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[path] = append([]kv.Delta(nil), ds...)
	return nil
}

func (s *fakeSink) refresh(deltaInput, output string, records int64) error {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if output != "" {
		// A served refresh is read from the engine's stores.
		return fmt.Errorf("the ingester asked for a DFS output, %q", output)
	}
	if s.failN > 0 {
		s.failN--
		return errors.New("injected refresh failure")
	}
	ds, ok := s.files[deltaInput]
	if !ok {
		return fmt.Errorf("refresh of unwritten delta file %q", deltaInput)
	}
	s.batches = append(s.batches, ds)
	s.paths = append(s.paths, deltaInput)
	s.jobs++
	return nil
}

func (s *fakeSink) appliedJobs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs
}

func (s *fakeSink) all() []kv.Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []kv.Delta
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func (s *fakeSink) batchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

func (s *fakeSink) config(dir string) Config {
	return Config{
		Dir:         dir,
		Refresh:     s.refresh,
		WriteDeltas: s.writeDeltas,
		AppliedJobs: s.appliedJobs,
	}
}

func deltas(n, from int) []kv.Delta {
	ds := make([]kv.Delta, n)
	for i := range ds {
		ds[i] = kv.Delta{Key: fmt.Sprintf("k%04d", from+i), Value: fmt.Sprintf("v%d", from+i), Op: kv.OpInsert}
	}
	return ds
}

func TestAddAssignsSequences(t *testing.T) {
	sink := newFakeSink()
	in, err := Open(sink.config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 1; i <= 3; i++ {
		seq, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert})
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	first, last, err := in.AddBatch(deltas(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if first != 4 || last != 7 {
		t.Fatalf("AddBatch range = %d-%d, want 4-7", first, last)
	}
	st := in.Stats()
	if st.StagedSeq != 7 || st.AppliedSeq != 0 || st.PendingRecords != 7 || st.Records != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Lag <= 0 {
		t.Fatalf("lag = %v, want > 0 with pending records", st.Lag)
	}
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.Op('?')}); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestBatchRecordsTrigger(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: time.Hour, MaxBatchRecords: 3}
	applied := make(chan Batch, 16)
	cfg.OnBatchApplied = func(b Batch) { applied <- b }
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()

	// Two records: under the record trigger and under MaxLag — nothing
	// should be cut.
	if _, _, err := in.AddBatch(deltas(2, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-applied:
		t.Fatalf("premature batch %+v", b)
	case <-time.After(50 * time.Millisecond):
	}
	// The third record reaches MaxBatchRecords: the batch fires now,
	// not at MaxLag.
	if _, err := in.Add(kv.Delta{Key: "k3", Value: "v", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-applied:
		if b.Records != 3 || b.FirstSeq != 1 || b.LastSeq != 3 {
			t.Fatalf("batch = %+v", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never applied")
	}
	st := in.Stats()
	if st.AppliedSeq != 3 || st.PendingRecords != 0 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Lag != 0 {
		t.Fatalf("lag = %v, want 0 when drained", st.Lag)
	}
}

func TestMaxLagTrigger(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: 30 * time.Millisecond}
	applied := make(chan Batch, 16)
	cfg.OnBatchApplied = func(b Batch) { applied <- b }
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-applied:
		if lag := b.Applied.Sub(b.Oldest); lag < 30*time.Millisecond {
			t.Fatalf("batch applied after %v, before MaxLag", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MaxLag never fired")
	}
}

func TestBatchBytesCapsCut(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	// Each record is ~16+5+2 bytes; a 60-byte cap forces ~2 records per
	// batch even though 10 are pending.
	cfg.Policy = Policy{MaxLag: time.Hour, MaxBatchRecords: 100, MaxBatchBytes: 60}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	if _, _, err := in.AddBatch(deltas(10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := sink.batchCount(); n < 4 {
		t.Fatalf("byte cap produced %d batches, want >= 4", n)
	}
	if got := sink.all(); len(got) != 10 {
		t.Fatalf("applied %d records, want 10", len(got))
	}
}

func TestRejectOnFull(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Backpressure = RejectOnFull
	cfg.MaxStagedRecords = 2
	in, err := Open(cfg) // never started: nothing drains
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, _, err := in.AddBatch(deltas(2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if st := in.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestBlockOnFull(t *testing.T) {
	sink := newFakeSink()
	sink.gate = make(chan struct{})
	cfg := sink.config(t.TempDir())
	cfg.Backpressure = BlockOnFull
	cfg.MaxStagedRecords = 2
	cfg.Policy = Policy{MaxLag: time.Millisecond}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	if _, _, err := in.AddBatch(deltas(2, 0)); err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() {
		_, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert})
		unblocked <- err
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("Add returned %v while staging log full", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Release the in-flight refresh (a closed gate never blocks again):
	// the batch commits, the depth drops, the blocked producer gets
	// through.
	close(sink.gate)
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Add still blocked after drain")
	}
}

func TestMinIntervalSpacesBatches(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: time.Millisecond, MaxBatchRecords: 1, MinInterval: 40 * time.Millisecond}
	applied := make(chan Batch, 16)
	cfg.OnBatchApplied = func(b Batch) { applied <- b }
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	if _, err := in.Add(kv.Delta{Key: "a", Value: "1", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	b1 := <-applied
	if _, err := in.Add(kv.Delta{Key: "b", Value: "2", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	b2 := <-applied
	if gap := b2.Applied.Sub(b1.Applied); gap < 30*time.Millisecond {
		t.Fatalf("batches %v apart, want >= ~40ms (MinInterval)", gap)
	}
}

func TestFlushAndCloseDrain(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: time.Hour} // only drain/flush can trigger
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	if _, _, err := in.AddBatch(deltas(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.AppliedSeq != 5 {
		t.Fatalf("applied = %d after Flush, want 5", st.AppliedSeq)
	}
	if _, _, err := in.AddBatch(deltas(3, 5)); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.all(); len(got) != 8 {
		t.Fatalf("applied %d records after Close drain, want 8", len(got))
	}
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
}

func TestRefreshFailureLatches(t *testing.T) {
	sink := newFakeSink()
	sink.failN = 1
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: time.Millisecond}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err == nil {
		t.Fatal("Flush succeeded past a failed refresh")
	}
	if _, err := in.Add(kv.Delta{Key: "k2", Value: "v", Op: kv.OpInsert}); err == nil {
		t.Fatal("Add succeeded on a latched ingester")
	}
	if st := in.Stats(); st.Err == nil {
		t.Fatal("Stats.Err nil on a latched ingester")
	}
	in.Close() //nolint:errcheck // latched close
	// The record survived in the staging log; a reopen replays it and a
	// healthy sink applies it.
	if _, err := Open(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKillReopenReplaysExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Stage without starting the loop, then die: the crash window
	// between stage-commit and refresh.
	want := deltas(7, 0)
	if _, _, err := in.AddBatch(want); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	if _, _, err := in.AddBatch(want); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Kill = %v, want ErrClosed", err)
	}

	in2, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := in2.Stats()
	if st.Replayed != 7 || st.PendingRecords != 7 || st.StagedSeq != 7 || st.AppliedSeq != 0 {
		t.Fatalf("recovered stats = %+v", st)
	}
	in2.Start()
	if err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (exactly once)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Sequence numbering continues across the restart.
	in3, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer in3.Close()
	if seq, err := in3.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); err != nil || seq != 8 {
		t.Fatalf("post-recovery seq = %d (%v), want 8", seq, err)
	}
}

func TestIntentResolutionCommitted(t *testing.T) {
	// The previous process crashed after the refresh committed but
	// before the watermark write: the intent survives and the engine's
	// job count advanced past the recorded value. The records must NOT
	// replay.
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas(5, 0)); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	if err := writeIntent(dir, batchIntent{id: 1, first: 1, last: 3, jobs: 10, delta: "ingest/batch-00000001"}); err != nil {
		t.Fatal(err)
	}
	sink.jobs = 11 // advanced past intent.jobs: the refresh committed

	in2, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	st := in2.Stats()
	if st.AppliedSeq != 3 {
		t.Fatalf("applied = %d, want rolled forward to 3", st.AppliedSeq)
	}
	if st.PendingRecords != 2 || st.Replayed != 2 {
		t.Fatalf("stats = %+v, want only seqs 4-5 pending", st)
	}
	if _, ok, err := readIntent(dir); err != nil || ok {
		t.Fatalf("intent not cleared (ok=%v err=%v)", ok, err)
	}
	// The watermark roll-forward is itself durable.
	applied, _, ok, err := readMeta(dir)
	if err != nil || !ok || applied != 3 {
		t.Fatalf("meta applied = %d ok=%v err=%v, want 3", applied, ok, err)
	}
}

func TestIntentResolutionNotCommitted(t *testing.T) {
	// Crash between intent-write and refresh-commit: the job count did
	// not advance, so every record above the watermark replays — and
	// the orphaned batch id is never reused.
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas(5, 0)); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	if err := writeIntent(dir, batchIntent{id: 1, first: 1, last: 3, jobs: 10, delta: "ingest/batch-00000001"}); err != nil {
		t.Fatal(err)
	}
	sink.jobs = 10 // unchanged: the refresh never committed

	cfg := sink.config(dir)
	applied := make(chan Batch, 16)
	cfg.OnBatchApplied = func(b Batch) { applied <- b }
	in2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := in2.Stats()
	if st.AppliedSeq != 0 || st.PendingRecords != 5 || st.Replayed != 5 {
		t.Fatalf("stats = %+v, want all 5 pending", st)
	}
	in2.Start()
	if err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	b := <-applied
	if b.ID != 2 {
		t.Fatalf("replay batch id = %d, want 2 (orphaned id 1 skipped)", b.ID)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.all(); len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	sink := newFakeSink()
	cfg := sink.config(dir)
	cfg.RotateBytes = 128
	cfg.Policy = Policy{MaxLag: time.Hour, MaxBatchRecords: 5}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := in.Add(deltas(1, i)[0]); err != nil {
			t.Fatal(err)
		}
	}
	countWAL := func() int {
		paths, _, err := listWALFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}
	if n := countWAL(); n < 3 {
		t.Fatalf("%d staging-log files before drain, want rotation to produce >= 3", n)
	}
	in.Start()
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := countWAL(); n > 2 {
		t.Fatalf("%d staging-log files after drain, want pruned to <= 2", n)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing replays after a clean drain.
	in2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	if st := in2.Stats(); st.PendingRecords != 0 || st.StagedSeq != 40 {
		t.Fatalf("post-drain reopen stats = %+v", st)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas(3, 0)); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	paths, _, err := listWALFiles(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("paths = %v, err = %v", paths, err)
	}
	// A crash mid-append leaves a torn final line (no newline).
	f, err := os.OpenFile(paths[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("4\t12345\t+\ttorn-ke"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	in2, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	st := in2.Stats()
	if st.PendingRecords != 3 {
		t.Fatalf("pending = %d after torn tail, want 3 intact records", st.PendingRecords)
	}
	// The torn seq was never acknowledged, so reusing it is correct —
	// and the reused line supersedes the torn fragment.
	if seq, err := in2.Add(kv.Delta{Key: "k4", Value: "v", Op: kv.OpInsert}); err != nil || seq != 4 {
		t.Fatalf("seq after torn tail = %d (%v), want 4", seq, err)
	}
}

func TestCorruptionMidFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.AddBatch(deltas(3, 0)); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	paths, _, _ := listWALFiles(dir)
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first line: this is not a torn tail and must refuse
	// to open rather than silently drop accepted records.
	lines := strings.SplitN(string(b), "\n", 2)
	if err := os.WriteFile(paths[0], []byte("garbage\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sink.config(dir)); err == nil {
		t.Fatal("Open succeeded on a corrupt staging log")
	}
}

func TestEscapingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink := newFakeSink()
	in, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := []kv.Delta{
		{Key: "tab\tand\nnewline", Value: "back\\slash", Op: kv.OpDelete},
		{Key: "", Value: "", Op: kv.OpInsert},
	}
	if _, _, err := in.AddBatch(want); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	in2, err := Open(sink.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	in2.Start()
	if err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := in2.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v (escaping broken)", i, got[i], want[i])
		}
	}
}

func TestHTTPIngest(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Policy = Policy{MaxLag: time.Hour}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	ts := httptest.NewServer(in.Handler())
	defer ts.Close()

	post := func(ct, body string) *http.Response {
		resp, err := http.Post(ts.URL, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("application/json", `{"deltas":[{"key":"a","value":"1"},{"key":"b","value":"2","op":"-"}]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("JSON ingest status = %d", resp.StatusCode)
	}
	if resp := post("text/plain", "c\t3\t+\nd\t4\t-\n"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("text ingest status = %d", resp.StatusCode)
	}
	if resp := post("application/json", `{"deltas":[{"key":"x","op":"?"}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op status = %d", resp.StatusCode)
	}
	if resp := post("application/json", `{"deltas":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}

	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	want := []kv.Delta{
		{Key: "a", Value: "1", Op: kv.OpInsert},
		{Key: "b", Value: "2", Op: kv.OpDelete},
		{Key: "c", Value: "3", Op: kv.OpInsert},
		{Key: "d", Value: "4", Op: kv.OpDelete},
	}
	if len(got) != len(want) {
		t.Fatalf("applied %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHTTPBackpressure(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.Backpressure = RejectOnFull
	cfg.MaxStagedRecords = 1
	in, err := Open(cfg) // not started: stays full
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ts := httptest.NewServer(in.Handler())
	defer ts.Close()
	body := `{"deltas":[{"key":"a","value":"1"}]}`
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full ingest status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPClosed(t *testing.T) {
	sink := newFakeSink()
	in, err := Open(sink.config(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	in.Kill()
	ts := httptest.NewServer(in.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(`{"deltas":[{"key":"a","value":"1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest-after-kill status = %d, want 503", resp.StatusCode)
	}
}

func TestOpenValidation(t *testing.T) {
	sink := newFakeSink()
	if _, err := Open(Config{Refresh: sink.refresh, WriteDeltas: sink.writeDeltas}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
	if _, err := Open(Config{Dir: t.TempDir(), WriteDeltas: sink.writeDeltas}); err == nil {
		t.Fatal("Open without Refresh succeeded")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Refresh: sink.refresh}); err == nil {
		t.Fatal("Open without WriteDeltas succeeded")
	}
	cfg := sink.config(t.TempDir())
	cfg.Policy.MaxLag = -time.Second
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open with negative policy succeeded")
	}
}

func TestDeltaPathsUsePrefixes(t *testing.T) {
	sink := newFakeSink()
	cfg := sink.config(t.TempDir())
	cfg.DeltaPathPrefix = "stream/in"
	cfg.Policy = Policy{MaxLag: time.Hour}
	in, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Start()
	if _, err := in.Add(kv.Delta{Key: "k", Value: "v", Op: kv.OpInsert}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.paths) != 1 || !strings.HasPrefix(sink.paths[0], "stream/in/batch-") {
		t.Fatalf("delta paths = %v", sink.paths)
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, metaFile)); err != nil {
		t.Fatalf("watermark file missing: %v", err)
	}
}

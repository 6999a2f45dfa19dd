package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/serve"
)

// ---------------------------------------------------------------------
// Ingest sweep: freshness lag vs ingest rate across micro-batching
// policies. Not a paper figure — the paper refreshes on demand; this
// measures the continuous-ingestion pipeline (internal/ingest) the
// ROADMAP targets: records streamed in at a steady rate, staged
// durably, micro-batched into serve-refreshes, and the per-record
// freshness lag (durable accept to epoch flip) profiled end to end.
// ---------------------------------------------------------------------

// IngestRow is one (policy, rate) cell's freshness profile.
type IngestRow struct {
	// Policy names the micro-batching policy variant; Rate is the
	// offered load in records/second.
	Policy string
	Rate   int
	// Records / Batches are what actually flowed; Rejected counts
	// backpressure rejections (0 in the blocking configs).
	Records  int64
	Batches  int64
	Rejected int64
	// MeanLag/P50/P99/MaxLag profile the per-record freshness lag: the
	// time from durable accept to the epoch flip that made the record
	// readable.
	MeanLag time.Duration
	P50     time.Duration
	P99     time.Duration
	MaxLag  time.Duration
	// MeanRefresh is the mean refresh wall-clock per micro-batch.
	MeanRefresh time.Duration
}

// ingestFeedTime is how long each cell offers load — short enough for
// the smoke run, long enough to span several MaxLag windows of the
// tightest policy.
const ingestFeedTime = 500 * time.Millisecond

// ingestPolicy is one micro-batching policy variant under test.
type ingestPolicy struct {
	name string
	pol  ingest.Policy
}

// IngestSweep prepares a fine-grain WordCount behind a serve.Server,
// then for each (policy, rate) cell streams synthetic delta records
// through a fresh Ingester at the offered rate and profiles the
// per-record freshness lag. The tension the sweep exposes: a tight
// MaxLag refreshes eagerly (low lag, many small batches) until the
// refresh cost itself saturates; a loose MaxLag or a record cap
// amortizes refreshes better but every record waits for its batch.
func IngestSweep(env *Env, sc Scale) ([]IngestRow, error) {
	corpus := datagen.Tweets(sc.Seed+240, sc.Tweets, sc.Vocab, sc.WordsPerTweet)
	if err := env.Eng.FS().WriteAllPairs("ingest/t0", corpus); err != nil {
		return nil, err
	}
	job := apps.FineGrainWordCountJob("ingest-wc")
	job.NumReducers = sc.Partitions
	job.StoreOpts = sc.storeOpts()
	job.ShuffleMemoryBudget = sc.ShuffleMemoryBudget
	runner, err := incr.NewRunner(env.Eng, job)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	if _, err := runner.RunInitial("ingest/t0", "ingest/out0"); err != nil {
		return nil, err
	}
	srv, err := serve.NewOneStep(runner, serve.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	stagingRoot, err := os.MkdirTemp("", "i2mr-bench-ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stagingRoot)

	policies := []ingestPolicy{
		{name: "lag-50ms", pol: ingest.Policy{MaxLag: 50 * time.Millisecond}},
		{name: "lag-250ms", pol: ingest.Policy{MaxLag: 250 * time.Millisecond}},
		{name: "records-64", pol: ingest.Policy{MaxLag: time.Second, MaxBatchRecords: 64}},
	}
	rates := []int{200, 1000, 4000}

	// The record stream: fresh mutation rounds of the evolving corpus,
	// generated ahead of each cell so generation cost stays out of the
	// measured path.
	current := corpus
	nextStream := func(seed int64, n int) []kv.Delta {
		var out []kv.Delta
		for round := 0; len(out) < n; round++ {
			deltas, mutated := datagen.Mutate(seed+int64(round), current, datagen.MutateOptions{
				ModifyFraction: sc.DeltaFraction,
				Rewrite: func(rng *rand.Rand, key, value string) string {
					return value + fmt.Sprintf(" w%04d", rng.Intn(sc.Vocab))
				},
			})
			current = mutated
			out = append(out, deltas...)
		}
		return out[:n]
	}

	var rows []IngestRow
	cell := 0
	for _, pc := range policies {
		for _, rate := range rates {
			cell++
			stream := nextStream(sc.Seed+int64(300+cell*10), rate*int(ingestFeedTime)/int(time.Second))
			row, err := ingestCell(env, runner, srv,
				filepath.Join(stagingRoot, fmt.Sprintf("cell-%d", cell)),
				fmt.Sprintf("ingest/in-%d", cell), pc, rate, stream)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// ingestCell runs one (policy, rate) cell: a fresh Ingester over its
// own staging dir and DFS delta prefix, records offered at the target rate,
// per-record lag measured from durable accept to batch commit.
func ingestCell(env *Env, runner *incr.Runner, srv *serve.Server, dir, inPrefix string,
	pc ingestPolicy, rate int, stream []kv.Delta) (*IngestRow, error) {
	// enqBySeq[seq-1] is record seq's accept stamp. The cell is the
	// only producer and sequence numbers start at 1 in a fresh staging
	// dir, so stamps can be appended before AddBatch assigns the seqs —
	// OnBatchApplied (the loop goroutine) then always finds them.
	var mu sync.Mutex
	enqBySeq := make([]time.Time, 0, len(stream))
	var lags []time.Duration
	var refreshTotal time.Duration

	in, err := ingest.Open(ingest.Config{
		Dir:             dir,
		Refresh:         ingest.BindServe(srv, runner),
		WriteDeltas:     env.Eng.FS().WriteAllDeltas,
		AppliedJobs:     runner.CompletedJobs,
		DeltaPathPrefix: inPrefix,
		Policy:          pc.pol,
		OnBatchApplied: func(b ingest.Batch) {
			mu.Lock()
			defer mu.Unlock()
			refreshTotal += b.Wall
			for seq := b.FirstSeq; seq <= b.LastSeq; seq++ {
				lags = append(lags, b.Applied.Sub(enqBySeq[seq-1]))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	in.Start()

	// Offer the stream at the target rate in 10ms slices.
	perSlice := rate / 100
	if perSlice < 1 {
		perSlice = 1
	}
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for offered := 0; offered < len(stream); {
		<-ticker.C
		n := perSlice
		if offered+n > len(stream) {
			n = len(stream) - offered
		}
		now := time.Now()
		mu.Lock()
		for i := 0; i < n; i++ {
			enqBySeq = append(enqBySeq, now)
		}
		mu.Unlock()
		if _, _, err := in.AddBatch(stream[offered : offered+n]); err != nil {
			in.Close() //nolint:errcheck // cell already failed
			return nil, err
		}
		offered += n
	}
	if err := in.Flush(); err != nil {
		return nil, err
	}
	st := in.Stats()
	if err := in.Close(); err != nil {
		return nil, err
	}

	mu.Lock()
	defer mu.Unlock()
	sort.Slice(lags, func(a, b int) bool { return lags[a] < lags[b] })
	row := &IngestRow{
		Policy:   pc.name,
		Rate:     rate,
		Records:  st.Records,
		Batches:  st.Batches,
		Rejected: st.Rejected,
	}
	if len(lags) > 0 {
		var total time.Duration
		for _, l := range lags {
			total += l
		}
		row.MeanLag = total / time.Duration(len(lags))
		row.P50 = lags[len(lags)/2]
		row.P99 = lags[len(lags)*99/100]
		row.MaxLag = lags[len(lags)-1]
	}
	if st.Batches > 0 {
		row.MeanRefresh = refreshTotal / time.Duration(st.Batches)
	}
	return row, nil
}

// FormatIngest renders the sweep.
func FormatIngest(rows []IngestRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ingest sweep — freshness lag vs ingest rate across micro-batching policies\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %10s %10s %10s %10s %10s %9s\n",
		"policy", "rate", "records", "batches", "mean_lag", "p50", "p99", "max", "refresh", "rejected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %10s %10s %10s %10s %10s %9d\n",
			r.Policy, r.Rate, r.Records, r.Batches,
			r.MeanLag.Round(time.Millisecond), r.P50.Round(time.Millisecond),
			r.P99.Round(time.Millisecond), r.MaxLag.Round(time.Millisecond),
			r.MeanRefresh.Round(time.Millisecond), r.Rejected)
	}
	return b.String()
}

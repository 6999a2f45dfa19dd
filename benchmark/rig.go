package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/core"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/results"
	"i2mapreduce/internal/serve"
)

// env is what one set-up gets: its own work dir, the seed and sizes.
type env struct {
	dir    string
	seed   int64
	sz     sizes
	traced bool
}

// rig is one set-up system under test, wired the way cmd/i2mr-serve
// -ingest wires it: ingest.Ingester → serve.Server.Refresh → engine.
type rig struct {
	env *env
	sys *i2mr.System
	// Exactly one engine is set: one for the WordCount workloads, itr
	// for PageRank.
	one *incr.Runner
	itr *core.Runner
	srv *serve.Server
	ing *ingest.Ingester
	// handler is non-nil when traffic goes through the in-process HTTP
	// handlers (ServeHTTP on a recorder; no socket).
	handler http.Handler

	shape
	// input is the generated input; newSource builds the delta stream
	// and the model over it.
	input     []kv.Pair
	newSource func(seed int64, input []kv.Pair) source

	// applied carries each committed batch from the ingester's loop to
	// the writer. One slot: the loop is closed, one batch in flight.
	applied chan ingest.Batch
	// cur is the batch the traced closures stamp. The writer sets it
	// before the batch's first AddBatch, whose mutex orders the write
	// before the ingest loop's reads.
	cur *batchTimes
}

// shape is what a workload fixes about its rig.
type shape struct {
	batch, adds int    // delta records per micro-batch, and the AddBatch calls it is submitted in
	sliceReads  int    // closed-loop reads after each batch
	readRate    int    // open-loop reads per second
	mgetKeys    int    // keys per open-loop mget; 0: gets only
	budget      int64  // ShuffleMemoryBudget
	codec       string // SegmentCompression
	cacheBlocks int    // serve.Options.CacheSize
	http        bool   // traffic goes through the HTTP handlers
	mutate      bool   // WordCount batches also delete and insert
	plainMR     bool   // also time the plain-MapReduce baseline
}

// storeTotals sums the layer statistics across partitions; refreshes
// are attributed their difference.
type storeTotals struct {
	mrbg mrbg.Stats
	res  results.Stats
}

func (r *rig) mrbgStores() []*mrbg.ShardedStore {
	if r.itr != nil {
		return r.itr.Stores()
	}
	return r.one.Stores()
}

func (r *rig) resultStats() []results.Stats {
	var out []results.Stats
	if r.itr != nil {
		for _, st := range r.itr.StateStores() {
			out = append(out, st.Stats())
		}
		return out
	}
	for _, st := range r.one.Results() {
		out = append(out, st.Stats())
	}
	return out
}

func (r *rig) storeTotals() storeTotals {
	var t storeTotals
	for _, st := range r.mrbgStores() {
		if st == nil {
			continue
		}
		s := st.Stats()
		t.mrbg.Reads += s.Reads
		t.mrbg.BytesRead += s.BytesRead
		t.mrbg.CacheHits += s.CacheHits
		t.mrbg.AppendedChunks += s.AppendedChunks
		t.mrbg.Flushes += s.Flushes
		t.mrbg.FileBytes += s.FileBytes
		t.mrbg.LiveBytes += s.LiveBytes
	}
	for _, s := range r.resultStats() {
		t.res.Segments += s.Segments
		t.res.SegmentBytes += s.SegmentBytes
		t.res.Compactions += s.Compactions
		t.res.CompactedBytes += s.CompactedBytes
		t.res.Flushes += s.Flushes
		t.res.BlocksRead += s.BlocksRead
		t.res.BloomSkips += s.BloomSkips
		t.res.BytesDecompressed += s.BytesDecompressed
	}
	return t
}

func (r *rig) refresher() engine.Refresher {
	if r.itr != nil {
		return r.itr
	}
	return r.one
}

// openServing puts the server and the ingester in front of the engine.
// The untraced run injects the stock closures; the traced run injects
// closures that stamp r.cur around the same calls.
func (r *rig) openServing(srv *serve.Server, completed func() int64) error {
	r.srv = srv
	r.applied = make(chan ingest.Batch, 1)
	cfg := ingest.Config{
		Dir:            filepath.Join(r.env.dir, "ingest-wal"),
		Refresh:        ingest.BindServe(srv, r.refresher()),
		WriteDeltas:    r.sys.WriteDeltas,
		AppliedJobs:    completed,
		Policy:         ingest.Policy{MaxBatchRecords: r.batch, MaxLag: time.Hour},
		OnBatchApplied: func(b ingest.Batch) { r.applied <- b },
	}
	if r.env.traced {
		cfg.Refresh = r.tracedRefresh
		cfg.WriteDeltas = func(path string, ds []kv.Delta) error {
			bt := r.cur
			bt.wdStart = time.Now()
			err := r.sys.WriteDeltas(path, ds)
			bt.wdEnd = time.Now()
			return err
		}
		cfg.OnBatchApplied = func(b ingest.Batch) {
			r.cur.applied = time.Now()
			r.applied <- b
		}
	}
	ing, err := ingest.Open(cfg)
	if err != nil {
		return err
	}
	ing.AttachTo(srv)
	ing.Start()
	r.ing = ing
	return nil
}

// tracedRefresh is ingest.BindServe with stamps: serve.refresh around
// srv.Refresh, engine.refresh around the runner inside it, and the
// engine's own evidence (Report, PerIter, store statistics) kept.
func (r *rig) tracedRefresh(deltaInput, output string, _ int64) error {
	bt := r.cur
	bt.rfStart = time.Now()
	var before storeTotals
	if bt.traced {
		before = r.storeTotals()
	}
	err := r.srv.Refresh(func() error {
		bt.engStart = time.Now()
		defer func() { bt.engEnd = time.Now() }()
		if r.itr != nil {
			res, err := r.itr.RunIncremental(deltaInput)
			if err != nil {
				return err
			}
			bt.report, bt.iters = res.Report, res.PerIter
			return nil
		}
		res, err := r.one.Refresh(deltaInput, output)
		if err != nil {
			return err
		}
		bt.report = res.Report
		return nil
	})
	if bt.traced {
		bt.stores, bt.storesBefore = r.storeTotals(), before
	}
	bt.rfEnd = time.Now()
	return err
}

// close stops everything the rig started, in dependency order.
func (r *rig) close() error {
	var errs []error
	if r.ing != nil {
		errs = append(errs, r.ing.Close())
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
	}
	if r.one != nil {
		errs = append(errs, r.one.Close())
	}
	if r.itr != nil {
		errs = append(errs, r.itr.Close())
	}
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------
// Set-ups. Each is what setup_s times: generate the input, write it to
// the DFS, run the initial job, open the server and the ingester.
// ---------------------------------------------------------------------

func setupWC(e *env, p shape) (*rig, error) {
	r := &rig{env: e, shape: p}
	r.newSource = func(seed int64, input []kv.Pair) source {
		return newWCSource(seed, e.sz, input, p.batch, p.mutate)
	}
	r.input = datagen.Tweets(e.seed, e.sz.Tweets, e.sz.Vocab, e.sz.Words)
	sys, err := i2mr.New(i2mr.Options{WorkDir: e.dir, ShuffleMemoryBudget: p.budget, SegmentCompression: p.codec})
	if err != nil {
		return nil, err
	}
	r.sys = sys
	if err := sys.WritePairs("tweets", r.input); err != nil {
		return nil, err
	}
	if r.one, err = sys.NewOneStep(apps.FineGrainWordCountJob("wc")); err != nil {
		return nil, err
	}
	if _, err := r.one.RunInitial("tweets", "wc-initial"); err != nil {
		return r, err
	}
	srv, err := serve.NewOneStep(r.one, serve.Options{CacheSize: p.cacheBlocks})
	if err != nil {
		return r, err
	}
	if err := r.openServing(srv, r.one.CompletedJobs); err != nil {
		return r, err
	}
	if p.http {
		r.handler = srv.HandlerWith(map[string]http.Handler{"/ingest": r.ing.Handler()})
	}
	return r, nil
}

func setupWCStream(e *env) (*rig, error) {
	return setupWC(e, shape{
		batch: e.sz.StreamBatch, adds: e.sz.StreamAdds, sliceReads: e.sz.StreamReads, readRate: e.sz.ProbeRate,
	})
}

func setupWCBulk(e *env) (*rig, error) {
	return setupWC(e, shape{
		batch: e.sz.BulkBatch, adds: 1, sliceReads: e.sz.BulkReads, budget: e.sz.BulkBudget, readRate: e.sz.ProbeRate,
		mutate: true, plainMR: true,
	})
}

func setupServeMixed(e *env) (*rig, error) {
	return setupWC(e, shape{
		batch: e.sz.ServeBatch, adds: 1, sliceReads: e.sz.ServeReads, codec: "flate", cacheBlocks: e.sz.ServeCache,
		readRate: e.sz.ReadRate, mgetKeys: e.sz.MgetKeys, http: true, mutate: true,
	})
}

// pageRankConfig is the iterative engine's configuration for pr_refresh,
// shared with the oracle's fresh runner.
var pageRankConfig = core.Config{
	CPC: true, FilterThreshold: 0.01, Epsilon: 1e-6, MaxIterations: 60, Checkpoint: true,
}

func setupPageRank(e *env) (*rig, error) {
	r := &rig{env: e, shape: shape{batch: e.sz.RankBatch, adds: 1, sliceReads: e.sz.RankReads, readRate: e.sz.ProbeRate}}
	r.newSource = func(seed int64, input []kv.Pair) source { return newPRSource(seed, e.sz, input) }
	r.input = datagen.Graph(e.seed, e.sz.Vertices, e.sz.Degree)
	sys, err := i2mr.New(i2mr.Options{WorkDir: e.dir})
	if err != nil {
		return nil, err
	}
	r.sys = sys
	if err := sys.WritePairs("graph", r.input); err != nil {
		return nil, err
	}
	if r.itr, err = sys.NewIncremental(apps.PageRankSpec("pr", apps.DefaultDamping), pageRankConfig); err != nil {
		return nil, err
	}
	res, err := r.itr.RunInitial("graph")
	if err != nil {
		return r, err
	}
	if !res.Converged {
		return r, fmt.Errorf("initial PageRank did not converge in %d iterations", res.Iterations)
	}
	srv, err := serve.NewIncremental(r.itr, serve.Options{})
	if err != nil {
		return r, err
	}
	return r, r.openServing(srv, r.itr.CompletedJobs)
}

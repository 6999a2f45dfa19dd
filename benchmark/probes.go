package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/blockio"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/results"
	"i2mapreduce/internal/shuffle"
)

const (
	probeReads  = 2000 // timed gets per serve / results probe
	probeMgets  = 200
	probeRuns   = 3       // repetitions of a one-shot probe; the median is reported
	probeFiles  = 20      // delta files re-read for dfs.read_deltas_probe_s_p50
	probeBlocks = 2 << 20 // raw bytes of the stand-alone blockio segment
	probeNodes  = 4       // partitions of the stand-alone shuffle, the default cluster size
)

// probes times single layers on their own, after the measured phase and
// before anything is closed: direct calls into serve, results and the
// engine's MRBG stores as the run left them, and stand-alone instances
// of mrbg, results, shuffle and blockio fed the run's mean refresh.
func (res *runResult) probes(p *phase) error {
	dir := filepath.Join(p.r.env.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	edges := int(res.meanEdges)
	groups := int(res.meanGroups)
	last := p.src.groupKeys(p.lastBatch)
	steps := []func() error{
		func() error { return res.probeDFS(p) },
		func() error { return res.probeServe(p) },
		func() error { return res.probeResults(p) },
		func() error { return res.probeGetMany(p, last) },
		func() error { return res.probeMerge(dir, last, edges) },
		func() error { return res.probeShuffle(dir, last, edges, p.r.budget) },
		func() error { return res.probeCheckpoint(dir, last, groups, p.r.codec) },
		func() error { return res.probeBlockIO(dir, p.r.codec) },
		func() error { return res.probePlainMR(p, dir) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// timed runs f probeRuns times and returns the wall times.
func timed(f func(run int) error) (samples, error) {
	var s samples
	for i := 0; i < probeRuns; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		s.addDur(time.Since(t))
	}
	return s, nil
}

// probeDFS re-reads the delta files the ingester wrote, the read the
// map phase repeats, and sizes them.
func (res *runResult) probeDFS(p *phase) error {
	fs := p.r.sys.Engine().FS()
	var size, read samples
	for i, path := range p.paths {
		fi, err := fs.Stat(path)
		if err != nil {
			return err
		}
		size.add(float64(fi.Bytes))
		if i < len(p.paths)-probeFiles {
			continue
		}
		t := time.Now()
		if _, err := fs.ReadAllDeltas(path); err != nil {
			return err
		}
		read.addDur(time.Since(t))
	}
	res.set("dfs.delta_bytes", size.mean(), len(size))
	res.set("dfs.read_deltas_probe_s_p50", read.median(), len(read))
	return nil
}

// probeServe times direct Go calls into the server and the same gets
// through its HTTP handler; the difference is the handler's overhead.
func (res *runResult) probeServe(p *phase) error {
	direct := directClient{srv: p.r.srv}
	viaHTTP := httpClient{h: p.r.srv.Handler()}
	nkeys := p.r.mgetKeys
	if nkeys == 0 {
		nkeys = p.cfg.sz.MgetKeys
	}
	timeGets := func(cl client, seed int64) (samples, error) {
		keys := newReadKeys(seed, p.src)
		var s samples
		for i := 0; i < probeReads; i++ {
			key := keys.next()
			t := time.Now()
			_, _, _, err := cl.get(key)
			s.addDur(time.Since(t))
			if err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	get, err := timeGets(direct, p.cfg.seed+303)
	if err != nil {
		return err
	}
	handler, err := timeGets(viaHTTP, p.cfg.seed+303)
	if err != nil {
		return err
	}
	keys := newReadKeys(p.cfg.seed+304, p.src)
	var mget samples
	for i := 0; i < probeMgets; i++ {
		ks := make([]string, nkeys)
		for j := range ks {
			ks[j] = keys.next()
		}
		t := time.Now()
		_, _, err := direct.mget(ks)
		mget.addDur(time.Since(t))
		if err != nil {
			return err
		}
	}
	res.set("serve.get_s_p50", get.median(), len(get))
	res.set("serve.mget_s_p50", mget.median(), len(mget))
	res.set("serve.http_overhead_s_p50", handler.median()-get.median(), len(handler))
	return nil
}

// probeResults reads the engine's own result (or state) stores below
// the server: no epoch, no block cache. Present keys cost block reads;
// absent keys should stop at the bloom filters.
func (res *runResult) probeResults(p *phase) error {
	var get func(key string) error
	if p.r.itr != nil {
		stores := p.r.itr.StateStores()
		get = func(key string) error {
			_, _, err := stores[kv.Partition(key, len(stores))].Get(key)
			return err
		}
	} else {
		stores := p.r.one.Results()
		get = func(key string) error {
			_, _, err := stores[kv.Partition(key, len(stores))].Get(key)
			return err
		}
	}
	keys := newReadKeys(p.cfg.seed+305, p.src)
	run := func(absent bool) (samples, results.Stats, error) {
		var s samples
		before := p.r.storeTotals().res
		for len(s) < probeReads {
			key := keys.next()
			if absentKey(key) != absent {
				continue
			}
			t := time.Now()
			err := get(key)
			s.addDur(time.Since(t))
			if err != nil {
				return nil, results.Stats{}, err
			}
		}
		after := p.r.storeTotals().res
		return s, results.Stats{
			BlocksRead:        after.BlocksRead - before.BlocksRead,
			BloomSkips:        after.BloomSkips - before.BloomSkips,
			BytesDecompressed: after.BytesDecompressed - before.BytesDecompressed,
		}, nil
	}
	hit, hitStats, err := run(false)
	if err != nil {
		return err
	}
	miss, missStats, err := run(true)
	if err != nil {
		return err
	}
	res.set("results.get_probe_s_p50", hit.median(), len(hit))
	res.set("results.miss_probe_s_p50", miss.median(), len(miss))
	res.set("results.blocks_read_per_get", ratio(float64(hitStats.BlocksRead), probeReads), probeReads)
	res.set("results.bytes_decompressed_per_get", ratio(float64(hitStats.BytesDecompressed), probeReads), probeReads)
	res.set("results.bloom_skip_ratio",
		ratio(float64(missStats.BloomSkips), float64(missStats.BloomSkips+missStats.BlocksRead)), probeReads)
	return nil
}

// probeGetMany retrieves the last batch's reduce groups from the
// engine's own MRBG stores, the read half of a merge.
func (res *runResult) probeGetMany(p *phase, groupKeys []string) error {
	stores := p.r.mrbgStores()
	byPart := make([][]string, len(stores))
	for _, k := range groupKeys {
		i := kv.Partition(k, len(stores))
		byPart[i] = append(byPart[i], k)
	}
	s, err := timed(func(int) error {
		for i, st := range stores {
			if st == nil || len(byPart[i]) == 0 {
				continue
			}
			if err := st.GetMany(byPart[i], func(string, mrbg.Chunk, bool) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("mrbg.getmany_probe_s", s.median(), len(s))
	return nil
}

// cycle returns keys[i mod len].
func cycle(keys []string, i int) string { return keys[i%len(keys)] }

// probeMerge merges a delta of the run's mean size into an empty
// stand-alone MRBG-Store and checkpoints it.
func (res *runResult) probeMerge(dir string, keys []string, edges int) error {
	delta := make([]mrbg.DeltaEdge, edges)
	for i := range delta {
		delta[i] = mrbg.DeltaEdge{Key: cycle(keys, i), MK: uint64(i), V2: "1"}
	}
	s, err := timed(func(run int) error {
		st, err := mrbg.Open(mrbg.Options{Dir: filepath.Join(dir, "mrbg-"+strconv.Itoa(run))})
		if err != nil {
			return err
		}
		defer st.Close()
		if err := st.Merge(delta, func(mrbg.MergeResult) error { return nil }); err != nil {
			return err
		}
		return st.Checkpoint()
	})
	if err != nil {
		return err
	}
	res.set("mrbg.merge_probe_s", s.median(), len(s))
	return nil
}

// probeShuffle pushes the run's mean edge count through a stand-alone
// shuffle.Buffer at the workload's budget: emit, seal, and drain every
// partition through the k-way merge.
func (res *runResult) probeShuffle(dir string, keys []string, edges int, budget int64) error {
	s, err := timed(func(run int) error {
		buf, err := shuffle.New(shuffle.Config{
			Partitions:   probeNodes,
			MemoryBudget: budget,
			ScratchDir: func(part int) string {
				return filepath.Join(dir, fmt.Sprintf("shuffle-%d-%d", run, part))
			},
		})
		if err != nil {
			return err
		}
		defer buf.Close()
		for i := 0; i < edges; i++ {
			// The size of an encoded delta edge: MK, sequence, op, value.
			buf.Emit(cycle(keys, i), fmt.Sprintf("%016x%016x+1", i, i))
		}
		if err := buf.FinishMap(); err != nil {
			return err
		}
		for part := 0; part < probeNodes; part++ {
			if err := buf.Reduce(part, func(kv.Group) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("shuffle.probe_s", s.median(), len(s))
	return nil
}

// probeCheckpoint sets the run's mean count of re-reduced groups in an
// empty stand-alone result store and checkpoints it: one memtable
// flush, one segment, one manifest commit.
func (res *runResult) probeCheckpoint(dir string, keys []string, groups int, codec string) error {
	s, err := timed(func(run int) error {
		st, err := results.Open(results.Options{Dir: filepath.Join(dir, "results-"+strconv.Itoa(run)), Compression: codec})
		if err != nil {
			return err
		}
		defer st.Close()
		for i := 0; i < groups; i++ {
			k := cycle(keys, i)
			st.Set(k, []kv.Pair{{Key: k, Value: strconv.Itoa(i)}})
		}
		return st.Checkpoint()
	})
	if err != nil {
		return err
	}
	res.set("results.checkpoint_probe_s", s.median(), len(s))
	return nil
}

// probeBlockIO writes one stand-alone segment with the workload's codec
// at the default block size and reads every block back.
func (res *runResult) probeBlockIO(dir, codecName string) error {
	codec, err := blockio.ParseCodec(codecName)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "blockio.seg"))
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	w, err := blockio.NewWriter(f, blockio.Options{Codec: codec})
	if err != nil {
		return err
	}
	raw := 0
	for i := 0; raw < probeBlocks; i++ {
		key := fmt.Sprintf("w%07d", i)
		rec := []byte(key + "\t" + strconv.Itoa(i*7919%100000) + "\n")
		if err := w.Append(key, rec); err != nil {
			return err
		}
		raw += len(rec)
	}
	bf, err := w.Finish()
	if err != nil {
		return err
	}
	res.set("blockio.write_s_per_mb", time.Since(start).Seconds()/(float64(raw)/(1<<20)), 1)

	var read samples
	buf := blockio.GetBuf()
	defer blockio.PutBuf(buf)
	for i := 0; i < bf.NumBlocks(); i++ {
		t := time.Now()
		if _, err := bf.ReadBlock(i, buf); err != nil {
			return err
		}
		read.addDur(time.Since(t))
	}
	res.set("blockio.read_block_s_p50", read.median(), len(read))
	return nil
}

// probePlainMR is the paper's plain-MapReduce baseline on the final
// input: WordCount through System.MapReduce, nothing preserved.
func (res *runResult) probePlainMR(p *phase, dir string) error {
	if !p.r.plainMR {
		return nil
	}
	sys, err := i2mr.New(i2mr.Options{WorkDir: filepath.Join(dir, "plain-mr")})
	if err != nil {
		return err
	}
	final := p.src.final()
	if err := sys.WritePairs("final", final); err != nil {
		return err
	}
	wc := apps.WordCountJob("plain-wc")
	t := time.Now()
	if _, err := sys.MapReduce(i2mr.Job{Name: wc.Name, Input: "final", Output: "plain-out", Mapper: wc.Mapper, Reducer: wc.Reducer}); err != nil {
		return err
	}
	res.set("mr.recompute_s", time.Since(t).Seconds(), 1)
	out, err := sys.ReadOutput("plain-out", probeNodes)
	if err != nil {
		return err
	}
	res.Attempted++
	if want := len(apps.OfflineWordCount(final)); len(out) != want {
		res.fail("plain MapReduce counted %d words, offline %d", len(out), want)
	}
	return nil
}

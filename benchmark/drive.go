package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
)

const (
	// setupRuns is how many times a run sets the system up; setup_s is
	// their median and the last one is measured.
	setupRuns = 5
	// readSLO is how long after it was due a read may complete.
	readSLO = 5 * time.Millisecond
	// appliedTimeout bounds the wait for one micro-batch to commit.
	appliedTimeout = 60 * time.Second
)

// runConfig is one run's arguments.
type runConfig struct {
	root     string
	seed     int64
	sz       sizes
	scale    string
	seconds  float64
	batches  int
	trace    bool
	spansOut string
}

// tally counts operations against failures. Operations are AddBatch
// calls, probe reads, open- and closed-loop reads, and oracle checks.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// phase is the state of one measured phase.
type phase struct {
	cfg runConfig
	r   *rig
	src source
	cl  client
	tally

	start     time.Time
	visible   samples
	acks      samples
	records   int
	deltaSize int64 // text-codec bytes of the delta records made visible
	times     []*batchTimes
	paths     []string // DFS delta file of each batch
	lastBatch []kv.Delta
	heapPeak  uint64

	// The closed loop's two parts: writing micro-batches and reading
	// between them, each with its wall time and resource use.
	writeWall, readWall time.Duration
	writeCost, readCost counters
	sliceReads          int

	read readerStats // the open-loop reader

	memBefore, memAfter runtime.MemStats
	dirBefore, dirAfter int64 // bytes under the work dir
	cacheHits           int64
	cacheReads          int64
}

// readerStats is what the open-loop reader saw.
type readerStats struct {
	tally
	lat  samples // from when the read was due to when it returned
	late samples // from when it was due to when it was sent
}

// runWorkload sets w up, measures it, checks it against the oracle,
// closes everything and returns the metrics.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	goroutines := runtime.NumGoroutine()
	res := newRunResult(w, cfg)
	// Everything the run writes lies under runDir and goes with it.
	runDir, err := os.MkdirTemp(cfg.root, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setups samples
	var r *rig
	for i := 0; i < setupRuns; i++ {
		e := &env{
			dir:  filepath.Join(runDir, fmt.Sprintf("setup-%d", i)),
			seed: cfg.seed, sz: cfg.sz, traced: cfg.trace,
		}
		t := time.Now()
		rg, err := w.setup(e)
		setups.addDur(time.Since(t))
		if err != nil {
			if rg != nil {
				rg.close() //nolint:errcheck // the set-up error is the one to report
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i == setupRuns-1 {
			r = rg
			break
		}
		// The extra set-ups' directories stay until the run ends: on a
		// file system mounted with discard, deleting them here would queue
		// trims that the measured phase's fsyncs then wait behind.
		if err := rg.close(); err != nil {
			return nil, fmt.Errorf("closing set-up %d: %w", i, err)
		}
	}
	// Set-up's dirty pages are written back before the clock starts, so
	// that the measured fsyncs pay for the measured writes only.
	syscall.Sync()
	closed := false
	defer func() {
		if !closed {
			r.close() //nolint:errcheck // an earlier error is already being returned
		}
	}()

	p := &phase{cfg: cfg, r: r, src: r.newSource(cfg.seed, r.input)}
	p.cl = directClient{ing: r.ing, srv: r.srv}
	if r.handler != nil {
		p.cl = httpClient{h: r.handler}
	}
	if err := p.measure(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Notes = p.attempted, p.failed, p.notes
	res.clientMetrics(p, setups)
	if err := res.oracle(p); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := res.layers(p); err != nil {
			return nil, err
		}
	}

	closed = true
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	// Every Close above waits for what it owns, so the count is back at
	// once; the short wait only covers goroutines that are between their
	// last statement and their exit.
	res.Attempted++
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			res.fail("goroutines: %d before set-up, %d after Close", goroutines, runtime.NumGoroutine())
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cfg.trace && cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, spanFile{Workload: w.name, Seed: cfg.seed, Spans: res.spans}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func deltaTextBytes(ds []kv.Delta) int64 {
	var n int64
	for _, d := range ds {
		n += int64(len(d.Key) + len(d.Value) + 4)
	}
	return n
}

// measure is the measured phase. The writer is a closed loop: one
// micro-batch at a time, the next only after the previous one is
// visible. After every batch, with the writer idle, it makes the
// workload's fixed count of closed-loop reads, so the reads are spread
// over every epoch and every position of the stores' compaction cycle
// instead of landing on whichever the run ends in, and the share of
// them that finds the block cache cold after the flip is the same in
// every run.
// The open-loop reader runs beside both.
func (p *phase) measure() error {
	r := p.r
	var err error
	if p.dirBefore, err = dirBytes(r.env.dir); err != nil {
		return err
	}
	runtime.ReadMemStats(&p.memBefore)
	statsBefore := r.srv.Stats()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	budget := time.Duration(p.cfg.seconds * float64(time.Second))
	// Which batches of a traced run keep spans is a coin toss, not an
	// alternation: compaction comes round every few refreshes and would
	// fall on one side only.
	coin := rand.New(rand.NewSource(p.cfg.seed + 300))
	keys := newReadKeys(p.cfg.seed+302, p.src)

	p.start = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	go p.reader(stop, done)
	// The reader always stops with the phase, whatever ends it.
	defer func() {
		close(stop)
		<-done
		p.tally.merge(p.read.tally)
		st := r.srv.Stats()
		p.cacheHits = st.CacheHits - statsBefore.CacheHits
		p.cacheReads = p.cacheHits + st.CacheMisses - statsBefore.CacheMisses
	}()

	for b := 0; ; b++ {
		if p.cfg.batches > 0 {
			if b == p.cfg.batches {
				break
			}
		} else if time.Since(p.start) >= budget {
			break
		}
		c0, err := takeCounters()
		if err != nil {
			return err
		}
		t0 := time.Now()
		bt := &batchTimes{id: b, traced: p.cfg.trace && coin.Intn(2) == 0}
		ds, err := p.writeBatch(bt)
		if err != nil {
			return err
		}
		c1, err := takeCounters()
		if err != nil {
			return err
		}
		t1 := time.Now()
		p.writeWall += t1.Sub(t0)
		p.writeCost.add(c1, c0)
		if p.cfg.trace {
			p.times = append(p.times, bt)
			p.lastBatch = ds
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > p.heapPeak {
				p.heapPeak = v
			}
		}

		p.readSlice(keys)
		c2, err := takeCounters()
		if err != nil {
			return err
		}
		p.readWall += time.Since(t1)
		p.readCost.add(c2, c1)
	}
	runtime.ReadMemStats(&p.memAfter)
	p.dirAfter, err = dirBytes(r.env.dir)
	return err
}

// writeBatch submits one micro-batch, waits until the ingester has
// committed it, reads a key it changed and checks the read against the
// model. Generating the batch and encoding the requests happen before
// the visible clock starts.
func (p *phase) writeBatch(bt *batchTimes) ([]kv.Delta, error) {
	r := p.r
	ds, pr := p.src.next()
	per := len(ds) / r.adds
	sends := make([]func() error, r.adds)
	for i := range sends {
		sends[i] = p.cl.prepare(ds[i*per : (i+1)*per])
	}
	r.cur = bt
	epoch := r.srv.Epoch()

	bt.t0 = time.Now()
	for _, send := range sends {
		t := time.Now()
		err := send()
		end := time.Now()
		p.attempted++
		if err != nil {
			p.fail("batch %d: ingest: %v", bt.id, err)
			return nil, fmt.Errorf("batch %d: ingest: %w", bt.id, err)
		}
		p.acks.addDur(end.Sub(t))
		bt.adds = append(bt.adds, [2]time.Time{t, end})
		bt.addEnd = end
	}
	var applied ingest.Batch
	select {
	case applied = <-r.applied:
	case <-time.After(appliedTimeout):
		return nil, fmt.Errorf("batch %d not applied after %s (ingester: %v)", bt.id, appliedTimeout, r.ing.Stats().Err)
	}
	value, found, got, err := p.cl.get(pr.key)
	bt.readEnd = time.Now()
	p.attempted++
	switch {
	case err != nil:
		p.fail("batch %d: probe read %q: %v", bt.id, pr.key, err)
	case got != epoch+1:
		p.fail("batch %d: probe read served from epoch %d, want %d", bt.id, got, epoch+1)
	case found != pr.found || (pr.value != "" && value != pr.value):
		p.fail("batch %d: probe read %q = (%q, %v), model says (%q, %v)", bt.id, pr.key, value, found, pr.value, pr.found)
	case applied.Records != len(ds):
		p.fail("batch %d: the cut took %d records, want %d", bt.id, applied.Records, len(ds))
	}
	p.visible.addDur(bt.readEnd.Sub(bt.t0))
	p.records += len(ds)
	p.deltaSize += deltaTextBytes(ds)
	p.paths = append(p.paths, applied.DeltaPath)
	return ds, nil
}

// readSlice is a closed loop of gets with the writer idle; every answer
// is checked against the model, which is still while the writer is.
func (p *phase) readSlice(keys *readKeys) {
	for n := 0; n < p.r.sliceReads; n++ {
		key := keys.next()
		value, found, _, err := p.cl.get(key)
		p.sliceReads++
		p.attempted++
		wantFound, want := p.src.expect(key)
		switch {
		case err != nil:
			p.fail("get %q: %v", key, err)
		case found != wantFound || (want != "" && value != want):
			p.fail("get %q = (%q, %v), model says (%q, %v)", key, value, found, want, wantFound)
		}
	}
}

// readKeys draws reads the way both readers do. Zipf s=1.1 over the key
// space: a few keys take most of the reads, the tail reaches every
// block.
type readKeys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	src  source
}

func newReadKeys(seed int64, src source) *readKeys {
	rng := rand.New(rand.NewSource(seed))
	return &readKeys{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(src.keySpace()-1)), src: src}
}

func (k *readKeys) next() string { return k.src.readKey(k.rng, k.zipf) }

// absentKey reports whether readKey drew key from outside the key space.
func absentKey(key string) bool { return key[0] == 'x' || key[0] == 'z' }

// reader is the open loop: read i is due at start + i/rate whatever the
// system is doing, is sent as soon after that as the generator gets to
// it, and is timed from when it was due. Nine reads in ten are a get,
// the tenth an mget where the workload has one. While the writer runs,
// the model changes under the reader, so it checks what cannot change:
// no error, and absent keys stay absent.
func (p *phase) reader(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	rs := &p.read
	keys := newReadKeys(p.cfg.seed+301, p.src)
	interval := time.Second / time.Duration(p.r.readRate)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		due := p.start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		rs.attempted++
		if p.r.mgetKeys > 0 && i%10 == 9 {
			ks := make([]string, p.r.mgetKeys)
			for j := range ks {
				ks[j] = keys.next()
			}
			found, _, err := p.cl.mget(ks)
			if err != nil {
				rs.fail("mget: %v", err)
			}
			for j, f := range found {
				if f && absentKey(ks[j]) {
					rs.fail("mget found absent key %q", ks[j])
				}
			}
		} else {
			key := keys.next()
			_, found, _, err := p.cl.get(key)
			if err != nil {
				rs.fail("get %q: %v", key, err)
			} else if found && absentKey(key) {
				rs.fail("get found absent key %q", key)
			}
		}
		end := time.Now()
		rs.lat.addDur(end.Sub(due))
		rs.late.addDur(sent.Sub(due))
	}
}

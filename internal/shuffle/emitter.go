package shuffle

import (
	"time"

	"i2mapreduce/internal/kv"
)

// Emitter stages one map task attempt's output privately and publishes
// it to the shared Buffer only when the attempt succeeds. The cluster
// retries failed task attempts, so a direct Buffer.Emit from a task
// body would leave a failed attempt's partial output visible and a
// successful retry would duplicate it; an Emitter's output is atomic
// per attempt: Publish on success, Discard on failure, never both
// halves. Spill counters and sort-stage time are likewise accounted
// only at Publish, so a discarded attempt leaves no trace in metrics.
//
// Staging honours the memory budget: the attempt's total staging is
// bounded by the Buffer's per-partition share, and on overflow the
// largest destination stage spills to that destination's scratch dir —
// so skewed output produces few large runs rather than many tiny ones.
// An Emitter is not safe for concurrent use (a task attempt is
// single-goroutine); distinct Emitters are independent.
type Emitter struct {
	b     *Buffer
	bufs  [][]kv.Pair
	bytes []int64
	runs  [][]string
	recs  []int64
	net   []int64
	total int64 // budget-charged bytes staged in memory across bufs
	err   error

	// Deferred spill accounting, applied at Publish.
	spillRuns  int64
	spillBytes int64
	spillDur   time.Duration
	spillReuse int64

	// Batched hot-key observations (when the Buffer has skew detection
	// on): per-key counts accumulate locally and flush into the stripe
	// sketches every emitterSketchBatch records, so the staged fast
	// path does not take a stripe lock per record. A discarded attempt
	// may have flushed counts already — detection is a heuristic and
	// tolerates that.
	skewCnt map[string]int64
	skewN   int64
}

// emitterSketchBatch is how many staged records accumulate before their
// hot-key counts flush into the shared stripe sketches.
const emitterSketchBatch = 128

// NewEmitter returns an empty staging emitter for one task attempt.
func (b *Buffer) NewEmitter() *Emitter {
	n := b.cfg.Partitions
	return &Emitter{
		b:     b,
		bufs:  make([][]kv.Pair, n),
		bytes: make([]int64, n),
		runs:  make([][]string, n),
		recs:  make([]int64, n),
		net:   make([]int64, n),
	}
}

// Emit stages one intermediate pair. I/O errors from staging spills are
// remembered and returned by Publish, so user Map functions keep their
// error-free emit signature.
func (e *Emitter) Emit(key, value string) {
	if e.err != nil {
		return
	}
	// As in Buffer.Emit, partitioning and byte accounting use the base
	// key; only the stored pair carries a sub-key when the key is hot.
	d := kv.Partition(key, e.b.cfg.Partitions)
	storeKey := key
	if e.b.skew != nil {
		storeKey = e.b.skew.route(key)
		if storeKey == key {
			if e.skewCnt == nil {
				e.skewCnt = make(map[string]int64)
			}
			e.skewCnt[key]++
			e.skewN++
			if e.skewN >= emitterSketchBatch {
				e.flushSkew()
			}
		}
	}
	e.bufs[d] = append(e.bufs[d], kv.Pair{Key: storeKey, Value: value})
	sz := int64(len(key) + len(value))
	e.recs[d]++
	e.net[d] += sz
	e.bytes[d] += sz + pairOverhead
	e.total += sz + pairOverhead
	if e.b.perPart > 0 && e.total > e.b.perPart {
		e.spillLargest()
	}
}

// spillLargest spills the destination stage holding the most bytes.
func (e *Emitter) spillLargest() {
	d := 0
	for i := range e.bytes {
		if e.bytes[i] > e.bytes[d] {
			d = i
		}
	}
	if len(e.bufs[d]) == 0 {
		return
	}
	path, n, dur, err := e.b.writeSpillRun(d, e.bufs[d])
	putRunBuffer(e.bufs[d])
	e.total -= e.bytes[d]
	var reused int64
	e.bufs[d], reused = getRunBuffer()
	e.bytes[d] = 0
	if err != nil {
		e.err = err
		return
	}
	e.runs[d] = append(e.runs[d], path)
	e.spillRuns++
	e.spillBytes += n
	e.spillDur += dur
	e.spillReuse += reused
}

// flushSkew merges the local hot-key counts into the stripe sketches,
// promoting keys that crossed the skew ratio.
func (e *Emitter) flushSkew() {
	for key, n := range e.skewCnt {
		d := kv.Partition(key, e.b.cfg.Partitions)
		p := &e.b.parts[d]
		p.mu.Lock()
		e.b.observeLocked(p, key, n)
		p.mu.Unlock()
	}
	e.skewCnt, e.skewN = nil, 0
}

// Publish atomically registers the staged output with the shared
// Buffer: spilled runs and residual pairs become visible to reducers,
// deferred spill accounting lands in the report, and stripes that
// overflow their share spill as usual. The Emitter is spent afterwards.
func (e *Emitter) Publish() error {
	if e.err != nil {
		e.Discard()
		return e.err
	}
	if e.b.skew != nil && e.skewN > 0 {
		e.flushSkew()
	}
	for d := range e.bufs {
		if len(e.bufs[d]) == 0 && len(e.runs[d]) == 0 {
			continue
		}
		p := &e.b.parts[d]
		p.mu.Lock()
		if p.sealed {
			p.mu.Unlock()
			panic("shuffle: Publish after FinishMap")
		}
		p.runs = append(p.runs, e.runs[d]...)
		p.pairs = append(p.pairs, e.bufs[d]...)
		p.bytes += e.bytes[d]
		p.recs += e.recs[d]
		p.netBytes += e.net[d]
		e.b.maybeSpillLocked(d, p) // releases p.mu
		putRunBuffer(e.bufs[d])    // staged contents now live in p.pairs
		e.bufs[d], e.runs[d] = nil, nil
	}
	e.b.accountSpills(e.spillRuns, e.spillBytes, e.spillDur, e.spillReuse)
	e.spillRuns, e.spillBytes, e.spillDur, e.spillReuse = 0, 0, 0, 0
	return nil
}

// Discard drops the staged output of a failed attempt, removing its
// spill files. The shared Buffer and the metrics are untouched.
func (e *Emitter) Discard() {
	for d := range e.runs {
		removeFiles(e.runs[d])
		e.runs[d], e.bufs[d] = nil, nil
	}
}

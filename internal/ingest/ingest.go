// Package ingest is the continuous streaming-ingestion pipeline over
// the refresh engines: an always-on front door that accepts individual
// delta records (Ingester.Add / AddBatch, plus POST /ingest in http.go),
// stages them durably in a WAL-style staging log (wal.go), and
// micro-batches them into engine.Refresher refreshes under a batching
// policy — converting the repo's hand-invoked batch refreshes into the
// paper's evolving-data story running end to end.
//
// # Watermarks and freshness
//
// Every accepted record gets a monotone ingest sequence number; the
// staging log makes it durable before Add returns. A background loop
// cuts the pending records into micro-batches when the policy fires
// (oldest pending record older than MaxLag, or MaxBatchRecords /
// MaxBatchBytes reached), writes each batch as a DFS delta file, and
// runs it through the configured Refresh function — normally bound to
// serve.Server.Refresh (BindServe) or the planner's RefreshPlanned
// (BindServePlanned) so reads stay on the pinned epoch throughout and
// flip atomically when the batch commits. The last sequence number of a
// committed batch becomes the applied watermark; the freshness lag is
// the age of the oldest record above it.
//
// # Crash recovery and exactly-once
//
// The commit order per batch is: delta file → batch.intent (recording
// the engine's durable CompletedJobs count) → refresh → ingest.meta
// watermark → intent unlink. Open replays the other side: staged
// records above the watermark are re-queued, and a surviving intent is
// resolved by asking the engine — if its completed-job count advanced
// past the recorded value the refresh committed (only the watermark
// commit was lost) and the records are marked applied; otherwise the
// batch never committed and its records are replayed. Either way each
// accepted record is applied exactly once.
//
// # Backpressure
//
// The staging depth (accepted-but-unapplied records/bytes) is bounded.
// At the bound, BlockOnFull makes Add wait for the loop to catch up;
// RejectOnFull fails fast with ErrBackpressure (HTTP 429), counting the
// rejection.
package ingest

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/plan"
	"i2mapreduce/internal/serve"
)

// ErrBackpressure is returned by Add/AddBatch in RejectOnFull mode when
// the staging depth is at its bound; the caller should retry later.
var ErrBackpressure = errors.New("ingest: staging log full (backpressure)")

// ErrClosed is returned by Add/AddBatch after Close or Kill.
var ErrClosed = errors.New("ingest: ingester is closed")

// errKilled latches the ingester after Kill.
var errKilled = errors.New("ingest: ingester was killed")

// Backpressure selects what Add does when the staging depth is at its
// bound.
type Backpressure int

const (
	// BlockOnFull makes Add wait until the micro-batch loop drains the
	// staging log below its bound (the default).
	BlockOnFull Backpressure = iota
	// RejectOnFull makes Add fail fast with ErrBackpressure, counting
	// the rejection ("ingest.rejected", HTTP 429).
	RejectOnFull
)

// Policy controls when the pending records are cut into a micro-batch.
// The zero value of each field selects its default.
type Policy struct {
	// MaxLag bounds freshness: a batch is cut when the oldest pending
	// record has been waiting this long. Default 2s.
	MaxLag time.Duration
	// MaxBatchRecords / MaxBatchBytes cut a batch early when enough
	// records (bytes) are pending, and bound how much one batch takes.
	// Defaults 10000 records / 4 MiB.
	MaxBatchRecords int
	MaxBatchBytes   int64
	// MinInterval spaces refreshes: a batch is never cut sooner than
	// this after the previous cut, whatever the other triggers say
	// (drain on Close and explicit Flush are exempt). Default 0.
	MinInterval time.Duration
}

// Policy defaults.
const (
	DefaultMaxLag           = 2 * time.Second
	DefaultMaxBatchRecords  = 10000
	DefaultMaxBatchBytes    = 4 << 20
	DefaultMaxStagedRecords = 100000
	DefaultMaxStagedBytes   = 64 << 20
	defaultRotateBytes      = 4 << 20
)

// Config configures an Ingester. Dir, Refresh, and WriteDeltas are
// required; everything else has working defaults.
type Config struct {
	// Dir hosts the durable staging log (WAL files, watermark, batch
	// intent). Created if missing.
	Dir string
	// Refresh applies one micro-batch: deltaInput is the DFS delta file
	// the batch was written to and records the batch size. output is
	// always empty — a served refresh is read from the engine's stores,
	// so the ingester asks for no DFS output (engine.Refresher). Bind it with BindServe / BindServePlanned
	// to run under the serving layer's epoch discipline. An error
	// latches the ingester (the engines latch themselves too).
	Refresh func(deltaInput, output string, records int64) error
	// WriteDeltas materializes a batch as a DFS delta file — normally
	// System.WriteDeltas or FS().WriteAllDeltas.
	WriteDeltas func(path string, ds []kv.Delta) error
	// AppliedJobs reports the engine's durable completed-job count
	// (incr.Runner.CompletedJobs / core.Runner.CompletedJobs). It must
	// advance by at least one per successful Refresh; recovery compares
	// it against the count recorded in a surviving batch intent to
	// decide committed-vs-replay. Nil disables the check: a surviving
	// intent is then always replayed, which is exactly-once only for
	// idempotent (fine-grain) refreshes.
	AppliedJobs func() int64
	// DeltaPathPrefix names the per-batch DFS delta files
	// ("<prefix>/batch-<id>"). Default "ingest".
	DeltaPathPrefix string
	// Policy is the micro-batching policy.
	Policy Policy
	// Backpressure selects block-or-reject at the staging bound.
	Backpressure Backpressure
	// MaxStagedRecords / MaxStagedBytes bound the staging depth
	// (accepted-but-unapplied records). Defaults 100000 / 64 MiB;
	// negative disables the bound.
	MaxStagedRecords int
	MaxStagedBytes   int64
	// RotateBytes caps one staging-log file; full files are deleted as
	// the watermark passes them. Default 4 MiB.
	RotateBytes int64
	// NoSync skips the per-Add fsync of the staging log, trading crash
	// durability of the most recent records for ingest throughput.
	NoSync bool
	// OnBatchApplied, when set, is called after each committed batch
	// (outside the ingester's lock) — observability for logs and the
	// bench harness.
	OnBatchApplied func(Batch)
}

// Batch describes one committed micro-batch for OnBatchApplied.
type Batch struct {
	// ID is the batch id (monotone across restarts); FirstSeq/LastSeq
	// the ingest sequence range it covered.
	ID       int64
	FirstSeq int64
	LastSeq  int64
	// Records / Bytes size the batch.
	Records int
	Bytes   int64
	// Oldest is the enqueue time of the batch's oldest record; Applied
	// the commit time — their difference is the batch's worst-case
	// freshness lag.
	Oldest  time.Time
	Applied time.Time
	// Wall is the refresh's wall-clock duration.
	Wall time.Duration
	// DeltaPath is the DFS delta file the batch was written to.
	DeltaPath string
}

// Stats is a point-in-time view of the ingester.
type Stats struct {
	// StagedSeq is the last accepted sequence number; AppliedSeq the
	// last-applied watermark.
	StagedSeq  int64
	AppliedSeq int64
	// PendingRecords / PendingBytes are the staging depth.
	PendingRecords int
	PendingBytes   int64
	// Records / Batches / Rejected / Replayed are cumulative: accepted
	// records, committed batches, backpressure rejections, and records
	// recovered from the staging log at Open.
	Records  int64
	Batches  int64
	Rejected int64
	Replayed int64
	// Lag is the freshness lag: the age of the oldest pending record
	// (0 when drained).
	Lag time.Duration
	// Err is the latched fatal error, nil while healthy.
	Err error
}

// Ingester is the streaming ingestion pipeline. Open recovers it from
// its staging directory, Start begins the micro-batch loop, Add/
// AddBatch accept records, Close drains and stops. Safe for concurrent
// use.
type Ingester struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond    // producers blocked on backpressure, Flush waiters
	wake chan struct{} // nudges the loop (capacity 1)

	pending      []walRecord // accepted, not yet applied (ordered by seq)
	pendingBytes int64
	nextSeq      int64 // next sequence number to assign
	applied      int64 // last applied watermark
	batchID      int64 // last committed batch id
	lastCut      time.Time
	flushTarget  int64

	walFile  *os.File
	walBytes int64

	started  bool
	closed   bool
	fatal    error
	loopDone chan struct{}

	records  int64
	batches  int64
	rejected int64
	replayed int64
}

// Open recovers an Ingester from cfg.Dir: staged records above the
// applied watermark are re-queued for refresh, and a surviving batch
// intent is resolved against the engine's completed-job count (see the
// package comment). The micro-batch loop is not running yet — call
// Start (records accepted before Start stay durably staged).
func Open(cfg Config) (*Ingester, error) {
	if cfg.Dir == "" {
		return nil, errors.New("ingest: Config.Dir is required")
	}
	if cfg.Refresh == nil {
		return nil, errors.New("ingest: Config.Refresh is required")
	}
	if cfg.WriteDeltas == nil {
		return nil, errors.New("ingest: Config.WriteDeltas is required")
	}
	if cfg.Policy.MaxLag == 0 {
		cfg.Policy.MaxLag = DefaultMaxLag
	}
	if cfg.Policy.MaxBatchRecords == 0 {
		cfg.Policy.MaxBatchRecords = DefaultMaxBatchRecords
	}
	if cfg.Policy.MaxBatchBytes == 0 {
		cfg.Policy.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.Policy.MaxLag < 0 || cfg.Policy.MaxBatchRecords < 0 || cfg.Policy.MaxBatchBytes < 0 || cfg.Policy.MinInterval < 0 {
		return nil, fmt.Errorf("ingest: negative policy values: %+v", cfg.Policy)
	}
	if cfg.MaxStagedRecords == 0 {
		cfg.MaxStagedRecords = DefaultMaxStagedRecords
	}
	if cfg.MaxStagedBytes == 0 {
		cfg.MaxStagedBytes = DefaultMaxStagedBytes
	}
	if cfg.RotateBytes <= 0 {
		cfg.RotateBytes = defaultRotateBytes
	}
	if cfg.DeltaPathPrefix == "" {
		cfg.DeltaPathPrefix = "ingest"
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	in := &Ingester{cfg: cfg, wake: make(chan struct{}, 1), loopDone: make(chan struct{})}
	in.cond = sync.NewCond(&in.mu)

	applied, batch, _, err := readMeta(cfg.Dir)
	if err != nil {
		return nil, err
	}
	in.applied, in.batchID = applied, batch

	// Resolve a surviving batch bracket: the previous process died
	// between writing the intent and committing the watermark — or
	// between the watermark and the unlink.
	intent, haveIntent, err := readIntent(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if haveIntent {
		if intent.id > in.batchID {
			// Never reuse the orphan's batch id: its delta file may
			// already exist in the DFS namespace.
			in.batchID = intent.id
		}
		if cfg.AppliedJobs != nil && intent.jobs >= 0 && cfg.AppliedJobs() > intent.jobs {
			// The refresh committed (the engine's durable job count
			// advanced past the recorded value); only the watermark
			// commit was lost. Roll it forward instead of replaying.
			if intent.last > in.applied {
				in.applied = intent.last
			}
			if err := writeMeta(cfg.Dir, in.applied, in.batchID); err != nil {
				return nil, err
			}
		}
		if err := removeIntent(cfg.Dir); err != nil {
			return nil, err
		}
	}

	pending, maxSeq, err := scanWAL(cfg.Dir, in.applied)
	if err != nil {
		return nil, err
	}
	in.pending = pending
	for _, rec := range pending {
		in.pendingBytes += rec.approxBytes()
	}
	in.nextSeq = maxSeq + 1
	in.replayed = int64(len(pending))
	if err := pruneWAL(cfg.Dir, in.applied); err != nil {
		return nil, err
	}
	return in, nil
}

// Start begins the micro-batch loop. Call it once, after any wiring
// (AttachTo, OnBatchApplied) is in place.
func (in *Ingester) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.started || in.closed || in.fatal != nil {
		return
	}
	in.started = true
	//i2vet:allow rawgo single long-lived micro-batch loop; lives until Close/Kill, not a bounded fan-out
	go in.loop()
}

// Add durably stages one delta record and returns its ingest sequence
// number. It blocks (BlockOnFull) or fails with ErrBackpressure
// (RejectOnFull) at the staging bound, and fails with ErrClosed after
// Close/Kill or the latched error after a refresh failure.
func (in *Ingester) Add(d kv.Delta) (int64, error) {
	first, _, err := in.AddBatch([]kv.Delta{d})
	return first, err
}

// AddBatch durably stages a group of delta records in one staging-log
// append (one fsync), returning the first and last assigned sequence
// numbers. The batch is admitted whole once the staging depth is below
// its bound, so a large batch may overshoot the bound.
func (in *Ingester) AddBatch(ds []kv.Delta) (first, last int64, err error) {
	if len(ds) == 0 {
		return 0, 0, errors.New("ingest: empty batch")
	}
	for _, d := range ds {
		if !d.Op.Valid() {
			return 0, 0, fmt.Errorf("ingest: invalid delta op %q", string(d.Op))
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if err := in.acceptErrLocked(); err != nil {
			return 0, 0, err
		}
		if !in.overBoundLocked() {
			break
		}
		if in.cfg.Backpressure == RejectOnFull {
			in.rejected += int64(len(ds))
			return 0, 0, ErrBackpressure
		}
		in.cond.Wait()
	}
	now := time.Now()
	recs := make([]walRecord, len(ds))
	var buf []byte
	for i, d := range ds {
		recs[i] = walRecord{seq: in.nextSeq + int64(i), enq: now, d: d}
		buf = appendWALRecord(buf, recs[i])
	}
	if err := in.appendLocked(buf); err != nil {
		// The staging log is no longer trustworthy (a torn append is
		// recoverable, but reusing its sequence numbers is not): latch.
		in.fatal = fmt.Errorf("ingest: staging log append: %w", err)
		in.cond.Broadcast()
		return 0, 0, in.fatal
	}
	first, last = recs[0].seq, recs[len(recs)-1].seq
	in.nextSeq = last + 1
	in.pending = append(in.pending, recs...)
	for _, rec := range recs {
		in.pendingBytes += rec.approxBytes()
	}
	in.records += int64(len(recs))
	in.wakeLoop()
	return first, last, nil
}

// acceptErrLocked is the gate every Add passes: the latched fatal
// error, or ErrClosed after Close/Kill.
func (in *Ingester) acceptErrLocked() error {
	if in.fatal != nil {
		if errors.Is(in.fatal, errKilled) {
			return ErrClosed
		}
		return in.fatal
	}
	if in.closed {
		return ErrClosed
	}
	return nil
}

// overBoundLocked reports whether the staging depth is at its bound.
func (in *Ingester) overBoundLocked() bool {
	if in.cfg.MaxStagedRecords > 0 && len(in.pending) >= in.cfg.MaxStagedRecords {
		return true
	}
	if in.cfg.MaxStagedBytes > 0 && in.pendingBytes >= in.cfg.MaxStagedBytes {
		return true
	}
	return false
}

// appendLocked writes one encoded append to the staging log, rotating
// the file at the size cap, and fsyncs unless NoSync.
func (in *Ingester) appendLocked(buf []byte) error {
	if in.walFile != nil && in.walBytes >= in.cfg.RotateBytes {
		if err := in.walFile.Close(); err != nil {
			return err
		}
		in.walFile = nil
	}
	if in.walFile == nil {
		path := walPath(in.cfg.Dir, in.nextSeq)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if err := fsutil.SyncDir(in.cfg.Dir); err != nil {
			f.Close()
			return err
		}
		in.walFile, in.walBytes = f, 0
	}
	if _, err := in.walFile.Write(buf); err != nil {
		return err
	}
	if !in.cfg.NoSync {
		if err := in.walFile.Sync(); err != nil {
			return err
		}
	}
	in.walBytes += int64(len(buf))
	return nil
}

// wakeLoop nudges the micro-batch loop without blocking.
func (in *Ingester) wakeLoop() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// loop is the micro-batch loop: wait for the policy to fire, cut a
// batch, apply it, commit the watermark — until drained-and-closed or
// a refresh error latches the ingester.
func (in *Ingester) loop() {
	defer close(in.loopDone)
	for {
		b, ok := in.nextBatch()
		if !ok {
			return
		}
		info, err := in.applyBatch(b)
		if err != nil {
			in.mu.Lock()
			in.fatal = err
			in.cond.Broadcast()
			in.mu.Unlock()
			return
		}
		in.completeBatch(b, info)
		if in.cfg.OnBatchApplied != nil {
			in.cfg.OnBatchApplied(info)
		}
	}
}

// cutBatch is one cut of pending records (a prefix of in.pending; the
// records stay in pending — and keep counting toward the staging depth
// and freshness lag — until the batch commits).
type cutBatch struct {
	id    int64
	recs  []walRecord
	bytes int64
}

// nextBatch blocks until the policy (or drain/flush) says a batch is
// due, then cuts it. ok=false when the loop should exit: closed and
// fully drained, killed, or latched.
func (in *Ingester) nextBatch() (cutBatch, bool) {
	for {
		in.mu.Lock()
		if in.fatal != nil {
			in.mu.Unlock()
			return cutBatch{}, false
		}
		if len(in.pending) == 0 {
			closed := in.closed
			in.mu.Unlock()
			if closed {
				return cutBatch{}, false
			}
			<-in.wake
			continue
		}
		now := time.Now()
		urgent := in.closed || in.flushTarget > in.applied
		due := in.pending[0].enq.Add(in.cfg.Policy.MaxLag)
		if urgent ||
			len(in.pending) >= in.cfg.Policy.MaxBatchRecords ||
			in.pendingBytes >= in.cfg.Policy.MaxBatchBytes {
			due = now
		}
		// MinInterval spaces policy-triggered refreshes; drain and
		// Flush bypass it.
		if !urgent && !in.lastCut.IsZero() {
			if e := in.lastCut.Add(in.cfg.Policy.MinInterval); due.Before(e) {
				due = e
			}
		}
		if !now.Before(due) {
			b := in.cutLocked()
			in.mu.Unlock()
			return b, true
		}
		wait := due.Sub(now)
		in.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-in.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// cutLocked takes the next batch off the front of pending, bounded by
// MaxBatchRecords and MaxBatchBytes (always at least one record).
func (in *Ingester) cutLocked() cutBatch {
	k, bytes := 0, int64(0)
	for k < len(in.pending) && k < in.cfg.Policy.MaxBatchRecords {
		rb := in.pending[k].approxBytes()
		if k > 0 && bytes+rb > in.cfg.Policy.MaxBatchBytes {
			break
		}
		bytes += rb
		k++
	}
	in.lastCut = time.Now()
	return cutBatch{id: in.batchID + 1, recs: in.pending[:k], bytes: bytes}
}

// applyBatch runs one batch through the commit protocol: delta file →
// intent (with the engine's jobs-before count) → refresh → watermark →
// intent unlink → staging-log prune.
func (in *Ingester) applyBatch(b cutBatch) (Batch, error) {
	deltas := make([]kv.Delta, len(b.recs))
	for i, rec := range b.recs {
		deltas[i] = rec.d
	}
	first, last := b.recs[0].seq, b.recs[len(b.recs)-1].seq
	path := fmt.Sprintf("%s/batch-%08d", in.cfg.DeltaPathPrefix, b.id)
	if err := in.cfg.WriteDeltas(path, deltas); err != nil {
		return Batch{}, fmt.Errorf("ingest: writing batch delta file: %w", err)
	}
	jobs := int64(-1)
	if in.cfg.AppliedJobs != nil {
		jobs = in.cfg.AppliedJobs()
	}
	if err := writeIntent(in.cfg.Dir, batchIntent{id: b.id, first: first, last: last, jobs: jobs, delta: path}); err != nil {
		return Batch{}, err
	}
	t := time.Now()
	if err := in.cfg.Refresh(path, "", int64(len(deltas))); err != nil {
		// The intent stays on disk: recovery consults the engine's
		// completed-job count to decide committed-vs-replay.
		return Batch{}, fmt.Errorf("ingest: refresh of batch %d (seq %d-%d): %w", b.id, first, last, err)
	}
	wall := time.Since(t)
	if err := writeMeta(in.cfg.Dir, last, b.id); err != nil {
		return Batch{}, err
	}
	if err := removeIntent(in.cfg.Dir); err != nil {
		return Batch{}, err
	}
	if err := pruneWAL(in.cfg.Dir, last); err != nil {
		return Batch{}, err
	}
	return Batch{
		ID: b.id, FirstSeq: first, LastSeq: last,
		Records: len(b.recs), Bytes: b.bytes,
		Oldest: b.recs[0].enq, Applied: time.Now(), Wall: wall,
		DeltaPath: path,
	}, nil
}

// completeBatch advances the in-memory watermark and releases the
// batch's records (unblocking backpressured producers and Flush).
func (in *Ingester) completeBatch(b cutBatch, info Batch) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.pending = in.pending[len(b.recs):]
	in.pendingBytes -= b.bytes
	in.applied = info.LastSeq
	in.batchID = info.ID
	in.batches++
	in.cond.Broadcast()
}

// Flush forces everything accepted so far through refreshes and waits
// until it is applied (or the ingester latches). Requires Start.
func (in *Ingester) Flush() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.started {
		return errors.New("ingest: Flush before Start")
	}
	target := in.nextSeq - 1
	if target > in.flushTarget {
		in.flushTarget = target
	}
	in.wakeLoop()
	for in.applied < target && in.fatal == nil {
		in.cond.Wait()
	}
	return in.fatal
}

// Close drains gracefully: no new records are accepted, everything
// already staged is applied through refreshes, then the loop stops and
// the staging log is closed. Returns the latched error if the drain
// failed (the unapplied records stay durably staged for the next Open).
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		<-in.loopDone
		return nil
	}
	in.closed = true
	started := in.started
	if !started {
		close(in.loopDone)
	}
	in.cond.Broadcast()
	in.wakeLoop()
	in.mu.Unlock()
	if started {
		<-in.loopDone
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.walFile != nil {
		//i2vet:allow errclose staging-log appends fsync before Add returns; nothing is left to flush at shutdown
		in.walFile.Close()
		in.walFile = nil
	}
	if in.fatal != nil && !errors.Is(in.fatal, errKilled) {
		return in.fatal
	}
	return nil
}

// Kill abandons the ingester without draining — the crash-path twin of
// Close, used by tests and hard shutdowns. Staged-but-unapplied records
// stay durably in the staging log; a later Open replays them. An
// in-flight batch refresh finishes first (its commit is durable either
// way).
func (in *Ingester) Kill() {
	in.mu.Lock()
	if in.fatal == nil {
		in.fatal = errKilled
	}
	started, closed := in.started, in.closed
	if !started && !closed {
		close(in.loopDone)
		in.closed = true
	}
	in.cond.Broadcast()
	in.wakeLoop()
	in.mu.Unlock()
	<-in.loopDone
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.walFile != nil {
		//i2vet:allow errclose Kill is the crash-path twin of Close; staged records are already fsynced and will replay
		in.walFile.Close()
		in.walFile = nil
	}
}

// Stats returns the ingester's current watermarks and counters.
func (in *Ingester) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := Stats{
		StagedSeq:      in.nextSeq - 1,
		AppliedSeq:     in.applied,
		PendingRecords: len(in.pending),
		PendingBytes:   in.pendingBytes,
		Records:        in.records,
		Batches:        in.batches,
		Rejected:       in.rejected,
		Replayed:       in.replayed,
	}
	if len(in.pending) > 0 {
		st.Lag = time.Since(in.pending[0].enq)
	}
	if in.fatal != nil && !errors.Is(in.fatal, errKilled) {
		st.Err = in.fatal
	}
	return st
}

// Freshness shapes the ingester's stats as the serving layer's
// freshness view.
func (in *Ingester) Freshness() serve.Freshness {
	st := in.Stats()
	return serve.Freshness{
		StagedSeq:      st.StagedSeq,
		AppliedSeq:     st.AppliedSeq,
		PendingRecords: int64(st.PendingRecords),
		PendingBytes:   st.PendingBytes,
		Records:        st.Records,
		Batches:        st.Batches,
		Rejected:       st.Rejected,
		Replayed:       st.Replayed,
		LagNS:          st.Lag.Nanoseconds(),
	}
}

// AttachTo surfaces the ingester's watermark/freshness view in the
// server's /stats.
func (in *Ingester) AttachTo(srv *serve.Server) {
	srv.AttachFreshness(in.Freshness)
}

// AddTo records the ingester's counters into a metrics report under
// the shared counter names.
func (in *Ingester) AddTo(rep *metrics.Report) {
	st := in.Stats()
	rep.Add(metrics.CounterIngestRecords, st.Records)
	rep.Add(metrics.CounterIngestBatches, st.Batches)
	rep.Add(metrics.CounterIngestRejected, st.Rejected)
	rep.Add(metrics.CounterIngestReplayed, st.Replayed)
	rep.Add(metrics.CounterFreshnessLagNS, st.Lag.Nanoseconds())
}

// BindServe returns a Config.Refresh that runs the refresher under the
// server's epoch discipline: readers stay on the pinned epoch for the
// whole refresh and flip atomically when the batch commits.
func BindServe(srv *serve.Server, r engine.Refresher) func(deltaInput, output string, records int64) error {
	return func(deltaInput, output string, _ int64) error {
		return srv.Refresh(func() error {
			_, err := r.Refresh(deltaInput, output)
			return err
		})
	}
}

// BindServePlanned returns a Config.Refresh that dispatches each batch
// through the cost-aware planner (serve.Server.RefreshPlanned): the
// planner picks the mode per batch, the epoch flips on commit, and the
// observed cost folds back into the ledger. Note the planner's
// recompute arm must also advance the Config.AppliedJobs count for the
// intent-recovery check to stay sound (engine-backed arms do; a bare
// engine.Func arm needs its own counting).
func BindServePlanned(srv *serve.Server, a *plan.Auto) func(deltaInput, output string, records int64) error {
	return func(deltaInput, output string, records int64) error {
		_, _, err := srv.RefreshPlanned(a, deltaInput, output, records)
		return err
	}
}

package results

// Background compaction scheduler: moves threshold compaction off the
// checkpoint critical path. A Store with a Scheduler attached no longer
// compacts inline during Checkpoint — a refresh pays only the memtable
// flush and the manifest commit — and instead notifies the scheduler,
// whose bounded workers run the snapshot-isolated Compact when the
// store's segment count crosses its threshold. Engines bracket
// refreshes with Pause/Resume so a compaction merge never competes with
// refresh I/O, and Close shuts the workers down cleanly before the
// stores themselves close. The engines hand it their MRBG-Stores too
// (mrbg.ShardedStore, whose trigger is file bytes over live bytes): the
// scheduler knows a store only as a Compactable.
//
// Crash consistency is unchanged: Compact commits its manifest before
// deleting folded segments, exactly as the inline path did, so a crash
// at any point leaves either the old manifest (new segment swept as an
// orphan on Open) or the new one. Deferring compaction only ever leaves
// *more* segments on disk, never fewer.

import (
	"sync"
	"sync/atomic"
)

// SchedulerOptions configures a Scheduler.
type SchedulerOptions struct {
	// Workers bounds how many compactions run concurrently. <= 0 means 2
	// (compaction is heavyweight sequential I/O; a small bound keeps it
	// from competing with itself).
	Workers int
}

// Compactable is a store the scheduler can compact: CompactDue is the
// store's own trigger, cheap enough to ask on every notification, and
// Compact must be safe to run beside the store's readers.
type Compactable interface {
	CompactDue() bool
	Compact() error
}

// Scheduler runs store compactions on background workers. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// engine code can hold one optional pointer and call it unconditionally.
type Scheduler struct {
	opts SchedulerOptions

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []Compactable
	pending  map[Compactable]bool // dedup: stores currently in queue
	inflight int
	paused   bool
	closed   bool
	firstErr error
	wg       sync.WaitGroup

	runs  atomic.Int64
	fails atomic.Int64
}

// NewScheduler starts the workers.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	s := &Scheduler{opts: opts, pending: make(map[Compactable]bool)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		//i2vet:allow rawgo long-lived compaction worker pool bounded by Workers, not a per-partition fan-out
		go s.worker()
	}
	return s
}

// Notify tells the scheduler st's shape may have changed (a Checkpoint
// flushed a segment, a refresh appended a batch). The store is enqueued
// if its compaction trigger has fired and it is not already queued;
// workers re-check the trigger at pickup, so spurious notifications are
// cheap.
func (s *Scheduler) Notify(st Compactable) {
	if s == nil || !st.CompactDue() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.pending[st] {
		return
	}
	s.pending[st] = true
	s.queue = append(s.queue, st)
	s.cond.Broadcast()
}

// Offer is Notify for a store that does not notify for itself: the
// engines call it on each MRBG-Store once a refresh has committed. On a
// nil Scheduler — compaction is inline — it runs the due compaction
// here, so the call site is the same in both modes.
func (s *Scheduler) Offer(st Compactable) error {
	if s != nil {
		s.Notify(st)
		return nil
	}
	if !st.CompactDue() {
		return nil
	}
	return st.Compact()
}

// Pause stops workers from starting new compactions and waits out any
// in flight — the refresh barrier: once Pause returns, no background
// compaction I/O runs until Resume. Notifications still enqueue.
func (s *Scheduler) Pause() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = true
	for s.inflight > 0 {
		s.cond.Wait()
	}
}

// Resume lets workers drain the queue again.
func (s *Scheduler) Resume() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
	s.cond.Broadcast()
}

// Close shuts the workers down and waits for them: any compaction in
// flight finishes (its store must stay open under it), queued-but-not-
// started work is dropped — the segments just stay on disk, to be
// compacted by a later run. Returns the first background compaction
// error, if any. Idempotent.
func (s *Scheduler) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// QueueDepth is the number of stores enqueued or being compacted right
// now — the "compact.queue.depth" gauge.
func (s *Scheduler) QueueDepth() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.queue) + s.inflight)
}

// Runs is the cumulative count of compactions the workers completed —
// the "compact.bg.runs" counter.
func (s *Scheduler) Runs() int64 {
	if s == nil {
		return 0
	}
	return s.runs.Load()
}

// Failures is the cumulative count of background compactions that
// returned an error (the first error is also returned by Close).
func (s *Scheduler) Failures() int64 {
	if s == nil {
		return 0
	}
	return s.fails.Load()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && (s.paused || len(s.queue) == 0) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		st := s.queue[0]
		s.queue = s.queue[1:]
		delete(s.pending, st)
		s.inflight++
		s.mu.Unlock()

		// Re-check at pickup: the trigger may have been satisfied by a
		// compaction that ran between Notify and now.
		if st.CompactDue() {
			if err := st.Compact(); err != nil {
				s.fails.Add(1)
				s.mu.Lock()
				if s.firstErr == nil {
					s.firstErr = err
				}
				s.mu.Unlock()
			} else {
				s.runs.Add(1)
			}
		}

		s.mu.Lock()
		s.inflight--
		if s.inflight == 0 {
			s.cond.Broadcast() // wake a Pause waiting out the barrier
		}
		s.mu.Unlock()
	}
}

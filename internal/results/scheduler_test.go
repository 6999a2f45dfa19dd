package results

// Race coverage for the background compaction scheduler: bounded
// workers run snapshot-isolated compactions while concurrent readers
// hold snapshots over the same segments and a simulated refresh keeps
// checkpointing new segments behind the Pause/Resume barrier. Run with
// -race (CI's full-module race job does).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"i2mapreduce/internal/kv"
)

// drainScheduler waits (bounded) for the scheduler's queue to empty.
func drainScheduler(t *testing.T, sched *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sched.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler queue did not drain (depth=%d)", sched.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerCompactsWhenDue covers the basic contract: a store with
// a scheduler attached stops compacting inline during Checkpoint, and
// the background worker folds the segments once notified.
func TestSchedulerCompactsWhenDue(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	defer s.Close()
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Close()
	s.AttachScheduler(sched)

	for i := 0; i < 4; i++ {
		s.Set(fmt.Sprintf("k%d", i), []kv.Pair{{Key: "x", Value: fmt.Sprintf("%d", i)}})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	drainScheduler(t, sched)
	if sched.Runs() == 0 {
		t.Fatal("background compaction never ran despite segments over threshold")
	}
	if sched.Failures() != 0 {
		t.Fatalf("background compaction failures = %d", sched.Failures())
	}
	if got := len(segFiles(t, dir)); got != 1 {
		t.Fatalf("segment files after background compaction = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		ps, ok, err := s.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || ps[0].Value != fmt.Sprintf("%d", i) {
			t.Fatalf("Get(k%d) after background compaction = %v %v %v", i, ps, ok, err)
		}
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	// All methods are no-ops on a nil receiver: engines hold an optional
	// pointer and call unconditionally.
	var nilSched *Scheduler
	nilSched.Notify(s)
	nilSched.Pause()
	nilSched.Resume()
	if nilSched.QueueDepth() != 0 || nilSched.Runs() != 0 || nilSched.Failures() != 0 || nilSched.Close() != nil {
		t.Fatal("nil scheduler methods are not no-ops")
	}
}

// TestSchedulerBackgroundCompactionUnderConcurrentReaders is the race
// test: snapshot readers iterate and point-read continuously while a
// live refresh loop mutates, checkpoints (enqueueing compactions), and
// brackets itself with the Pause/Resume barrier — background workers
// compact in the gaps. Every byte read must be a value some completed
// round wrote, and the final contents must match the last round.
func TestSchedulerBackgroundCompactionUnderConcurrentReaders(t *testing.T) {
	const groups = 24
	const rounds = 10

	s := mustOpen(t, t.TempDir(), 2)
	defer s.Close()
	sched := NewScheduler(SchedulerOptions{Workers: 2})
	defer sched.Close()
	s.AttachScheduler(sched)

	key := func(i int) string { return fmt.Sprintf("g%03d", i) }
	writeRound := func(round int) {
		for i := 0; i < groups; i++ {
			s.Set(key(i), []kv.Pair{{Key: key(i), Value: fmt.Sprintf("r%d", round)}})
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	writeRound(0)

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				// A snapshot is a point-in-time view. The writer Sets the
				// round's groups one key at a time in ascending key order
				// (the store promises per-key atomicity, not cross-key
				// transactions — round-atomic visibility is the serving
				// layer's epoch flip), so a capture mid-round must see the
				// new round on a prefix of the key order and the previous
				// round on the rest: every group present, at most two
				// rounds visible, adjacent, never interleaved. Anything
				// else — a missing group, a stale third round, r10 after
				// r9 in key order — is a torn capture.
				var rs []int
				err := sn.AllGroups(func(k string, ps []kv.Pair) error {
					var r int
					if _, serr := fmt.Sscanf(ps[0].Value, "r%d", &r); serr != nil {
						return fmt.Errorf("group %s has malformed value %q", k, ps[0].Value)
					}
					rs = append(rs, r)
					return nil
				})
				if err == nil && len(rs) != groups {
					err = fmt.Errorf("torn snapshot: %d groups, want %d", len(rs), groups)
				}
				if err == nil {
					for i := 1; i < len(rs); i++ {
						if d := rs[i-1] - rs[i]; d != 0 && d != 1 {
							err = fmt.Errorf("torn snapshot: rounds %v not a point-in-time prefix", rs)
							break
						}
					}
					if err == nil && rs[0]-rs[len(rs)-1] > 1 {
						err = fmt.Errorf("torn snapshot: rounds %v span more than two rounds", rs)
					}
				}
				if err == nil {
					if _, ok, getErr := sn.Get(key(0)); getErr != nil || !ok {
						err = fmt.Errorf("snapshot Get(%s) = %v %v", key(0), ok, getErr)
					}
				}
				sn.Close()
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}

	for round := 1; round <= rounds; round++ {
		// The refresh barrier: no compaction I/O while the "refresh"
		// mutates and checkpoints; notifications still enqueue.
		sched.Pause()
		writeRound(round)
		sched.Resume()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	drainScheduler(t, sched)
	if sched.Runs() == 0 {
		t.Fatal("background compaction never ran across the refresh loop")
	}
	if sched.Failures() != 0 {
		t.Fatalf("background compaction failures = %d", sched.Failures())
	}
	for i := 0; i < groups; i++ {
		ps, ok, err := s.Get(key(i))
		if err != nil || !ok || ps[0].Value != fmt.Sprintf("r%d", rounds) {
			t.Fatalf("final Get(%s) = %v %v %v, want r%d", key(i), ps, ok, err, rounds)
		}
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerPauseBarrier asserts Pause waits out an in-flight
// compaction and blocks new ones until Resume.
func TestSchedulerPauseBarrier(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	defer s.Close()
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Close()
	s.AttachScheduler(sched)

	sched.Pause()
	for i := 0; i < 4; i++ {
		s.Set(fmt.Sprintf("k%d", i), []kv.Pair{{Key: "x", Value: "v"}})
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Paused: the notification is queued but no compaction ran.
	if sched.QueueDepth() == 0 {
		t.Fatal("notification not queued while paused")
	}
	time.Sleep(10 * time.Millisecond)
	if sched.Runs() != 0 {
		t.Fatal("compaction ran while paused")
	}
	sched.Resume()
	drainScheduler(t, sched)
	if sched.Runs() == 0 {
		t.Fatal("compaction did not run after Resume")
	}
	// Pause returns only once in-flight work is out: afterwards the
	// segment shape is stable.
	sched.Pause()
	before := len(segFiles(t, dir))
	time.Sleep(5 * time.Millisecond)
	if got := len(segFiles(t, dir)); got != before {
		t.Fatalf("segment files changed under the pause barrier: %d -> %d", before, got)
	}
	sched.Resume()
}

// fakeCompactable is a store of another kind (the engines offer their
// MRBG-Stores): due until compacted, counting the compactions.
type fakeCompactable struct {
	mu   sync.Mutex
	due  bool
	runs int
}

func (f *fakeCompactable) CompactDue() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.due
}

func (f *fakeCompactable) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.due = false
	f.runs++
	return nil
}

// TestSchedulerOffer: the scheduler compacts any Compactable, and
// Offer is the one call site for both modes — queued behind the Pause
// barrier with a scheduler, run on the spot on a nil one, and nothing
// either way for a store that is not due.
func TestSchedulerOffer(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Close()
	st := &fakeCompactable{due: true}
	sched.Pause()
	if err := sched.Offer(st); err != nil {
		t.Fatal(err)
	}
	if err := sched.Offer(st); err != nil { // a second offer does not queue twice
		t.Fatal(err)
	}
	if sched.QueueDepth() != 1 || st.runs != 0 {
		t.Fatalf("paused: queue depth %d, %d compactions; want 1 queued, none run", sched.QueueDepth(), st.runs)
	}
	sched.Resume()
	drainScheduler(t, sched)
	if st.runs != 1 || sched.Runs() != 1 {
		t.Fatalf("after resume: %d compactions, scheduler counted %d; want 1", st.runs, sched.Runs())
	}
	if err := sched.Offer(st); err != nil || sched.QueueDepth() != 0 {
		t.Fatalf("a store not due was queued (depth %d, err %v)", sched.QueueDepth(), err)
	}

	var inline *Scheduler
	st = &fakeCompactable{due: true}
	for i := 0; i < 2; i++ { // the second finds nothing due
		if err := inline.Offer(st); err != nil {
			t.Fatal(err)
		}
	}
	if st.runs != 1 {
		t.Fatalf("nil scheduler ran %d compactions for one due store", st.runs)
	}
}

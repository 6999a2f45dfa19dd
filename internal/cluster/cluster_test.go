package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.ScratchRoot == "" {
		cfg.ScratchRoot = t.TempDir()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRequiresScratchRoot(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without scratch root succeeded")
	}
}

func TestDefaultsAndScratchDirs(t *testing.T) {
	c := newCluster(t, Config{Nodes: 3})
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.Slots() != 2 {
		t.Fatalf("Slots = %d", c.Slots())
	}
	// Partitions 0..2 live on nodes 0..2, each with its own scratch dir;
	// partition 3 wraps around to node 0.
	seen := map[string]bool{}
	for p := 0; p < 3; p++ {
		dir := c.PartitionDir(p)
		if dir == "" || seen[dir] {
			t.Fatalf("node %d scratch dir %q duplicated or empty", p, dir)
		}
		seen[dir] = true
	}
	if c.PartitionDir(3) != c.PartitionDir(0) {
		t.Fatalf("partition 3 on %q, want node 0's %q", c.PartitionDir(3), c.PartitionDir(0))
	}
	if got := c.PartitionNodes(4); !reflect.DeepEqual(got, []int{0, 1, 2, 0}) {
		t.Fatalf("PartitionNodes(4) = %v", got)
	}
	if c.LocalTo(nil) != -1 || c.LocalTo([]int{5, 1}) != 2 {
		t.Fatalf("LocalTo = %d / %d, want -1 / 2", c.LocalTo(nil), c.LocalTo([]int{5, 1}))
	}
	if got := SafeName("a b/c:é-_Z9"); got != "a_b_c__-_Z9" {
		t.Fatalf("SafeName = %q", got)
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	c := newCluster(t, Config{Nodes: 4, SlotsPerNode: 2})
	var count atomic.Int64
	var tasks []Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, Task{
			Name:      fmt.Sprintf("t%02d", i),
			Preferred: -1,
			Run: func(tc TaskContext) error {
				count.Add(1)
				return nil
			},
		})
	}
	events, err := c.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", count.Load())
	}
	if len(events) != 50 {
		t.Fatalf("%d events, want 50", len(events))
	}
}

func TestLocalityPreferenceHonoured(t *testing.T) {
	c := newCluster(t, Config{Nodes: 3, SlotsPerNode: 1})
	var mu sync.Mutex
	ranOn := map[string]int{}
	var tasks []Task
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("t%d", i)
		pref := i % 3
		tasks = append(tasks, Task{
			Name:      name,
			Preferred: pref,
			Run: func(tc TaskContext) error {
				mu.Lock()
				ranOn[name] = tc.Node.ID
				mu.Unlock()
				return nil
			},
		})
	}
	if _, err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("t%d", i)
		if ranOn[name] != i%3 {
			t.Errorf("task %s ran on node %d, preferred %d", name, ranOn[name], i%3)
		}
	}
}

func TestSlotLimitRespected(t *testing.T) {
	c := newCluster(t, Config{Nodes: 1, SlotsPerNode: 2})
	var cur, peak atomic.Int64
	var tasks []Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{
			Name:      fmt.Sprintf("t%d", i),
			Preferred: 0,
			Run: func(tc TaskContext) error {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return nil
			},
		})
	}
	if _, err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds 2 slots", p)
	}
}

func TestTaskErrorRetriesThenSucceeds(t *testing.T) {
	c := newCluster(t, Config{Nodes: 1, MaxAttempts: 3})
	var attempts atomic.Int64
	tasks := []Task{{
		Name:      "flaky",
		Preferred: -1,
		Run: func(tc TaskContext) error {
			if attempts.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		},
	}}
	events, err := c.Run(tasks)
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
	failed := 0
	for _, e := range events {
		if e.Failed {
			failed++
			if e.Injected {
				t.Error("real failure marked Injected")
			}
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed events, want 2", failed)
	}
}

func TestTaskExhaustsAttempts(t *testing.T) {
	c := newCluster(t, Config{Nodes: 1, MaxAttempts: 2})
	tasks := []Task{{
		Name:      "doomed",
		Preferred: -1,
		Run:       func(tc TaskContext) error { return errors.New("always") },
	}}
	events, err := c.Run(tasks)
	if err == nil {
		t.Fatal("Run with always-failing task succeeded")
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
}

func TestInjectedFailureRetriesSameNode(t *testing.T) {
	c := newCluster(t, Config{Nodes: 2, MaxAttempts: 3})
	c.InjectFailure(Failure{Task: "m", Attempt: 1})
	var nodes []int
	var mu sync.Mutex
	tasks := []Task{{
		Name:      "m",
		Preferred: 1,
		Run: func(tc TaskContext) error {
			mu.Lock()
			nodes = append(nodes, tc.Node.ID)
			mu.Unlock()
			return nil
		},
	}}
	events, err := c.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 injected (Run not called); attempt 2 runs on same node.
	if len(nodes) != 1 || nodes[0] != 1 {
		t.Fatalf("task ran on nodes %v, want [1]", nodes)
	}
	if !events[0].Failed || !events[0].Injected {
		t.Fatalf("first event = %+v, want injected failure", events[0])
	}
	if events[1].Node != 1 || events[1].Failed {
		t.Fatalf("second event = %+v", events[1])
	}
}

func TestDownNodeForcesMigration(t *testing.T) {
	c := newCluster(t, Config{Nodes: 2, MaxAttempts: 3})
	c.InjectFailure(Failure{Task: "m", Attempt: 1, DownNode: true})
	var mu sync.Mutex
	var ranNode = -1
	tasks := []Task{{
		Name:      "m",
		Preferred: 0,
		Run: func(tc TaskContext) error {
			mu.Lock()
			ranNode = tc.Node.ID
			mu.Unlock()
			return nil
		},
	}}
	if _, err := c.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if ranNode != 1 {
		t.Fatalf("retry ran on node %d, want 1 (node 0 down)", ranNode)
	}
	c.ResetFailures()
	if c.isDown(0) {
		t.Fatal("node still down after ResetFailures")
	}
}

func TestAllNodesDown(t *testing.T) {
	c := newCluster(t, Config{Nodes: 1, MaxAttempts: 3})
	c.InjectFailure(Failure{Task: "m", Attempt: 1, DownNode: true})
	tasks := []Task{{
		Name:      "m",
		Preferred: 0,
		Run:       func(tc TaskContext) error { return nil },
	}}
	if _, err := c.Run(tasks); err == nil {
		t.Fatal("Run with all nodes down succeeded")
	}
}

func TestTimelineSortedAndDurationsSane(t *testing.T) {
	c := newCluster(t, Config{Nodes: 2, SlotsPerNode: 2})
	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, Task{
			Name:      fmt.Sprintf("t%d", i),
			Preferred: -1,
			Run: func(tc TaskContext) error {
				time.Sleep(time.Millisecond)
				return nil
			},
		})
	}
	events, err := c.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.End < e.Start {
			t.Fatalf("event %d ends before it starts: %+v", i, e)
		}
		if i > 0 && events[i].Start < events[i-1].Start {
			t.Fatal("timeline not sorted by start")
		}
	}
}

func TestInjectedFailureDelayShowsInTimeline(t *testing.T) {
	c := newCluster(t, Config{Nodes: 1, MaxAttempts: 2})
	c.InjectFailure(Failure{Task: "slow", Attempt: 1, Delay: 10 * time.Millisecond})
	tasks := []Task{{
		Name:      "slow",
		Preferred: -1,
		Run:       func(tc TaskContext) error { return nil },
	}}
	events, err := c.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if d := events[0].End - events[0].Start; d < 10*time.Millisecond {
		t.Fatalf("injected failure ran for %v, want >= 10ms", d)
	}
}

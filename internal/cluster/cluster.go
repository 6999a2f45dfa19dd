// Package cluster simulates the worker cluster a Hadoop deployment
// provides: a set of nodes, each with a real on-disk scratch directory
// and a bounded number of task slots, plus the JobTracker-style
// scheduling, retry, and failure-recovery behaviour the paper relies on
// in Sec. 6 (fault tolerance) and Sec. 8.8 (Fig. 13).
//
// Tasks are closures. The scheduler assigns each task to its preferred
// node when one is given (data locality), runs tasks concurrently
// within per-node slot limits, retries failed attempts, and records a
// timeline of attempts that the Fig. 13 harness renders.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Node is one simulated worker machine.
type Node struct {
	// ID is the node's index in the cluster.
	ID int
	// ScratchDir is a real directory for node-local files (shuffle
	// spills, MRBGraph files, cached structure data).
	ScratchDir string

	down bool // set by failure injection; guarded by the cluster mutex
}

// Config configures a simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes. Defaults to 1.
	Nodes int
	// SlotsPerNode is the number of concurrently running tasks per
	// node. Defaults to 2, matching the paper's m1.medium (2 ECUs).
	SlotsPerNode int
	// ScratchRoot is the directory under which per-node scratch dirs
	// are created. Required.
	ScratchRoot string
	// MaxAttempts is the number of attempts per task before the job
	// fails. Defaults to 4 (Hadoop's default).
	MaxAttempts int
}

// Failure is an injected fault: attempt Attempt (1-based) of the named
// task fails after running for Delay. If DownNode is true the failure
// also marks the node down, forcing the retry to a different healthy
// node — the paper's "worker fails" case (iii) in Sec. 6.1.
type Failure struct {
	Task     string
	Attempt  int
	Delay    time.Duration
	DownNode bool
}

// Event records one task attempt for the recovery timeline (Fig. 13).
// Start and End are offsets from the job's start.
type Event struct {
	Task    string
	Node    int
	Attempt int
	Start   time.Duration
	End     time.Duration
	// Failed marks an attempt that ended in an error (injected or
	// real); the scheduler retried it if attempts remained.
	Failed bool
	// Injected marks a failure that came from the failure script
	// rather than task code.
	Injected bool
	Err      string
}

// TaskContext is passed to every task attempt.
type TaskContext struct {
	// Node is the node executing this attempt.
	Node *Node
	// Attempt is 1 for the first try.
	Attempt int
}

// Task is a unit of schedulable work.
type Task struct {
	// Name identifies the task in timelines and failure scripts.
	Name string
	// Preferred is the node the task should run on (data locality, or
	// the co-location requirement of prime tasks); -1 means any.
	Preferred int
	// Run executes the attempt. It must be idempotent across attempts:
	// the scheduler may re-run it after a failure.
	Run func(tc TaskContext) error
}

// Cluster is a simulated cluster. Methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	nodes []*Node

	mu       sync.Mutex
	failures []Failure
}

// New builds a cluster with cfg, creating one scratch dir per node.
func New(cfg Config) (*Cluster, error) {
	if cfg.ScratchRoot == "" {
		return nil, errors.New("cluster: Config.ScratchRoot is required")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		dir := filepath.Join(cfg.ScratchRoot, fmt.Sprintf("node-%03d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: creating scratch dir: %w", err)
		}
		c.nodes = append(c.nodes, &Node{ID: i, ScratchDir: dir})
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// PartitionDir returns the scratch dir of the node hosting partition p.
// Partition p lives on node p % NumNodes (the paper's Sec. 4.3
// placement): its reduce task, preserved state and spill runs share that
// node, and partition 0 is on node 0 at any cluster size.
func (c *Cluster) PartitionDir(p int) string {
	return c.nodes[p%len(c.nodes)].ScratchDir
}

// PartitionNodes returns the hosting node of each of n partitions, the
// preferred-node list of a task wave that runs one task per partition.
func (c *Cluster) PartitionNodes(n int) []int {
	nodes := make([]int, n)
	for p := range nodes {
		nodes[p] = p % len(c.nodes)
	}
	return nodes
}

// LocalTo returns the preferred node of a task whose input block has
// replicas on the given DFS nodes: the primary replica's node (data
// locality), or -1 (any node) when there is none.
func (c *Cluster) LocalTo(replicas []int) int {
	if len(replicas) == 0 {
		return -1
	}
	return replicas[0] % len(c.nodes)
}

// SafeName maps a job or spec name to one usable as a path element and
// inside task names: anything but letters, digits, '-' and '_' becomes
// '_'.
func SafeName(s string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		}
		return '_'
	}, s)
}

// Slots returns the per-node slot count.
func (c *Cluster) Slots() int { return c.cfg.SlotsPerNode }

// InjectFailure schedules an injected fault. Faults are consumed: each
// matches at most one attempt.
func (c *Cluster) InjectFailure(f Failure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, f)
}

// ResetFailures clears pending injected faults and revives all nodes.
func (c *Cluster) ResetFailures() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = nil
	for _, n := range c.nodes {
		n.down = false
	}
}

// takeFailure pops a matching injected fault, if any.
func (c *Cluster) takeFailure(task string, attempt int) (Failure, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range c.failures {
		if f.Task == task && f.Attempt == attempt {
			c.failures = append(c.failures[:i], c.failures[i+1:]...)
			return f, true
		}
	}
	return Failure{}, false
}

func (c *Cluster) markDown(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[id].down = true
}

func (c *Cluster) isDown(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id].down
}

// healthyNode returns a healthy node, preferring want, then scanning
// forward. It returns -1 if every node is down.
func (c *Cluster) healthyNode(want int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.nodes)
	if want < 0 || want >= n {
		want = 0
	}
	for i := 0; i < n; i++ {
		id := (want + i) % n
		if !c.nodes[id].down {
			return id
		}
	}
	return -1
}

// Run executes tasks to completion, honouring locality preferences,
// per-node slots, retries, and injected failures. It returns the full
// attempt timeline (sorted by start offset) and the first fatal error,
// if any. All tasks are attempted even if one fails fatally, matching
// MapReduce's behaviour of letting in-flight tasks finish.
func (c *Cluster) Run(tasks []Task) ([]Event, error) {
	start := time.Now()

	// Assign each task to a node: preferred when given and healthy,
	// else round-robin over healthy nodes.
	queues := make([][]Task, len(c.nodes))
	rr := 0
	var fatal []error
	for _, t := range tasks {
		id := -1
		if t.Preferred >= 0 && t.Preferred < len(c.nodes) && !c.isDown(t.Preferred) {
			id = t.Preferred
		} else {
			id = c.healthyNode(rr)
			rr++
		}
		if id < 0 {
			return nil, errors.New("cluster: no healthy nodes")
		}
		queues[id] = append(queues[id], t)
	}

	var (
		evMu   sync.Mutex
		events []Event
		errMu  sync.Mutex
	)
	record := func(e Event) {
		evMu.Lock()
		events = append(events, e)
		evMu.Unlock()
	}
	addFatal := func(err error) {
		errMu.Lock()
		fatal = append(fatal, err)
		errMu.Unlock()
	}

	var wg sync.WaitGroup

	runAttempts := func(nodeID int, t Task) {
		attempt := 1
		id := nodeID
		for {
			if c.isDown(id) {
				// Node died between queueing and execution: move.
				id = c.healthyNode(id + 1)
				if id < 0 {
					addFatal(errors.New("cluster: no healthy nodes for retry"))
					return
				}
			}
			aStart := time.Since(start)
			var err error
			injected := false
			if f, ok := c.takeFailure(t.Name, attempt); ok {
				if f.Delay > 0 {
					time.Sleep(f.Delay)
				}
				if f.DownNode {
					c.markDown(id)
				}
				err = fmt.Errorf("cluster: injected failure (task %s attempt %d)", t.Name, attempt)
				injected = true
			} else {
				err = t.Run(TaskContext{Node: c.nodes[id], Attempt: attempt})
			}
			e := Event{
				Task:    t.Name,
				Node:    id,
				Attempt: attempt,
				Start:   aStart,
				End:     time.Since(start),
			}
			if err == nil {
				record(e)
				return
			}
			e.Failed = true
			e.Injected = injected
			e.Err = err.Error()
			record(e)
			if attempt >= c.cfg.MaxAttempts {
				addFatal(fmt.Errorf("cluster: task %s failed after %d attempts: %w", t.Name, attempt, err))
				return
			}
			attempt++
			// Paper Sec. 6.1: a failed task is rescheduled on the same
			// TaskTracker; a failed *worker* forces the task to a
			// different healthy node. isDown at loop top handles the
			// latter.
		}
	}

	// One dispatcher per node feeds that node's queue through its slot
	// semaphore, so a saturated node never delays dispatch elsewhere.
	for id := range c.nodes {
		wg.Add(1)
		go func(id int, queue []Task) {
			defer wg.Done()
			sem := make(chan struct{}, c.cfg.SlotsPerNode)
			var nodeWG sync.WaitGroup
			for _, t := range queue {
				sem <- struct{}{}
				nodeWG.Add(1)
				go func(t Task) {
					defer nodeWG.Done()
					defer func() { <-sem }()
					runAttempts(id, t)
				}(t)
			}
			nodeWG.Wait()
		}(id, queues[id])
	}
	wg.Wait()

	sort.Slice(events, func(i, j int) bool {
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Task < events[j].Task
	})
	if len(fatal) > 0 {
		return events, fatal[0]
	}
	return events, nil
}

// Package engine defines the uniform per-refresh contract the
// processing engines share. The one-step engine (internal/incr), the
// incremental-iterative engine (internal/core), and ad-hoc recompute
// closures all present a refresh as the same operation — "apply this
// delta input, give me the cost evidence" — so the refresh planner
// (internal/plan), the serving layer (internal/serve), and the CLIs can
// dispatch engines uniformly instead of type-switching on them.
//
// It also owns what the two refreshable engines persist identically:
// the job.meta completion marker and the refresh.intent payload
// (meta.go).
//
// The package sits below the engines in the import graph (it depends
// only on internal/metrics and internal/fsutil), which is what lets both
// engines implement Refresher without a cycle.
package engine

import (
	"sync"
	"time"

	"i2mapreduce/internal/metrics"
)

// Refresh modes. These are the planner's decision space and the Mode
// strings stamped on RefreshResult.
const (
	// ModeRecompute runs the computation from scratch over the merged
	// input (for the iterative engine: a full-pass loop that ignores the
	// preserved MRBG state while recomputing).
	ModeRecompute = "recompute"
	// ModeOneStep is the one-step fine-grain incremental refresh
	// (incr.Runner.RunDelta).
	ModeOneStep = "onestep"
	// ModeIncremental is the incremental-iterative refresh with change
	// propagation control (core.Runner.RunIncremental).
	ModeIncremental = "incremental"
)

// Refresher is the unified refresh interface. Refresh applies one delta
// input (a path understood by the engine) and returns the observed cost
// evidence. The output argument names where the refreshed results are
// published on the DFS; engines that publish to fixed locations may
// ignore it. An empty output asks for no publication at all: the
// refreshed results are durable in the engine's own stores, where the
// serving layer reads them, and the one-step engine materializes them
// in full the next time a caller names an output. The streaming
// ingester always passes an empty output.
// Implementations are not safe for concurrent Refresh calls — refreshes
// are serialized by the caller (see serve.Server.Refresh).
type Refresher interface {
	Refresh(deltaInput, output string) (*RefreshResult, error)
	Stats() Stats
}

// RefreshResult is the evidence one refresh produced: which mode ran,
// how long it took, and the engine's metrics report. The planner feeds
// these back into its cost model.
type RefreshResult struct {
	// Mode is the engine mode that ran (ModeRecompute / ModeOneStep /
	// ModeIncremental).
	Mode string
	// Report is the engine's metrics for the refresh.
	Report *metrics.Report
	// Wall is the end-to-end wall time of the refresh.
	Wall time.Duration
	// DeltaRecords is the number of delta records the refresh consumed.
	DeltaRecords int64
	// Iterations and Converged are set by the iterative engine; a
	// one-step refresh reports Iterations == 0.
	Iterations int
	Converged  bool
	// Output is where the refreshed results were published (empty when
	// the caller asked for no publication, or the engine publishes to
	// its configured location).
	Output string
}

// Stats summarizes the refreshes a Refresher has served.
type Stats struct {
	// Mode is the mode of the most recent refresh.
	Mode string
	// Refreshes counts completed (successful) refreshes.
	Refreshes int64
	// LastWall / TotalWall are the wall time of the most recent refresh
	// and the sum over all of them.
	LastWall  time.Duration
	TotalWall time.Duration
	// LastDeltaRecords is the delta size of the most recent refresh.
	LastDeltaRecords int64
}

// StatsTracker accumulates Stats. Embed one in a Refresher and call
// Observe with each successful result; Snapshot serves Stats().
// Safe for concurrent use.
type StatsTracker struct {
	mu sync.Mutex
	s  Stats
}

// Observe folds one successful refresh into the stats.
func (t *StatsTracker) Observe(res *RefreshResult) {
	if res == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.s.Mode = res.Mode
	t.s.Refreshes++
	t.s.LastWall = res.Wall
	t.s.TotalWall += res.Wall
	t.s.LastDeltaRecords = res.DeltaRecords
}

// Snapshot returns the accumulated stats.
func (t *StatsTracker) Snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// Func adapts a closure to Refresher. The planner uses it for the
// recompute arm when recompute is not a method on an engine (e.g. "run
// a fresh initial job over the merged input").
type Func struct {
	// Mode stamps results (defaults to ModeRecompute).
	Mode string
	// Fn performs the refresh and returns its report (may be nil) and
	// the delta record count it consumed.
	Fn func(deltaInput, output string) (*metrics.Report, int64, error)

	stats StatsTracker
}

// Refresh runs Fn, timing it and stamping the result.
func (f *Func) Refresh(deltaInput, output string) (*RefreshResult, error) {
	mode := f.Mode
	if mode == "" {
		mode = ModeRecompute
	}
	start := time.Now()
	rep, deltaRecords, err := f.Fn(deltaInput, output)
	if err != nil {
		return nil, err
	}
	res := &RefreshResult{
		Mode:         mode,
		Report:       rep,
		Wall:         time.Since(start),
		DeltaRecords: deltaRecords,
		Output:       output,
	}
	f.stats.Observe(res)
	return res, nil
}

// Stats returns the refreshes served through this Func.
func (f *Func) Stats() Stats { return f.stats.Snapshot() }

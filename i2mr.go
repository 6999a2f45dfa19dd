// Package i2mr is the public API of this i2MapReduce reproduction
// (Zhang, Chen, Wang, Yu — "i2MapReduce: Incremental MapReduce for
// Mining Evolving Big Data", ICDE 2016).
//
// A System bundles the simulated substrate (a block-oriented DFS and a
// multi-node cluster, standing in for HDFS and a Hadoop deployment)
// with the three processing engines:
//
//   - System.MapReduce — vanilla MapReduce (paper Sec. 2);
//   - System.NewOneStep — fine-grain incremental one-step processing
//     backed by the MRBG-Store and a durable per-partition result
//     store, with the accumulator-Reduce optimization (Sec. 3);
//     System.OpenOneStep resumes a preserved one-step computation
//     after a process restart;
//   - System.NewIterative — general-purpose iterative processing with
//     structure/state separation and Project (Sec. 4), the "iterMR"
//     engine;
//   - System.NewIncremental — i2MapReduce itself: incremental iterative
//     processing with change propagation control, P_delta detection,
//     and per-iteration checkpointing (Sec. 5-6), backed by durable
//     per-partition state stores; System.OpenIncremental resumes a
//     preserved incremental iterative computation after a process
//     restart.
//
// Both refreshable engines implement the unified Refresher interface:
// one Refresh call consumes a delta input and returns a RefreshResult
// carrying the mode, wall time, and delta size. System.NewPlanner
// builds the cost-aware refresh planner that arbitrates between them
// per refresh (PlannerConfig, Decision, AutoRefresher).
//
// The runners' durable stores are snapshot-isolated, so the online
// serving layer (internal/serve, cmd/i2mr-serve) can answer point
// lookups and batched MultiGets over HTTP while refreshes are in
// flight, flipping atomically to each refresh's results as it commits.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// architecture.
package i2mr

import (
	"fmt"
	"os"
	"path/filepath"

	"i2mapreduce/internal/blockio"
	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/core"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/engine"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/iter"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mr"
	"i2mapreduce/internal/mrbg"
	"i2mapreduce/internal/plan"
	"i2mapreduce/internal/results"
)

// Re-exported record types.
type (
	// Pair is one key-value record.
	Pair = kv.Pair
	// Delta is one '+'/'-' tagged record of a delta input.
	Delta = kv.Delta
	// Op is a delta marker (OpInsert / OpDelete).
	Op = kv.Op
)

// Delta markers.
const (
	OpInsert = kv.OpInsert
	OpDelete = kv.OpDelete
)

// Engine-facing types.
type (
	// Emit passes records out of user Map/Reduce functions.
	Emit = mr.Emit
	// Job is a vanilla MapReduce job description.
	Job = mr.Job
	// Mapper / Reducer carry MapReduce semantics.
	Mapper  = mr.Mapper
	Reducer = mr.Reducer
	// MapperFunc / ReducerFunc adapt plain functions.
	MapperFunc  = mr.MapperFunc
	ReducerFunc = mr.ReducerFunc
	// Report carries stage timings and counters of a run.
	Report = metrics.Report

	// OneStepJob describes an incrementally refreshable one-step
	// computation (Sec. 3).
	OneStepJob = incr.Job
	// OneStepRunner refreshes a OneStepJob across input versions.
	OneStepRunner = incr.Runner

	// Spec describes an iterative algorithm: structure/state kv-pairs,
	// Project, prime Map and prime Reduce (Sec. 4.2).
	Spec = iter.Spec
	// StateGetter exposes current state to the prime Reduce.
	StateGetter = iter.StateGetter
	// IterConfig tunes an iterative (iterMR) run.
	IterConfig = iter.Config
	// IterRunner is the iterMR re-computation engine.
	IterRunner = iter.Runner

	// IncrementalConfig tunes the incremental iterative engine (CPC
	// thresholds, P_delta fallback, checkpointing; Sec. 5-6).
	IncrementalConfig = core.Config
	// IncrementalRunner is i2MapReduce's incremental iterative engine.
	IncrementalRunner = core.Runner
	// Result reports one initial or incremental job.
	Result = core.Result

	// StoreOptions tunes the MRBG-Store (read strategy, window sizes).
	StoreOptions = mrbg.Options
	// ResultStoreOptions tunes the one-step engine's durable result
	// store (segment compaction threshold).
	ResultStoreOptions = results.Options
)

// Unified refresh surface. Both refreshable engines — OneStepRunner
// (one-step delta) and IncrementalRunner (incremental iterative, plus
// its FullRefresher recompute arm) — implement Refresher, so callers
// and the planner can dispatch refreshes without caring which engine
// is behind them.
type (
	// Refresher runs one refresh of a preserved computation from a
	// delta input.
	Refresher = engine.Refresher
	// RefreshResult is the unified outcome of one Refresh call.
	RefreshResult = engine.RefreshResult
	// RefreshStats aggregates a Refresher's observed refresh history.
	RefreshStats = engine.Stats
	// RefresherFunc adapts a closure into a Refresher: Mode names what
	// the closure runs, Fn returns the refresh's report and consumed
	// delta size. Useful for binding an ad-hoc recompute arm to the
	// planner.
	RefresherFunc = engine.Func
)

// Refresh modes, as reported in RefreshResult.Mode and arbitrated by
// the planner.
const (
	ModeRecompute   = engine.ModeRecompute
	ModeOneStep     = engine.ModeOneStep
	ModeIncremental = engine.ModeIncremental
)

// Cost-aware refresh planning (internal/plan).
type (
	// Planner owns a durable per-job cost ledger and chooses the
	// refresh mode (and CPC threshold) before each refresh.
	Planner = plan.Planner
	// PlannerConfig parameterizes a Planner.
	PlannerConfig = plan.Config
	// Decision is the planner's choice for one upcoming refresh.
	Decision = plan.Decision
	// Observation is the cost evidence of one completed refresh.
	Observation = plan.Observation
	// AutoRefresher dispatches refreshes through a Planner across a set
	// of mode-bound Refreshers, feeding observed costs back into the
	// ledger.
	AutoRefresher = plan.Auto
)

// Options configures a System.
type Options struct {
	// WorkDir hosts the DFS and node scratch directories. Required.
	WorkDir string
	// Nodes is the simulated cluster size. Defaults to 4.
	Nodes int
	// SlotsPerNode is the per-node task parallelism. Defaults to 2.
	SlotsPerNode int
	// BlockSize is the DFS block capacity. Defaults to 1 MiB.
	BlockSize int64
	// StoreShards is the default MRBG-Store shard count for runners
	// created by this System; jobs that set StoreOpts.Shards themselves
	// win. Defaults to the store's own default (1).
	StoreShards int
	// StoreParallelism bounds the per-store shard fan-out; jobs that
	// set StoreOpts.Parallelism win. Defaults to GOMAXPROCS.
	StoreParallelism int
	// ShuffleMemoryBudget is the default memory budget of every pass's
	// streaming shuffle (full and incremental iterations, delta
	// refreshes): beyond it, map output spills to node-local scratch as
	// sorted runs ("shuffle.spill.*" count the spills). Runners whose config
	// sets the budget themselves win: a positive config value overrides
	// this default, and a negative one explicitly opts the runner out
	// of spilling. 0 here (the default) keeps all intermediate data in
	// memory.
	ShuffleMemoryBudget int64
	// ResultCompactThreshold is the default segment count at which the
	// durable per-partition stores compact during Checkpoint — the
	// one-step engine's result stores and the incremental iterative
	// engine's state stores alike; jobs/configs that set their own
	// threshold win. 0 uses the store default; negative disables
	// compaction.
	ResultCompactThreshold int
	// SkewRatio enables hot-key detection in the refreshable engines'
	// shuffles: a reduce key whose record share exceeds this fraction
	// of its partition's stream is split across sub-keys and re-merged
	// reduce-side ("shuffle.hotkeys.*" counters). 0 (the default)
	// disables detection; jobs/configs that set their own ratio win.
	SkewRatio float64
	// SkewFanOut is the number of sub-keys a detected hot key is split
	// across (default 8 when SkewRatio is set). Meaningful only with
	// SkewRatio > 0.
	SkewFanOut int
	// SegmentBlockBytes is the default target decoded bytes per block
	// in the durable stores' v2 segment files (one-step result stores
	// and incremental state stores alike); jobs/configs that set their
	// own value win. 0 uses the store default (32 KiB).
	SegmentBlockBytes int
	// SegmentCompression is the default per-block codec for newly
	// written segments: "" or "none" (raw), or "flate". Reads
	// auto-detect, so the knob can change between runs freely.
	SegmentCompression string
	// BloomBitsPerKey is the default per-segment bloom filter sizing
	// (bits per key). 0 uses the store default (10, ~1% false
	// positives); negative disables the filters.
	BloomBitsPerKey int
	// IOParallelism is the default bound on the refreshable engines'
	// concurrent per-partition durability I/O — checkpoint flushes,
	// store opens/recovery, checkpoint restores, and output
	// materialization all fan out across partitions on at most this
	// many goroutines. Jobs/configs that set their own value win.
	// 0 (the default) means GOMAXPROCS; 1 recovers the serial behavior.
	IOParallelism int
	// BackgroundCompaction moves the durable stores' compaction — the
	// result/state stores' segment folding and the MRBG-Stores' file
	// reconstruction — off the refresh critical path onto a background
	// scheduler in every runner this System creates: a refresh
	// checkpoint then pays only the memtable flush and the manifest
	// commit, and compaction runs between refreshes. Off by default
	// (segments fold inline in Checkpoint, MRBG files once the refresh
	// has committed).
	BackgroundCompaction bool
}

// Validate rejects contradictory or out-of-range Options. New calls it;
// it is exported so callers can check configuration up front.
func (o Options) Validate() error {
	if o.WorkDir == "" {
		return fmt.Errorf("i2mr: Options.WorkDir is required")
	}
	if o.Nodes < 0 {
		return fmt.Errorf("i2mr: Options.Nodes = %d, want >= 0 (0 means the default)", o.Nodes)
	}
	if o.SlotsPerNode < 0 {
		return fmt.Errorf("i2mr: Options.SlotsPerNode = %d, want >= 0 (0 means the default)", o.SlotsPerNode)
	}
	if o.BlockSize < 0 {
		return fmt.Errorf("i2mr: Options.BlockSize = %d, want >= 0 (0 means the default)", o.BlockSize)
	}
	if o.StoreShards < 0 {
		return fmt.Errorf("i2mr: Options.StoreShards = %d, want >= 0 (0 means the default)", o.StoreShards)
	}
	if o.StoreParallelism < 0 {
		return fmt.Errorf("i2mr: Options.StoreParallelism = %d, want >= 0 (0 means the default)", o.StoreParallelism)
	}
	if o.ResultCompactThreshold == 1 {
		return fmt.Errorf("i2mr: Options.ResultCompactThreshold = 1 would compact after every segment; use 0 for the default or a negative value to disable compaction")
	}
	if o.SkewRatio < 0 || o.SkewRatio >= 1 {
		return fmt.Errorf("i2mr: Options.SkewRatio = %g, want 0 (off) or (0, 1)", o.SkewRatio)
	}
	if o.SkewFanOut < 0 || o.SkewFanOut == 1 {
		return fmt.Errorf("i2mr: Options.SkewFanOut = %d, want 0 (default) or >= 2", o.SkewFanOut)
	}
	if o.SkewFanOut >= 2 && o.SkewRatio == 0 {
		return fmt.Errorf("i2mr: Options.SkewFanOut = %d is contradictory with SkewRatio = 0 (detection disabled); set SkewRatio to enable hot-key splitting", o.SkewFanOut)
	}
	if o.SegmentBlockBytes < 0 {
		return fmt.Errorf("i2mr: Options.SegmentBlockBytes = %d, want >= 0 (0 means the default)", o.SegmentBlockBytes)
	}
	if o.IOParallelism < 0 {
		return fmt.Errorf("i2mr: Options.IOParallelism = %d, want >= 0 (0 means the default)", o.IOParallelism)
	}
	if _, err := blockio.ParseCodec(o.SegmentCompression); err != nil {
		return fmt.Errorf("i2mr: Options.SegmentCompression: %w", err)
	}
	return nil
}

// defaults captures the System-wide knobs New resolved from Options,
// and fills them into jobs/configs that left the corresponding field
// unset. One resolver replaces the former per-engine filler trio.
type defaults struct {
	storeShards      int
	storeParallelism int
	shuffleBudget    int64
	resultCompact    int
	skewRatio        float64
	skewFanOut       int
	segBlockBytes    int
	segCompression   string
	segBloomBits     int
	ioParallelism    int
	bgCompaction     bool
}

func (d defaults) store(opts *mrbg.Options) {
	if opts.Shards == 0 {
		opts.Shards = d.storeShards
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = d.storeParallelism
	}
}

func (d defaults) shuffle(budget *int64) {
	if *budget == 0 {
		*budget = d.shuffleBudget
	}
}

func (d defaults) compact(threshold *int) {
	if *threshold == 0 {
		*threshold = d.resultCompact
	}
}

func (d defaults) skew(ratio *float64, fanOut *int) {
	if *ratio == 0 {
		*ratio = d.skewRatio
	}
	if *fanOut == 0 {
		*fanOut = d.skewFanOut
	}
}

func (d defaults) segFormat(blockBytes *int, compression *string, bloomBits *int) {
	if *blockBytes == 0 {
		*blockBytes = d.segBlockBytes
	}
	if *compression == "" {
		*compression = d.segCompression
	}
	if *bloomBits == 0 {
		*bloomBits = d.segBloomBits
	}
}

func (d defaults) durability(ioPar *int, bgCompact *bool) {
	if *ioPar == 0 {
		*ioPar = d.ioParallelism
	}
	if d.bgCompaction {
		*bgCompact = true
	}
}

func (d defaults) oneStep(job *OneStepJob) {
	d.store(&job.StoreOpts)
	d.compact(&job.ResultOpts.CompactThreshold)
	d.segFormat(&job.ResultOpts.BlockBytes, &job.ResultOpts.Compression, &job.ResultOpts.BloomBitsPerKey)
	d.shuffle(&job.ShuffleMemoryBudget)
	d.skew(&job.SkewRatio, &job.SkewFanOut)
	d.durability(&job.IOParallelism, &job.BackgroundCompaction)
}

func (d defaults) iterative(cfg *IterConfig) {
	d.shuffle(&cfg.ShuffleMemoryBudget)
}

func (d defaults) incremental(cfg *IncrementalConfig) {
	d.store(&cfg.StoreOpts)
	d.shuffle(&cfg.ShuffleMemoryBudget)
	d.compact(&cfg.StateCompactThreshold)
	d.segFormat(&cfg.SegmentBlockBytes, &cfg.SegmentCompression, &cfg.BloomBitsPerKey)
	d.skew(&cfg.SkewRatio, &cfg.SkewFanOut)
	d.durability(&cfg.IOParallelism, &cfg.BackgroundCompaction)
}

// System is a ready-to-use i2MapReduce deployment.
type System struct {
	eng     *mr.Engine
	workDir string
	def     defaults
}

// New builds a System under opts.WorkDir.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return nil, err
	}
	fs, err := dfs.New(dfs.Config{
		Root:      filepath.Join(opts.WorkDir, "dfs"),
		BlockSize: opts.BlockSize,
		Nodes:     opts.Nodes,
	})
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:        opts.Nodes,
		SlotsPerNode: opts.SlotsPerNode,
		ScratchRoot:  filepath.Join(opts.WorkDir, "scratch"),
	})
	if err != nil {
		return nil, err
	}
	return &System{
		eng:     mr.NewEngine(fs, cl),
		workDir: opts.WorkDir,
		def: defaults{
			storeShards:      opts.StoreShards,
			storeParallelism: opts.StoreParallelism,
			shuffleBudget:    opts.ShuffleMemoryBudget,
			resultCompact:    opts.ResultCompactThreshold,
			skewRatio:        opts.SkewRatio,
			skewFanOut:       opts.SkewFanOut,
			segBlockBytes:    opts.SegmentBlockBytes,
			segCompression:   opts.SegmentCompression,
			segBloomBits:     opts.BloomBitsPerKey,
			ioParallelism:    opts.IOParallelism,
			bgCompaction:     opts.BackgroundCompaction,
		},
	}, nil
}

// WritePairs stores records as a DFS file.
func (s *System) WritePairs(path string, ps []Pair) error {
	return s.eng.FS().WriteAllPairs(path, ps)
}

// WriteDeltas stores a delta input as a DFS file.
func (s *System) WriteDeltas(path string, ds []Delta) error {
	return s.eng.FS().WriteAllDeltas(path, ds)
}

// ReadPairs loads a DFS file.
func (s *System) ReadPairs(path string) ([]Pair, error) {
	return s.eng.FS().ReadAllPairs(path)
}

// ReadOutput concatenates a job's reduce part files.
func (s *System) ReadOutput(output string, numReducers int) ([]Pair, error) {
	return s.eng.ReadOutput(output, numReducers)
}

// MapReduce runs one vanilla MapReduce job.
func (s *System) MapReduce(job Job) (*Report, error) {
	return s.eng.Run(job)
}

// NewOneStep prepares a fine-grain incremental one-step runner:
// RunInitial once, then RunDelta (or Refresh) per refresh.
func (s *System) NewOneStep(job OneStepJob) (*OneStepRunner, error) {
	s.def.oneStep(&job)
	return incr.NewRunner(s.eng, job)
}

// OpenOneStep reattaches a one-step runner to the durable state a
// previous process preserved under the same WorkDir (MRBG-Stores and
// result stores), so RunDelta keeps refreshing a computation across
// process restarts without re-running the initial job. The job must use
// the same Name, NumReducers, and cluster size it originally ran with.
func (s *System) OpenOneStep(job OneStepJob) (*OneStepRunner, error) {
	s.def.oneStep(&job)
	return incr.Open(s.eng, job)
}

// NewIterative prepares an iterMR (re-computation) runner.
func (s *System) NewIterative(spec Spec, cfg IterConfig) (*IterRunner, error) {
	s.def.iterative(&cfg)
	return iter.NewRunner(s.eng, spec, cfg)
}

// NewIncremental prepares the i2MapReduce incremental iterative runner:
// RunInitial once, then RunIncremental (or Refresh) per delta.
func (s *System) NewIncremental(spec Spec, cfg IncrementalConfig) (*IncrementalRunner, error) {
	s.def.incremental(&cfg)
	return core.NewRunner(s.eng, spec, cfg)
}

// OpenIncremental reattaches an incremental iterative runner to the
// durable state a previous process preserved under the same WorkDir
// (per-partition MRBG-Stores, state stores, CPC baselines, and cached
// structure partitions), so RunIncremental keeps refreshing a
// computation across process restarts without re-running the initial
// job. The computation must use the same spec Name, partition count,
// and cluster size it originally ran with; a refresh the previous
// process left half-applied is refused.
func (s *System) OpenIncremental(spec Spec, cfg IncrementalConfig) (*IncrementalRunner, error) {
	s.def.incremental(&cfg)
	return core.Open(s.eng, spec, cfg)
}

// NewPlanner opens (or initializes) the cost-aware refresh planner for
// the named job. When cfg.Path is empty, the ledger lives at
// <WorkDir>/plan/<name>.json so the cost model survives restarts
// alongside the engines' durable stores.
func (s *System) NewPlanner(name string, cfg PlannerConfig) (*Planner, error) {
	if cfg.Path == "" {
		if name == "" {
			return nil, fmt.Errorf("i2mr: NewPlanner needs a job name (or an explicit PlannerConfig.Path)")
		}
		dir := filepath.Join(s.workDir, "plan")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cfg.Path = filepath.Join(dir, name+".json")
	}
	return plan.New(cfg)
}

// Engine exposes the underlying MapReduce engine for advanced use
// (bench harnesses, custom schedulers).
func (s *System) Engine() *mr.Engine { return s.eng }

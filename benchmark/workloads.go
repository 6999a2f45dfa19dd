package main

import (
	"strings"
)

// sizes fixes every input dimension of a scale; the run echoes them.
type sizes struct {
	// WordCount corpus (datagen.Tweets) shared by the three wc workloads.
	Tweets int `json:"tweets"`
	Vocab  int `json:"vocab"`
	Words  int `json:"words_per_tweet"`
	// StreamBatch delta records per wc_stream micro-batch, submitted as
	// StreamAdds AddBatch calls; StreamReads closed-loop reads after it.
	// Every workload's read count is sized to take about 15% of its run.
	StreamBatch int `json:"stream_batch"`
	StreamAdds  int `json:"stream_adds"`
	StreamReads int `json:"stream_reads"`
	// BulkBatch delta records per wc_bulk refresh under BulkBudget bytes
	// of shuffle memory.
	BulkBatch  int   `json:"bulk_batch"`
	BulkBudget int64 `json:"bulk_shuffle_budget"`
	BulkReads  int   `json:"bulk_reads"`
	// PageRank graph (datagen.Graph) and delta records per refresh (a
	// rewired vertex is one '-' and one '+').
	Vertices  int `json:"vertices"`
	Degree    int `json:"mean_out_degree"`
	RankBatch int `json:"rank_batch"`
	RankReads int `json:"rank_reads"`
	// serve_mixed: records per POST /ingest, block-cache entries, open
	// loop reads per second and keys per /mget.
	ServeBatch int `json:"serve_batch"`
	ServeReads int `json:"serve_reads"`
	ServeCache int `json:"serve_cache_blocks"`
	ReadRate   int `json:"read_rate"`
	MgetKeys   int `json:"mget_keys"`
	// ProbeRate is the light open-loop reader beside the write
	// workloads, in direct Get calls per second: enough to see what a
	// refresh does to a concurrent reader, too little to cost the writer.
	ProbeRate int `json:"probe_rate"`
	// Batches, when not 0, measures that many micro-batches per workload
	// instead of -seconds, like -batches.
	Batches int `json:"batches"`
}

var scales = map[string]sizes{
	"full": {
		Tweets: 50000, Vocab: 20000, Words: 8,
		StreamBatch: 100, StreamAdds: 10, StreamReads: 10000,
		BulkBatch: 5000, BulkBudget: 64 << 10, BulkReads: 80000,
		Vertices: 6000, Degree: 4, RankBatch: 120, RankReads: 60000,
		ServeBatch: 1000, ServeReads: 500, ServeCache: 8, ReadRate: 2000, MgetKeys: 16,
		ProbeRate: 200,
	},
	"smoke": {
		Tweets: 1000, Vocab: 300, Words: 8,
		StreamBatch: 20, StreamAdds: 4, StreamReads: 500,
		BulkBatch: 100, BulkBudget: 4 << 10, BulkReads: 500,
		Vertices: 200, Degree: 4, RankBatch: 4, RankReads: 500,
		ServeBatch: 50, ServeReads: 200, ServeCache: 2, ReadRate: 1000, MgetKeys: 8,
		ProbeRate: 200, Batches: 5,
	},
}

// workload is one named traffic mix; why is the one line BENCHMARK.json
// carries.
type workload struct {
	name  string
	why   string
	setup func(e *env) (*rig, error)
}

var workloads = []workload{
	{
		name:  "wc_stream",
		why:   "100-record micro-batches of fine-grain WordCount: per-refresh fixed costs (WAL fsync, batch cut, intent and watermark commits, task start, checkpoint, epoch flip) dominate",
		setup: setupWCStream,
	},
	{
		name:  "wc_bulk",
		why:   "5000-record refreshes with deletes and inserts under a 64 KiB shuffle budget: volume costs (map, spilling shuffle, k-way merge, MRBG merge, reduce, result rewrite, compaction) dominate",
		setup: setupWCBulk,
	},
	{
		name:  "pr_refresh",
		why:   "PageRank on the iterative engine with CPC, 1% of vertices rewired per refresh: core iterations, MRBG reads and per-iteration state checkpoints; the one-step engine does nothing",
		setup: setupPageRank,
	},
	{
		name:  "serve_mixed",
		why:   "open-loop reads at 2000/s through the HTTP handlers beside closed-loop /ingest writes on flate segments with an 8-block cache: the read path does most of the work",
		setup: setupServeMixed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

package bench

import (
	"strings"
	"testing"
)

func tinyScale() Scale {
	s := SmallScale()
	s.GraphVertices = 300
	s.Points = 400
	s.Tweets = 400
	s.MaxIterations = 40
	return s
}

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestFig8ShapeHolds(t *testing.T) {
	env := newTestEnv(t)
	sc := tinyScale()
	rows, err := Fig8(env, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byApp := map[string]Fig8Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.PlainMR <= 0 || r.IterMR <= 0 || r.I2NoCPC <= 0 || r.I2CPC <= 0 {
			t.Fatalf("row %s has non-positive timings: %+v", r.App, r)
		}
	}
	// The paper's headline shapes: for PageRank and GIM-V, i2MR beats
	// plainMR by a wide margin; iterMR beats plainMR everywhere.
	for _, app := range []string{"PageRank", "SSSP", "GIM-V"} {
		r := byApp[app]
		if r.I2CPC >= r.PlainMR {
			t.Errorf("%s: i2MR w/CPC (%v) not faster than plainMR (%v)", app, r.I2CPC, r.PlainMR)
		}
		if r.IterMR >= r.PlainMR {
			t.Errorf("%s: iterMR (%v) not faster than plainMR (%v)", app, r.IterMR, r.PlainMR)
		}
	}
	if out := FormatFig8(rows); !strings.Contains(out, "PageRank") {
		t.Fatalf("FormatFig8 missing rows:\n%s", out)
	}
}

func TestFig9StagesRecorded(t *testing.T) {
	env := newTestEnv(t)
	rows, err := Fig9(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// i2MR's map stage must be far below plainMR's (the paper reports
	// a 98% reduction).
	plainMap := rows[0].Stages.Stages[0]
	i2Map := rows[2].Stages.Stages[0]
	if i2Map >= plainMap {
		t.Errorf("i2MR map stage (%v) not below plainMR (%v)", i2Map, plainMap)
	}
	_ = FormatFig9(rows)
}

func TestTable4StrategiesOrdered(t *testing.T) {
	env := newTestEnv(t)
	rows, err := Table4(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	indexOnly, dynamic := rows[0], rows[3]
	// index-only: smallest read size, most reads (paper Table 4).
	if indexOnly.ReadBytes > dynamic.ReadBytes {
		t.Errorf("index-only read %d bytes > multi-dynamic %d", indexOnly.ReadBytes, dynamic.ReadBytes)
	}
	if dynamic.Reads >= indexOnly.Reads {
		t.Errorf("multi-dynamic issued %d reads >= index-only %d", dynamic.Reads, indexOnly.Reads)
	}
	// The counts themselves, as measured before chunk checksums, the
	// index log and post-refresh compaction existed: none of the three
	// may touch what the merge reads, or how much.
	want := []Table4Row{
		{Technique: "index-only", Reads: 981, ReadBytes: 221957},
		{Technique: "single-fix-window", Reads: 72, ReadBytes: 965564},
		{Technique: "multi-fix-window", Reads: 32, ReadBytes: 247302},
		{Technique: "multi-dynamic-window", Reads: 42, ReadBytes: 248104},
	}
	for i, r := range rows {
		if r.Technique != want[i].Technique || r.Reads != want[i].Reads || r.ReadBytes != want[i].ReadBytes {
			t.Errorf("row %d = %s %d reads %d bytes, want %s %d reads %d bytes",
				i, r.Technique, r.Reads, r.ReadBytes, want[i].Technique, want[i].Reads, want[i].ReadBytes)
		}
	}
	_ = FormatTable4(rows)
}

func TestFig10LargerThresholdFiltersMore(t *testing.T) {
	env := newTestEnv(t)
	rows, err := Fig10(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// Mean error grows (weakly) with the threshold; all errors small.
	for i, r := range rows {
		if r.MeanError < 0 || r.MeanError > 0.25 {
			t.Errorf("FT=%v mean error %v out of range", r.FT, r.MeanError)
		}
		if i > 0 && r.MeanError+1e-9 < rows[i-1].MeanError/4 {
			// Allow noise, but a larger threshold should not be
			// dramatically more accurate.
			t.Logf("note: FT=%v error %v < FT=%v error %v", r.FT, r.MeanError, rows[i-1].FT, rows[i-1].MeanError)
		}
	}
	_ = FormatFig10(rows)
}

func TestFig11PropagationShapes(t *testing.T) {
	env := newTestEnv(t)
	series, err := Fig11(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want 4", len(series))
	}
	noCPC := series[0]
	ft01 := series[3]
	sum := func(xs []int) int {
		t := 0
		for _, x := range xs {
			t += x
		}
		return t
	}
	if sum(ft01.Propagated) > sum(noCPC.Propagated) {
		t.Errorf("FT=0.1 propagated %d > w/o CPC %d", sum(ft01.Propagated), sum(noCPC.Propagated))
	}
	_ = FormatFig11(series)
}

func TestFig12SparkCrossover(t *testing.T) {
	env := newTestEnv(t)
	sc := tinyScale()
	rows, err := Fig12(env, sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Small datasets fit in memory; the largest spills.
	if rows[0].SparkSpilled {
		t.Error("smallest dataset spilled")
	}
	if !rows[3].SparkSpilled {
		t.Error("largest dataset did not spill")
	}
	// Spark beats plainMR on the small input (paper: "really fast when
	// processing small data sets").
	if rows[0].Spark >= rows[0].PlainMR {
		t.Errorf("Spark (%v) not faster than plainMR (%v) on the small input", rows[0].Spark, rows[0].PlainMR)
	}
	_ = FormatFig12(rows)
}

func TestFig13RecoversFromInjectedFailures(t *testing.T) {
	env := newTestEnv(t)
	res, err := Fig13(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < 2 {
		t.Fatalf("only %d injected failures observed; the run may have converged too fast", res.Failures)
	}
	if !res.Recovered {
		t.Fatal("a failed task never recovered")
	}
	if res.MaxRecovery <= 0 {
		t.Fatal("recovery gap not measured")
	}
	_ = FormatFig13(res)
}

func TestAPrioriSpeedup(t *testing.T) {
	env := newTestEnv(t)
	res, err := APriori(env, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1 {
		t.Fatalf("incremental APriori speedup %.2fx <= 1", res.Speedup)
	}
	if res.Pairs == 0 {
		t.Fatal("no frequent pairs counted")
	}
	_ = FormatAPriori(res)
}

func TestShardSweepShapeHolds(t *testing.T) {
	sc := tinyScale()
	rows, err := ShardSweep(t.TempDir(), sc, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, want := range []int{1, 2, 4} {
		r := rows[i]
		if r.Shards != want {
			t.Errorf("row %d shards = %d, want %d", i, r.Shards, want)
		}
		if r.MergeTime <= 0 || r.QueryTime <= 0 {
			t.Errorf("row %d has non-positive timings: %+v", i, r)
		}
		if r.LiveChunks != sc.GraphVertices {
			t.Errorf("row %d live chunks = %d, want %d", i, r.LiveChunks, sc.GraphVertices)
		}
	}
	if out := FormatShardSweep(rows); !strings.Contains(out, "shards") {
		t.Fatalf("FormatShardSweep missing header:\n%s", out)
	}
}

func TestFig8RunsWithShardedStores(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig8 with sharding is covered by the long run")
	}
	env := newTestEnv(t)
	sc := tinyScale()
	sc.StoreShards = 4
	rows, err := Fig8(env, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.I2CPC <= 0 {
			t.Fatalf("row %s has non-positive i2MR timing: %+v", r.App, r)
		}
	}
}

func TestOneStepSweepShapeHolds(t *testing.T) {
	env := newTestEnv(t)
	sc := tinyScale()
	sc.ShuffleMemoryBudget = 16 << 10
	rows, err := OneStepSweep(env, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.DeltaRecords <= 0 {
			t.Fatalf("row %d: no delta records", i)
		}
		if r.Incremental <= 0 || r.Recompute <= 0 {
			t.Fatalf("row %d: missing timings %+v", i, r)
		}
		if r.Segments <= 0 {
			t.Fatalf("row %d: no result segments reported", i)
		}
		if r.DirtyParts <= 0 || r.Rewritten <= 0 {
			t.Fatalf("row %d: refresh reported no dirty partitions/bytes", i)
		}
		if i > 0 && r.DeltaRecords <= rows[i-1].DeltaRecords {
			t.Fatalf("delta sizes not increasing: %d then %d", rows[i-1].DeltaRecords, r.DeltaRecords)
		}
	}
	// The smallest delta must beat recomputation decisively.
	if rows[0].Speedup <= 1 {
		t.Fatalf("1%% delta speedup %.2fx <= 1", rows[0].Speedup)
	}
	out := FormatOneStep(rows)
	if !strings.Contains(out, "speedup") {
		t.Fatalf("format output missing header: %q", out)
	}
}

func TestResultsSweepShapeHolds(t *testing.T) {
	sc := tinyScale()
	rows, err := ResultsSweep(t.TempDir(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 block sizes x 2 codecs
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		label := FormatResultsSweep([]ResultsRow{r})
		if r.HitNs <= 0 || r.MissNs <= 0 || r.SegmentBytes <= 0 {
			t.Fatalf("non-positive measurements:\n%s", label)
		}
		// The headline property: the bloom filter answers ≥99% of
		// absent-key probes with zero block I/O.
		if r.BloomSkips < r.MissProbes*99/100 {
			t.Fatalf("bloom skipped %d of %d absent probes (<99%%):\n%s", r.BloomSkips, r.MissProbes, label)
		}
		if r.MissBlocksRead > r.MissProbes/100 {
			t.Fatalf("absent probes read %d blocks:\n%s", r.MissBlocksRead, label)
		}
		if r.Codec == "flate" && r.SegmentBytes <= 0 {
			t.Fatalf("flate cell has no segment bytes:\n%s", label)
		}
	}
	// Compression must shrink the synthetic segments at every block size.
	for i := 0; i < len(rows); i += 2 {
		if rows[i+1].SegmentBytes >= rows[i].SegmentBytes {
			t.Fatalf("flate (%d bytes) not smaller than none (%d bytes) at block %d",
				rows[i+1].SegmentBytes, rows[i].SegmentBytes, rows[i].BlockBytes)
		}
	}
	if out := FormatResultsSweep(rows); !strings.Contains(out, "bloom_skips") {
		t.Fatalf("format output missing header: %q", out)
	}
}

func TestServeColdSweepShapeHolds(t *testing.T) {
	env := newTestEnv(t)
	sc := tinyScale()
	rows, err := ServeColdSweep(env, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	byMode := map[string]ServeColdRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.Ops <= 0 || r.P99 < r.P50 {
			t.Fatalf("bad row %+v", r)
		}
	}
	hit, absent := byMode["cold-hit"], byMode["absent"]
	if hit.BlocksRead <= 0 {
		t.Fatal("uncached hits read no blocks")
	}
	if absent.BloomSkips < absent.Ops*99/100 {
		t.Fatalf("absent probes: %d bloom skips of %d ops (<99%%)", absent.BloomSkips, absent.Ops)
	}
	if absent.BlocksRead > absent.Ops/100 {
		t.Fatalf("absent probes read %d blocks", absent.BlocksRead)
	}
	if out := FormatServeCold(rows); !strings.Contains(out, "bloom_skips") {
		t.Fatalf("format output missing header: %q", out)
	}
}

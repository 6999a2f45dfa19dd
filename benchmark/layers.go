package main

import (
	"time"

	"i2mapreduce/internal/metrics"
)

// layers fills in the per-layer metrics of a traced run: span
// statistics, the engines' own per-refresh evidence, the end state of
// the stores, and the stand-alone probes. A layer the workload does not
// exercise reports 0.
func (res *runResult) layers(p *phase) error {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.set(d.Name, 0, 0)
		}
	}
	res.spanMetrics(p)
	res.engineMetrics(p)
	res.procMetrics(p)
	return res.probes(p)
}

// spanMetrics turns the traced batches' stamps into spans and the span
// durations into the ingest, dfs, serve and trace metrics.
func (res *runResult) spanMetrics(p *phase) {
	dur := map[string]*samples{}
	var unattributed, tracedVisible, plainVisible samples
	var attributed, total float64
	for _, bt := range p.times {
		visible := bt.readEnd.Sub(bt.t0).Seconds()
		if !bt.traced {
			plainVisible.add(visible)
			continue
		}
		tracedVisible.add(visible)
		spans := bt.spans(p.start)
		res.spans = append(res.spans, spans...)
		perBatch := map[string]float64{}
		for _, s := range spans {
			if s.Name == "ingest.add" {
				// One sample per AddBatch call, not per batch.
				addSample(dur, s.Name, s.EndS-s.StartS)
				continue
			}
			perBatch[s.Name] += s.EndS - s.StartS
		}
		for name, d := range perBatch {
			addSample(dur, name, d)
		}
		addSample(dur, "serve.flip", perBatch["serve.refresh"]-perBatch["engine.refresh"])
		self := selfTimes(spans)["visible"]
		unattributed.add(self)
		attributed += visible - self
		total += visible
	}
	p50 := func(metric, spanName string) {
		if s := dur[spanName]; s != nil {
			res.set(metric, s.median(), len(*s))
		}
	}
	p50("ingest.add_s_p50", "ingest.add")
	p50("ingest.cut_wait_s_p50", "ingest.cut_wait")
	p50("ingest.intent_s_p50", "ingest.intent")
	p50("ingest.commit_s_p50", "ingest.commit")
	p50("dfs.write_deltas_s_p50", "dfs.write_deltas")
	p50("serve.refresh_s_p50", "serve.refresh")
	p50("serve.flip_s_p50", "serve.flip")
	p50("serve.first_read_s_p50", "serve.first_read")
	engine := "incr.refresh_s_p50"
	if p.r.itr != nil {
		engine = "core.refresh_s_p50"
	}
	p50(engine, "engine.refresh")

	res.set("trace.coverage", ratio(attributed, total), len(tracedVisible))
	res.set("trace.unattributed_s_p50", unattributed.median(), len(unattributed))
	res.set("trace.overhead_ratio", ratio(tracedVisible.median(), plainVisible.median()), len(plainVisible))

	st := p.r.ing.Stats()
	res.set("ingest.records", float64(st.Records), 1)
	res.set("ingest.batches", float64(st.Batches), 1)
	res.set("ingest.rejected", float64(st.Rejected), 1)

	res.set("serve.cache_hit_ratio", ratio(float64(p.cacheHits), float64(p.cacheReads)), int(p.cacheReads))
	missed := 0
	for _, lat := range p.read.lat {
		if lat > readSLO.Seconds() {
			missed++
		}
	}
	res.set("serve.read_slo_miss_ratio", ratio(float64(missed), float64(len(p.read.lat))), len(p.read.lat))
}

func addSample(m map[string]*samples, name string, v float64) {
	s := m[name]
	if s == nil {
		s = &samples{}
		m[name] = s
	}
	s.add(v)
}

// engineMetrics averages what the engines report about each refresh:
// metrics.Report stages and counters, core.Result.PerIter, and the
// differences of the stores' statistics across the refresh. Stage times
// are summed across parallel tasks, so they are busy time and can
// exceed the refresh's wall time.
func (res *runResult) engineMetrics(p *phase) {
	var mapBusy, sortBusy, reduceBusy, ckptBusy samples
	var edges, groups, shuffleBytes, spillRuns, spillBytes, rewritten samples
	var iters, iterDur, propagated, filtered samples
	var reads, bytesRead, hits, appended, mrbgFlushes, resFlushes, compactions samples
	for _, bt := range p.times {
		if rep := bt.report; rep != nil {
			mapBusy.addDur(rep.Stage(metrics.StageMap))
			sortBusy.addDur(rep.Stage(metrics.StageSort))
			reduceBusy.addDur(rep.Stage(metrics.StageReduce))
			ckptBusy.addDur(rep.Stage(metrics.StageCheckpoint))
			edges.add(float64(rep.Counter(metrics.CounterDeltaEdges)))
			groups.add(float64(rep.Counter(metrics.CounterReduceInstances)))
			shuffleBytes.add(float64(rep.Counter(metrics.CounterShuffleBytes)))
			spillRuns.add(float64(rep.Counter(metrics.CounterSpillRuns)))
			spillBytes.add(float64(rep.Counter(metrics.CounterSpillBytes)))
			rewritten.add(float64(rep.Counter(metrics.CounterResultBytesRewritten)))
		}
		if bt.iters != nil {
			iters.add(float64(len(bt.iters)))
			for _, it := range bt.iters {
				iterDur.addDur(it.Duration)
				propagated.add(float64(it.Propagated))
				filtered.add(float64(it.Filtered))
			}
		}
		if bt.traced {
			a, b := bt.stores, bt.storesBefore
			reads.add(float64(a.mrbg.Reads - b.mrbg.Reads))
			bytesRead.add(float64(a.mrbg.BytesRead - b.mrbg.BytesRead))
			hits.add(float64(a.mrbg.CacheHits - b.mrbg.CacheHits))
			appended.add(float64(a.mrbg.AppendedChunks - b.mrbg.AppendedChunks))
			mrbgFlushes.add(float64(a.mrbg.Flushes - b.mrbg.Flushes))
			resFlushes.add(float64(a.res.Flushes - b.res.Flushes))
			compactions.add(float64(a.res.Compactions - b.res.Compactions))
		}
	}
	res.meanEdges, res.meanGroups = edges.mean(), groups.mean()
	mean := func(name string, s samples) { res.set(name, s.mean(), len(s)) }
	layer := "incr."
	if p.r.itr != nil {
		layer = "core."
		mean("core.iterations_per_refresh", iters)
		res.set("core.iter_s_p50", iterDur.median(), len(iterDur))
		res.set("core.iter_s_p90", iterDur.quantile(0.9), len(iterDur))
		mean("core.propagated_per_iter", propagated)
		mean("core.filtered_per_iter", filtered)
		res.set("core.mean_rel_err", res.meanRelErr, 1)
	} else {
		mean("incr.sort_busy_s", sortBusy)
		mean("incr.delta_edges", edges)
		mean("incr.reduce_groups", groups)
	}
	mean(layer+"map_busy_s", mapBusy)
	mean(layer+"reduce_busy_s", reduceBusy)
	mean(layer+"checkpoint_busy_s", ckptBusy)
	res.set(layer+"recompute_s", res.recompute.median(), len(res.recompute))
	res.set(layer+"speedup", ratio(res.recompute.median(), res.Metrics[layer+"refresh_s_p50"].Value), len(res.recompute))

	mean("shuffle.bytes_per_refresh", shuffleBytes)
	mean("shuffle.spill_runs", spillRuns)
	mean("shuffle.spill_bytes", spillBytes)

	mean("mrbg.reads", reads)
	mean("mrbg.bytes_read", bytesRead)
	// A chunk retrieval is either served by a read window or costs a read.
	res.set("mrbg.window_hit_ratio", ratio(hits.sum(), hits.sum()+reads.sum()), len(hits))
	mean("mrbg.appended_chunks", appended)
	mean("mrbg.flushes", mrbgFlushes)
	mean("results.flushes", resFlushes)
	mean("results.compactions", compactions)
	mean("results.bytes_rewritten", rewritten)

	end := p.r.storeTotals()
	res.set("mrbg.file_bytes", float64(end.mrbg.FileBytes), 1)
	res.set("mrbg.live_bytes", float64(end.mrbg.LiveBytes), 1)
	res.set("results.segments", float64(end.res.Segments), 1)
	res.set("results.segment_bytes", float64(end.res.SegmentBytes), 1)
}

// procMetrics is the process's own resource use over the measured
// phase, and the open-loop reader's view of it.
func (res *runResult) procMetrics(p *phase) {
	records := float64(p.records)
	a, b := p.memAfter, p.memBefore
	res.set("proc.mallocs_per_record", ratio(float64(p.writeCost.allocObjects), records), p.records)
	res.set("proc.gc_pause_s", (time.Duration(a.PauseTotalNs-b.PauseTotalNs) * time.Nanosecond).Seconds(), int(a.NumGC-b.NumGC))
	res.set("proc.heap_peak_bytes", float64(p.heapPeak), len(p.times))
	res.set("proc.write_syscalls_per_record", ratio(float64(p.writeCost.syscw), records), p.records)
	res.set("proc.read_late_s_p99", p.read.late.quantile(0.99), len(p.read.late))
}

package main

import (
	"encoding/json"
	"time"

	"i2mapreduce/internal/core"
	"i2mapreduce/internal/fsutil"
	"i2mapreduce/internal/metrics"
)

// batchTimes is one micro-batch's stamps, taken from the benchmark's own
// files around the calls into each layer's public functions. The writer
// stamps t0, addEnd and readEnd; the closures injected into the
// ingester stamp the rest on its loop goroutine.
type batchTimes struct {
	id int
	// traced is false on about half the batches of a traced run: those
	// keep no spans and take no store statistics, and the ratio between
	// the two halves is the tracing overhead.
	traced bool

	t0       time.Time      // just before the first AddBatch
	adds     [][2]time.Time // each AddBatch call (or POST /ingest)
	addEnd   time.Time      // last AddBatch returned
	wdStart  time.Time      // Config.WriteDeltas entered
	wdEnd    time.Time      // ... returned
	rfStart  time.Time      // Config.Refresh entered
	engStart time.Time      // runner refresh entered, inside srv.Refresh
	engEnd   time.Time      // ... returned
	rfEnd    time.Time      // Config.Refresh returned
	applied  time.Time      // Config.OnBatchApplied entered
	readEnd  time.Time      // the probe read returned

	report       *metrics.Report
	iters        []core.IterStats
	stores       storeTotals // after the refresh
	storesBefore storeTotals
}

// span is one interval at a layer boundary. Spans of one micro-batch
// share Batch; Parent names the span that contains it.
type span struct {
	Batch  int     `json:"batch"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// spans lays the batch's stamps out as the nested span tree. epoch is
// the phase start, so times read as seconds into the run.
func (bt *batchTimes) spans(epoch time.Time) []span {
	at := func(t time.Time) float64 { return t.Sub(epoch).Seconds() }
	mk := func(name, parent string, a, b time.Time) span {
		return span{Batch: bt.id, Name: name, Parent: parent, StartS: at(a), EndS: at(b)}
	}
	out := []span{mk("visible", "", bt.t0, bt.readEnd)}
	for _, a := range bt.adds {
		out = append(out, mk("ingest.add", "visible", a[0], a[1]))
	}
	// The rest tile the interval from the last AddBatch to the probe
	// read; what "visible" keeps as self time is the generator's own
	// work between AddBatch calls. The loop goroutine is woken inside
	// the last AddBatch and can reach WriteDeltas before the writer
	// stamps addEnd; the wait is then empty, not negative.
	cutStart := bt.addEnd
	if bt.wdStart.Before(cutStart) {
		cutStart = bt.wdStart
	}
	return append(out,
		mk("ingest.cut_wait", "visible", cutStart, bt.wdStart),
		mk("dfs.write_deltas", "visible", bt.wdStart, bt.wdEnd),
		mk("ingest.intent", "visible", bt.wdEnd, bt.rfStart),
		mk("serve.refresh", "visible", bt.rfStart, bt.rfEnd),
		mk("engine.refresh", "serve.refresh", bt.engStart, bt.engEnd),
		mk("ingest.commit", "visible", bt.rfEnd, bt.applied),
		mk("serve.first_read", "visible", bt.applied, bt.readEnd),
	)
}

// spanFile is what -spans writes when the run ends.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeSpans(path string, f spanFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data)
}

// selfTimes returns, per span name, duration minus the part its
// children cover, for one batch's spans.
func selfTimes(spans []span) map[string]float64 {
	self := make(map[string]float64, len(spans))
	for _, s := range spans {
		self[s.Name] += s.EndS - s.StartS
	}
	for _, s := range spans {
		if s.Parent != "" {
			self[s.Parent] -= s.EndS - s.StartS
		}
	}
	return self
}

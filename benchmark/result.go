package main

import (
	"fmt"
	"io"
)

// measured is one metric of one run: the value, its unit and how many
// samples stand behind it (1 for a count or a single timing).
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    string  `json:"scale"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Sizes    sizes   `json:"sizes"`
	// Attempted and Failed count operations: ingest calls, probe reads,
	// open-loop and burst reads, and the closing checks.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// Batches, Records, DeltaBytes, InputHash and ResultHash repeat
	// exactly for a seed under -batches.
	Batches    int    `json:"batches"`
	Records    int    `json:"records"`
	DeltaBytes int64  `json:"delta_bytes"`
	InputHash  string `json:"input_hash"`
	ResultHash string `json:"result_hash"`

	Metrics map[string]measured `json:"metrics"`

	spans      []span
	recompute  samples // the oracle's fresh runs, timed
	meanRelErr float64 // pr_refresh: refreshed ranks against fresh ones
	// meanEdges and meanGroups size the stand-alone probes: MRBGraph
	// edges and re-reduced groups of the run's mean refresh.
	meanEdges, meanGroups float64
}

func newRunResult(w workload, cfg runConfig) *runResult {
	return &runResult{
		Workload: w.name, Seed: cfg.seed, Scale: cfg.scale, Traced: cfg.trace,
		Seconds: cfg.seconds, Sizes: cfg.sz, Metrics: map[string]measured{},
	}
}

func (res *runResult) correct() bool { return res.Failed == 0 }

func (res *runResult) fail(format string, args ...any) {
	res.Failed++
	if len(res.Notes) < 16 {
		res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
	}
}

// set records a metric under the unit its definition gives it.
func (res *runResult) set(name string, value float64, n int) {
	d, ok := findDef(endToEnd, name)
	if !ok {
		if d, ok = findDef(perLayer, name); !ok {
			panic("benchmark: metric " + name + " has no definition in defs.go")
		}
	}
	res.Metrics[name] = measured{Value: value, Unit: d.Unit, N: n}
}

// clientMetrics fills in what the generator itself measured, traced or
// not: the bounded end-to-end costs and the client-side timings. The
// per-record costs are charged the writing part of the closed loop
// only, the per-read cost the reading part.
func (res *runResult) clientMetrics(p *phase, setups samples) {
	res.Batches, res.Records, res.DeltaBytes = len(p.visible), p.records, p.deltaSize
	records, reads := float64(p.records), float64(p.sliceReads)
	res.set("setup_s", setups.median(), len(setups))
	res.set("alloc_bytes_per_record", ratio(float64(p.writeCost.allocBytes), records), p.records)
	res.set("write_bytes_per_record", ratio(float64(p.writeCost.wchar), records), p.records)
	res.set("read_bytes_per_record", ratio(float64(p.writeCost.rchar), records), p.records)
	res.set("space_amp", ratio(float64(p.dirAfter-p.dirBefore), float64(p.deltaSize)), p.records)
	res.set("alloc_bytes_per_read", ratio(float64(p.readCost.allocBytes), reads), p.sliceReads)

	res.set("visible_s_p50", p.visible.median(), len(p.visible))
	res.set("visible_s_p90", p.visible.quantile(0.9), len(p.visible))
	res.set("records_per_s", ratio(records, p.writeWall.Seconds()), p.records)
	res.set("ack_s_p50", p.acks.median(), len(p.acks))
	res.set("reads_per_s", ratio(reads, p.readWall.Seconds()), p.sliceReads)
	res.set("read_s_p50", p.read.lat.median(), len(p.read.lat))
	res.set("read_s_p99", p.read.lat.quantile(0.99), len(p.read.lat))
	res.set("cpu_s_per_krecord", ratio(p.writeCost.cpu.Seconds(), records/1000), p.records)
	res.set("cpu_s_per_kread", ratio(p.readCost.cpu.Seconds(), reads/1000), p.sliceReads)
}

// print writes the run as lines a person reads: the echo of seed and
// sizes first, then every metric by name with unit and sample count.
func (res *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  traced %v  seconds %g\n", res.Workload, res.Seed, res.Scale, res.Traced, res.Seconds)
	fmt.Fprintf(w, "sizes %+v\n", res.Sizes)
	fmt.Fprintf(w, "batches %d  records %d  delta_bytes %d  input_hash %s  result_hash %s\n",
		res.Batches, res.Records, res.DeltaBytes, res.InputHash, res.ResultHash)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  error_ratio %g\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"i2mapreduce/internal/fsutil"
)

// ledger is what ledger mode writes and -compare reads: per workload and
// metric, the value of every run, their median and their spread.
type ledger struct {
	Scale     string                     `json:"scale"`
	Seconds   float64                    `json:"seconds"`
	Seed      int64                      `json:"seed"`
	Repeats   int                        `json:"repeats"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

type workloadLedger struct {
	Why string `json:"why"`
	// Attempted and Failed sum over the workload's runs.
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]*metricRuns `json:"per_layer"`
}

// metricRuns is one metric over the repeats of one workload. Spread is
// the distance between the first and third quartile as a share of the
// median, the way the driver takes it; 0 for a single run.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
}

func (m *metricRuns) add(v float64) {
	m.Values = append(m.Values, v)
	m.Median = samples(m.Values).median()
	q1, q3 := quartiles(m.Values)
	m.Spread = ratio(q3-q1, math.Abs(m.Median))
}

func (wl *workloadLedger) record(res *runResult) {
	wl.Attempted += res.Attempted
	wl.Failed += res.Failed
	// The client's own measurements come from the untraced run, the
	// layers' from the traced one.
	if res.Traced {
		wl.add(wl.PerLayer, layerMetrics, res)
		return
	}
	wl.add(wl.EndToEnd, endToEnd, res)
	wl.add(wl.PerLayer, clientTimings, res)
}

func (wl *workloadLedger) add(into map[string]*metricRuns, defs []metricDef, res *runResult) {
	for _, d := range defs {
		m := into[d.Name]
		if m == nil {
			m = &metricRuns{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
			into[d.Name] = m
		}
		m.add(res.Metrics[d.Name].Value)
	}
}

// ledgerRun measures every workload, untraced then traced, repeats
// times with seeds seed, seed+1, ..., prints every run and writes the
// ledger.
func ledgerRun(cfg runConfig, repeats int, jsonOut string) int {
	if repeats < 1 {
		fmt.Fprintln(os.Stderr, "-repeats must be at least 1")
		return 2
	}
	lg := ledger{
		Scale: cfg.scale, Seconds: cfg.seconds, Seed: cfg.seed, Repeats: repeats, Sizes: cfg.sz,
		Workloads: map[string]*workloadLedger{},
	}
	code := 0
	for _, w := range workloads {
		wl := &workloadLedger{Why: w.why, EndToEnd: map[string]*metricRuns{}, PerLayer: map[string]*metricRuns{}}
		lg.Workloads[w.name] = wl
		for rep := 0; rep < repeats; rep++ {
			for _, traced := range []bool{false, true} {
				run := cfg
				run.seed, run.trace = cfg.seed+int64(rep), traced
				if !traced || rep > 0 {
					run.spansOut = "" // one span file per workload would overwrite the last
				} else if run.spansOut != "" {
					run.spansOut = filepath.Join(filepath.Dir(run.spansOut), w.name+"-"+filepath.Base(run.spansOut))
				}
				res, err := runWorkload(w, run)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				res.print(os.Stdout)
				fmt.Println()
				wl.record(res)
				if !res.correct() {
					code = 1
				}
			}
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(lg, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := fsutil.WriteFileAtomic(jsonOut, append(data, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg ledger
	if err := json.Unmarshal(data, &lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lg, nil
}

// worseBy is the share of a's median by which b is worse, in the
// metric's own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// layerMoved is how far an unbounded median must move, and beyond both
// recorded spreads, before -compare lists it; the rows are information.
const layerMoved = 0.10

// compareLedgers prints, per workload and end-to-end metric, b's median
// against a's and the verdict against the metric's own bound:
// "unresolved" where either side's recorded spread exceeds the bound,
// "REGRESSION" where b is worse than a by more than the bound, else
// "ok". setup_s is held to its bound whatever its spread, as the driver
// holds it. It returns 1 when any cell regressed or an operation failed.
func compareLedgers(w io.Writer, pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err == nil {
		var b *ledger
		if b, err = readLedger(pathB); err == nil {
			return compare(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func compare(w io.Writer, a, b *ledger) int {
	if a.Scale != b.Scale || a.Seconds != b.Seconds || a.Sizes != b.Sizes {
		fmt.Fprintf(w, "the ledgers were measured differently (scale %s/%s, seconds %g/%g): not comparable\n",
			a.Scale, b.Scale, a.Seconds, b.Seconds)
		return 2
	}
	regressions, unresolved := 0, 0
	for _, wk := range workloads {
		wa, wb := a.Workloads[wk.name], b.Workloads[wk.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%s: missing from a ledger\n", wk.name)
			regressions++
			continue
		}
		fmt.Fprintf(w, "%s\n", wk.name)
		fmt.Fprintf(w, "  %-26s %-6s %14s %14s %8s %7s %7s  %s\n", "metric", "unit", "a median", "b median", "worse", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "  %-26s missing\n", d.Name)
				regressions++
				continue
			}
			worse := worseBy(d.Better, ma.Median, mb.Median)
			spread := math.Max(ma.Spread, mb.Spread)
			verdict := "ok"
			switch {
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "  %-26s %-6s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				d.Name, d.Unit, ma.Median, mb.Median, 100*worse, 100*d.Bound, 100*spread, verdict)
		}
		for _, d := range perLayer {
			ma, mb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if ma == nil || mb == nil || ma.Median == mb.Median {
				continue
			}
			noise := math.Max(layerMoved, math.Max(ma.Spread, mb.Spread))
			if worse := worseBy(d.Better, ma.Median, mb.Median); ma.Median == 0 || math.Abs(worse) > noise {
				fmt.Fprintf(w, "  %-36s %-6s %11.5g -> %-11.5g moved\n", d.Name, d.Unit, ma.Median, mb.Median)
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "  failed operations rose from %d to %d: REGRESSION\n", wa.Failed, wb.Failed)
			regressions++
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

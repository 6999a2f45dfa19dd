// Command benchmark is the repository's end-to-end perf ledger: it drives
// the real ingest → refresh → serve stack the way cmd/i2mr-serve -ingest
// wires it, on four named workloads, and prints every metric by name
// and unit after checking the results against re-computation from
// scratch. See README.md for the metric glossary and the process rule.
//
// Contract mode (what BENCHMARK.json runs, through run.sh):
//
//	benchmark --workload wc_stream --seed 1 --seconds 20 --trace 0
//
// measures one workload and prints one JSON object as the last line of
// standard output. Without --workload every workload runs untraced and
// traced and the ledger is printed (and written with -json). -compare
// a.json b.json diffs two ledgers against the metrics' own bounds.
//
// The program is one foreground process: no subprocess, no listening
// socket, no goroutine survives run().
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// hardDeadline is the watchdog: the contract gives one run 180 s, so a
// wedged run dies on its own well before the driver has to kill it.
const hardDeadline = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload in contract mode: "+workloadNames())
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		scale    = flag.String("scale", "full", "input sizes: full or smoke")
		batches  = flag.Int("batches", 0, "measure exactly this many micro-batches instead of -seconds (counts then repeat exactly)")
		repeats  = flag.Int("repeats", 1, "ledger mode: runs per workload, seeds seed..seed+repeats-1")
		jsonOut  = flag.String("json", "", "ledger mode: write the ledger to this file")
		spansOut = flag.String("spans", "", "write the traced run's spans to this file as JSON")
		workDir  = flag.String("workdir", "", "parent of the temporary work dir (default .bench_build under the current directory)")
		compare  = flag.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -scale %q (full or smoke)\n", *scale)
		return 2
	}

	parent := *workDir
	if parent == "" {
		parent = ".bench_build"
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err := os.MkdirTemp(parent, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err = filepath.Abs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// The watchdog and the signal handler are the only exits that skip
	// the deferred cleanup, so they remove the work dir themselves.
	// The sync after the removal makes the file system finish with the
	// deleted files (journal commit, trims) inside this run rather than
	// under the next run's clock.
	defer func() {
		os.RemoveAll(root)
		syscall.Sync()
	}()
	watchdog := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: hard deadline of %s passed\n", hardDeadline)
		os.RemoveAll(root)
		os.Exit(2)
	})
	defer watchdog.Stop()
	sigc := make(chan os.Signal, 1)
	sigDone := make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(sigDone)
		if _, ok := <-sigc; ok {
			os.RemoveAll(root)
			os.Exit(2)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
		<-sigDone
	}()

	cfg := runConfig{
		root: root, seed: *seed, sz: sz, scale: *scale,
		seconds: *seconds, batches: *batches, spansOut: *spansOut,
	}
	if cfg.batches == 0 {
		cfg.batches = sz.Batches
	}
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -workload %q (%s)\n", *workload, workloadNames())
			return 2
		}
		cfg.trace = *trace != 0
		return contractRun(w, cfg)
	}
	// Ledger mode runs 2 × workloads × repeats measured phases, which
	// does not fit under one run's watchdog.
	watchdog.Stop()
	return ledgerRun(cfg, *repeats, *jsonOut)
}

// contractRun measures one workload and prints the driver's result
// object as the last line of standard output.
func contractRun(w workload, cfg runConfig) int {
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// metricValue is one metric in the driver's result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

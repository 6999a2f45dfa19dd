package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// smokeConfig is a fixed-count run at the smoke scale, so counts repeat
// exactly for a seed.
func smokeConfig(t *testing.T, seed int64, traced bool) runConfig {
	t.Helper()
	sz := scales["smoke"]
	return runConfig{root: t.TempDir(), seed: seed, sz: sz, scale: "smoke", seconds: 1, batches: sz.Batches, trace: traced}
}

// TestDeterminism: the same seed twice gives the same inputs, counts
// and final result; another seed gives other inputs. runWorkload itself
// fails the run when the goroutine count does not return to its start
// value after the Closes, so every run here is also the leak check.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64, traced bool) *runResult {
				res, err := runWorkload(w, smokeConfig(t, seed, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("seed %d: %d of %d operations failed: %v", seed, res.Failed, res.Attempted, res.Notes)
				}
				return res
			}
			a, b, other := run(7, true), run(7, true), run(8, false)
			type fingerprint struct {
				batches, records      int
				deltaBytes            int64
				inputHash, resultHash string
				ingestRecords         float64
				ingestBatches         float64
				iterations            float64
				dfsDeltaBytes         float64
			}
			fp := func(r *runResult) fingerprint {
				return fingerprint{
					r.Batches, r.Records, r.DeltaBytes, r.InputHash, r.ResultHash,
					r.Metrics["ingest.records"].Value, r.Metrics["ingest.batches"].Value,
					r.Metrics["core.iterations_per_refresh"].Value, r.Metrics["dfs.delta_bytes"].Value,
				}
			}
			if fp(a) != fp(b) {
				t.Errorf("seed 7 twice:\n %+v\n %+v", fp(a), fp(b))
			}
			if a.InputHash == other.InputHash {
				t.Errorf("seeds 7 and 8 gave the same final input %s", a.InputHash)
			}
			if a.Batches != scales["smoke"].Batches || a.Metrics["ingest.batches"].Value != float64(a.Batches) {
				t.Errorf("measured %d batches, the ingester cut %g, want %d", a.Batches, a.Metrics["ingest.batches"].Value, scales["smoke"].Batches)
			}
			for _, d := range perLayer {
				if _, ok := a.Metrics[d.Name]; !ok {
					t.Errorf("traced run reports no %s", d.Name)
				}
			}
			for _, d := range endToEnd {
				if a.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %g, end-to-end metrics are never 0", d.Name, a.Metrics[d.Name].Value)
				}
			}
			if cov := a.Metrics["trace.coverage"].Value; cov < 0.95 {
				t.Errorf("trace.coverage = %g, unattributed p50 %g s", cov, a.Metrics["trace.unattributed_s_p50"].Value)
			}
		})
	}
}

// TestNoStraggler runs the built binary the way run.sh does, in its own
// process group, and checks what the driver checks after it exits: exit
// code 0, nothing left alive in the group, no work dir left behind.
func TestNoStraggler(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "i2bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work")
	ledgerPath := filepath.Join(dir, "ledger.json")
	cmd := exec.Command(bin, "-scale", "smoke", "-workdir", work, "-json", ledgerPath)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	if err := cmd.Wait(); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	if err := syscall.Kill(-pgid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("process group %d after exit: %v, want no such process", pgid, err)
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left under the work dir, first %s", len(left), left[0].Name())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "workload "+w.name+" ") {
			t.Errorf("the smoke run printed nothing for %s", w.name)
		}
	}

	// The ledger it wrote compares clean against itself, and contract
	// mode ends on the driver's result object.
	var cmp bytes.Buffer
	if code := compareLedgers(&cmp, ledgerPath, ledgerPath); code != 0 {
		t.Errorf("-compare of a ledger with itself exits %d:\n%s", code, cmp.String())
	}
	line, err := exec.Command(bin, "-scale", "smoke", "-workdir", work,
		"--workload", "wc_stream", "--seed", "3", "--seconds", "1", "--trace", "0").Output()
	if err != nil {
		t.Fatalf("contract run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(line)), "\n")
	var obj struct {
		Correct   *bool                  `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    *int64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if obj.Correct == nil || !*obj.Correct || obj.Failed == nil || *obj.Failed != 0 || obj.Attempted < 1 {
		t.Errorf("result object %s", lines[len(lines)-1])
	}
	if len(obj.Metrics) != len(endToEnd) {
		t.Errorf("--trace 0 printed %d metrics, want the %d end-to-end ones", len(obj.Metrics), len(endToEnd))
	}
}

// TestDefsMatchBenchmarkJSON holds defs.go, workloads.go and the
// BENCHMARK.json at the repository root together.
func TestDefsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in defs.go", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (jsonMetric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, defs.go %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestReadmeGlossary: every metric and workload has its entry.
func TestReadmeGlossary(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md has no entry for %s", d.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md has no entry for %s", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g, want 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(alloc []float64, failed int64) *ledger {
		wls := map[string]*workloadLedger{}
		for _, w := range workloads {
			wl := &workloadLedger{EndToEnd: map[string]*metricRuns{}, PerLayer: map[string]*metricRuns{}, Failed: failed}
			for _, d := range endToEnd {
				m := &metricRuns{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
				for _, x := range alloc {
					if d.Name != "alloc_bytes_per_record" {
						x = 1
					}
					m.add(x)
				}
				wl.EndToEnd[d.Name] = m
			}
			wls[w.name] = wl
		}
		return &ledger{Scale: "full", Seconds: 20, Workloads: wls}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name string
		b    *ledger
		code int
		want string
	}{
		{"same", mk(steady, 0), 0, "0 regressions, 0 unresolved"},
		{"slower", mk([]float64{1.30, 1.31, 1.29, 1.30, 1.32}, 0), 1, "4 regressions, 0 unresolved"},
		{"faster", mk([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 0), 0, "0 regressions, 0 unresolved"},
		{"noisy", mk([]float64{0.8, 1.5, 1.0, 1.9, 0.6}, 0), 0, "0 regressions, 4 unresolved"},
		{"within bound", mk([]float64{1.20, 1.21, 1.19, 1.20, 1.22}, 0), 0, "0 regressions, 0 unresolved"},
		{"failing", mk(steady, 3), 1, "failed operations rose from 0 to 3"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compare(&out, mk(steady, 0), c.b); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

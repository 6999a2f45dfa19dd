// Package fixture exercises the rawgo analyzer. The test feeds this
// package to the analyzer under an engine package path (internal/core),
// where bare go statements must route through par.Do and task waves
// through shuffle.Iteration.
package fixture

// The alias shows the check is by type, not by spelling.
import cl "i2mapreduce/internal/cluster"

func fanout(n int) {
	for i := 0; i < n; i++ {
		go work(i) // want "bare go statement"
	}
	//i2vet:allow rawgo long-lived fixture worker, not a bounded fan-out
	go work(-1)
}

func work(int) {}

func wave(n int) []cl.Task {
	tasks := []cl.Task{{Name: "elided"}} // want "cluster.Task built outside internal/shuffle"
	for i := 0; i < n; i++ {
		tasks = append(tasks, cl.Task{Name: "hand-built"}) // want "cluster.Task built outside internal/shuffle"
	}
	//i2vet:allow rawgo fixture wave that is not a Map -> shuffle -> Reduce pass
	return append(tasks, cl.Task{Name: "justified"})
}

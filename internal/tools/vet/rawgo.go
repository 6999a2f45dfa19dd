package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// rawgoAnalyzer keeps the engine and durability packages' concurrency
// funneled through internal/par: PR-8 put every per-partition
// durability loop behind par.Do so one knob (IOParallelism) bounds the
// whole process's concurrent I/O, errors surface in deterministic
// index order, and limit==1 degrades to the byte-identical serial loop
// the crash-consistency tests compare against. A bare `go` statement in
// those packages reintroduces unbounded, order-nondeterministic
// fan-out. Long-lived background loops that are genuinely not fan-out
// (a scheduler's worker pool, the ingestion micro-batch loop) carry
// //i2vet:allow rawgo directives saying so.
//
// Task waves are the cluster-level form of the same rule: every
// Map -> shuffle -> Reduce pass runs on shuffle.Iteration, the one place
// that builds cluster.Tasks (per-attempt staging, spill cleanup, stage
// and counter accounting come with it). A cluster.Task literal anywhere
// else in these packages is a hand-rolled wave that has none of that.
var rawgoAnalyzer = &analyzer{
	name: "rawgo",
	doc:  "flag bare go statements and hand-built cluster.Task waves in engine/durability packages; fan-out routes through par.Do, passes through shuffle.Iteration",
}

func init() { rawgoAnalyzer.run = runRawgo }

// rawgoPackages is the engine/durability set the invariant covers.
// cluster (the task scheduler — goroutines are its core function), par
// itself, and the bench/app driver layers are out of scope.
var rawgoPackages = map[string]bool{
	"internal/mrbg":    true,
	"internal/results": true,
	"internal/core":    true,
	"internal/incr":    true,
	"internal/iter":    true,
	"internal/mr":      true,
	"internal/dfs":     true,
	"internal/shuffle": true,
	"internal/serve":   true,
	"internal/ingest":  true,
}

func runRawgo(p *pass) {
	if !rawgoPackages[p.pkgPath] {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.report(rawgoAnalyzer, n.Pos(),
					"bare go statement in an engine/durability package; route bounded fan-out through par.Do (or annotate //i2vet:allow rawgo for a long-lived background loop)")
			case *ast.CompositeLit:
				if p.pkgPath != "internal/shuffle" && isClusterTask(p.info.TypeOf(n)) {
					p.report(rawgoAnalyzer, n.Pos(),
						"cluster.Task built outside internal/shuffle; run the pass on shuffle.Iteration (or annotate //i2vet:allow rawgo for a wave that is not a Map -> shuffle -> Reduce pass)")
				}
			}
			return true
		})
	}
}

// isClusterTask reports whether t is internal/cluster's Task type.
func isClusterTask(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Task" && named.Obj().Pkg() != nil &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/cluster")
}

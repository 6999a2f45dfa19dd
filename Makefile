GO ?= go

.PHONY: all build test race lint loc fuzz bench-smoke bench-json bench-e2e bench-e2e-compare pprof serve-demo ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the full module: every engine runs concurrent tasks over
# shared buffers and stores — and internal/serve adds concurrent
# readers against in-flight refreshes — so nothing is exempt.
race:
	$(GO) test -race ./...

# Lint is three in-repo stdlib-only tools plus staticcheck:
#   - doclint (internal/tools/doclint) requires a doc comment on every
#     exported declaration — the whole public surface stays
#     godoc-complete.
#   - i2vet (internal/tools/vet) enforces repo invariants: atomic
#     commit sequences, centralized counter names, sorted map emission,
#     checked Close/Flush/Sync, par.Do fan-out and task waves built
#     only by shuffle.Iteration (both rawgo). Its summary line ("i2vet:
#     atomicwrite=0 ... rawgo=0") prints per-analyzer counts; it is
#     BLOCKING here and in CI. Exemptions need a justified
#     //i2vet:allow directive (see DESIGN.md "Enforced invariants").
#   - staticcheck is ADVISORY locally (runs only when installed, so
#     `make lint` needs nothing beyond the Go toolchain) and BLOCKING
#     in CI, where its own job always installs it.
lint:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doclint . ./cmd/* ./internal/* ./internal/tools/doclint ./internal/tools/vet
	$(GO) run ./internal/tools/vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Non-test Go lines per package and in total, outside benchmark/,
# testdata/ and .bench_build/: the number a simplicity PR diffs against
# its parent (CHANGES.md quotes it). Advisory: it fails nothing.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' ! -path '*/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Fuzz the decode boundaries that accept bytes from disk: the block
# segment format, the MRBG-Store chunk frame and index log, the
# MRBGraph-edge shuffle value (it crosses spill runs), the ingest
# staging log, and the kv text codec. Each
# target gets FUZZTIME of coverage-guided input generation (the go tool
# runs one -fuzz pattern per invocation). Seeds are valid encodes plus
# byte-flipped variants, mirroring the deterministic corruption-sweep
# tests; CI runs this as the fuzz-smoke job.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBlockFile$$' -fuzztime $(FUZZTIME) ./internal/blockio
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime $(FUZZTIME) ./internal/mrbg
	$(GO) test -run '^$$' -fuzz '^FuzzIndexLog$$' -fuzztime $(FUZZTIME) ./internal/mrbg
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaEdgeValue$$' -fuzztime $(FUZZTIME) ./internal/mrbg
	$(GO) test -run '^$$' -fuzz '^FuzzWALLine$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzEscapeField$$' -fuzztime $(FUZZTIME) ./internal/kv
	$(GO) test -run '^$$' -fuzz '^FuzzTextDelta$$' -fuzztime $(FUZZTIME) ./internal/kv

# One iteration of every benchmark so the bench harness cannot rot,
# plus (via bench-json) the sweep tables and the BENCH_core.json
# artifact exactly as CI's bench-smoke job produces them.
bench-smoke: bench-json
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Machine-readable benchmark records at CI's artifact paths, so the
# perf trajectory is reproducible locally: the engine sweeps in
# BENCH_core.json, the parallel durability-plane checkpoint sweep in
# BENCH_ckpt.json, the serving-layer QPS/p99 sweep in BENCH_serve.json,
# the streaming-ingestion freshness-lag sweep in BENCH_ingest.json, the
# segment block-format storage sweep in BENCH_results.json, and the
# refresh-planner no-regret sweep in BENCH_plan.json.
bench-json:
	$(GO) run ./cmd/i2mr-bench -scale small -shuffle-mem 65536 -json BENCH_core.json onestep core
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_ckpt.json ckpt
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_serve.json serve
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_ingest.json ingest
	$(GO) run ./cmd/i2mr-bench -scale small -json BENCH_results.json results
	$(GO) run ./cmd/i2mr-bench -scale small -shuffle-mem 65536 -json BENCH_plan.json plan

# The end-to-end perf ledger (benchmark/README.md): delta-ingest to
# visible read on the real stack, every run checked against
# re-computation from scratch. bench-e2e is the smoke: each workload
# for 5 s through the command BENCHMARK.json names, plus the
# benchmark module's own vet and tests (it is a module of its own, so
# `go test ./...` at the root does not reach it). bench-e2e-compare
# measures a fresh five-seed ledger and prints it against the checked-in
# baseline; timings on a shared machine are advisory, the per-record
# byte and allocation counts repeat.
bench-e2e:
	@for w in wc_stream wc_bulk pr_refresh serve_mixed; do \
		bash benchmark/run.sh --workload $$w --seconds 5 || exit 1; \
	done
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench-e2e-compare:
	bash benchmark/run.sh -repeats 5 -json .bench_build/ledger.json
	bash benchmark/run.sh -compare benchmark/baseline.json .bench_build/ledger.json

# CPU + heap + contention profiles of the storage/serving hot path (the
# results point-read benchmarks), for digging into a regression the
# sweeps surface: `make pprof` then `go tool pprof cpu.prof`. The mutex
# and block profiles show lock contention and blocking waits on the
# parallel durability plane (striped edge locks, scheduler queue).
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreGet' -benchtime 2s \
		-cpuprofile cpu.prof -memprofile mem.prof \
		-mutexprofile mutex.prof -blockprofile block.prof ./internal/results/
	@echo "profiles written: cpu.prof mem.prof mutex.prof block.prof (go tool pprof cpu.prof)"

# Run the online serving demo: wordcount over a generated corpus,
# HTTP on :8080, a background delta refresh every 5s. Try
#   curl 'http://localhost:8080/get?key=w0042'
# while it runs; /stats shows epoch flips and cache counters.
serve-demo:
	$(GO) run ./cmd/i2mr-serve -addr :8080 -n 4000 -refresh-every 5s

# Everything CI runs, in the same order.
ci: build lint loc test race fuzz bench-smoke bench-e2e

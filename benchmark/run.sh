#!/bin/bash
# The command BENCHMARK.json names, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload wc_stream --seed 1 --seconds 20 --trace 0
#
# One foreground process: go build writes the binary and exits, then the
# shell execs the binary. No "go run", nothing in the background.
# Everything the build and the run write stays under .bench_build in the
# checkout, the Go build cache included, so the first run of a checkout
# builds from cold.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/i2bench" .)
exec "$build/i2bench" -workdir "$build" "$@"

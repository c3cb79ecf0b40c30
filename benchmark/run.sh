#!/usr/bin/env bash
# The benchmark driver's entry point (the "command" of BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness from source inside the checkout — build cache,
# temporary files and binary all under .bench_build/, nothing written
# outside the checkout — and runs it from the checkout's root. Outside a
# checkout of the module (no go.mod, no internal/) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/ftbenchmark" ./benchmark
exec "$build/ftbenchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# flags. The binary and Go's build cache stay under .bench_build in the
# checkout, so a run reads and writes nothing outside it; the first run in a
# fresh checkout therefore also compiles the standard library.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/stcam-benchmark" ./benchmark
exec "$build/stcam-benchmark" "$@"
